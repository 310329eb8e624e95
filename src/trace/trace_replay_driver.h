// End-to-end trace replay: feeds a Google-trace-format event stream through
// the SchedulerService producer API in scaled trace time. This is the one
// service replay driver: the stream may come from the CSV parsers
// (MergedTraceStream::Next) or straight from memory (a walk over
// SyntheticTraceEmitter::Emit(), which fig20's open-loop series uses).
//
// Event mapping (§7.1-style "Fauxmaster" replay):
//  * task SUBMIT        -> SchedulerService::Submit (consecutive rows of one
//    job at one timestamp batch into a single submission);
//  * task FINISH        -> SchedulerService::Complete, delivered at
//    max(placement time, trace finish time) — the trace's finish instant
//    assumed its own placement, ours may lag, and completing a waiting task
//    is an ignored no-op under the scheduler's idempotency contract;
//  * task EVICT/FAIL/KILL/LOST -> kill-and-resubmit: the running attempt is
//    torn down via Complete and the lineage resubmits after the shared
//    capped backoff (replay_feedback.h). Kills reaching a not-yet-placed
//    lineage defer until its placement;
//  * task SCHEDULE and UPDATE_* -> recognized, counted, ignored (this
//    scheduler makes its own placement decisions);
//  * machine ADD/REMOVE -> AddMachine (service-managed racks) / RemoveMachine;
//    machine UPDATE is recognized and ignored.
//
// The driver keys all task state off (job id, task index) *lineages*, which
// persist across kill/resubmit cycles and are erased when the lineage's
// completion is delivered — memory is O(live lineages), not O(trace), which
// is what lets the 10k-machine replay run hours of cluster time.
//
// Accounting contract: every event consumed from the stream lands in
// exactly one report bucket (report.accounted() == report.events_consumed);
// the replay tests pin this zero-event-loss identity.
//
// Thread model: Replay() runs on the calling thread and paces itself
// against the service clock; the service loop thread feeds back admissions
// (on_admitted: trace lineage -> minted TaskId) and placements (on_placed)
// through the driver's callbacks. One mutex guards the lineage maps.

#ifndef SRC_TRACE_TRACE_REPLAY_DRIVER_H_
#define SRC_TRACE_TRACE_REPLAY_DRIVER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/service/scheduler_service.h"
#include "src/sim/replay_feedback.h"
#include "src/trace/trace_event.h"

namespace firmament {

struct TraceReplayOptions {
  // Trace microseconds per wall microsecond; must match the service's
  // WallServiceClock scale. The driver never blocks the trace on scheduler
  // progress — when the service falls behind, the backlog surfaces as
  // submit-to-placement latency.
  double time_scale = 1.0;
  // Events after this trace time are counted (beyond_horizon) and skipped.
  // 0 = replay the whole stream.
  SimTime horizon = 0;
  // Machine scaling: trace capacities are normalized [0, 1] of a full
  // machine; a capacity-c machine gets max(1, round(c * slots)) slots and
  // c * bandwidth of NIC.
  int slots_at_full_capacity = 12;
  int64_t full_machine_bandwidth_mbps = 10'000;
  // Request decoding (inverse of the synthetic emitter's encoding).
  double input_bytes_scale = 16e9;
  double bandwidth_scale_mbps = 10'000.0;
  // Kill-and-resubmit backoff for lineage attempt n: min(base*2^(n-1), cap).
  SimTime backoff_base_us = 100'000;
  SimTime backoff_cap_us = 10'000'000;
  // After the stream ends, wait at most this long (wall time) for in-flight
  // resubmit -> admit -> place -> complete chains to drain.
  uint64_t max_drain_wall_ms = 30'000;
};

struct TraceReplayReport {
  uint64_t events_consumed = 0;

  // Task-table buckets.
  uint64_t submits = 0;                 // new lineages submitted
  uint64_t duplicate_submits = 0;       // SUBMIT for an already-live lineage
  uint64_t schedule_rows_ignored = 0;   // the trace's own placements
  uint64_t kills = 0;                   // EVICT/FAIL/KILL/LOST on a live lineage
  uint64_t redundant_kills = 0;         // lineage already waiting out a backoff
  uint64_t unknown_lineage_rows = 0;    // kill/finish for a lineage never seen
  uint64_t finishes_recorded = 0;
  uint64_t task_updates_ignored = 0;    // UPDATE_PENDING / UPDATE_RUNNING

  // Machine-table buckets.
  uint64_t machine_adds = 0;
  uint64_t duplicate_machine_adds = 0;
  uint64_t machine_removes = 0;
  uint64_t unknown_machine_removes = 0;
  uint64_t machine_updates_ignored = 0;

  uint64_t beyond_horizon = 0;

  // Derived activity (not part of the accounting identity).
  uint64_t service_submit_calls = 0;
  uint64_t tasks_resubmitted = 0;
  uint64_t completions_delivered = 0;
  uint64_t deferred_kills = 0;  // kills that waited for the lineage's placement
  bool drain_timed_out = false;

  // Sum of the per-event buckets; the zero-event-loss identity is
  // accounted() == events_consumed.
  uint64_t accounted() const {
    return submits + duplicate_submits + schedule_rows_ignored + kills +
           redundant_kills + unknown_lineage_rows + finishes_recorded +
           task_updates_ignored + machine_adds + duplicate_machine_adds +
           machine_removes + unknown_machine_removes + machine_updates_ignored +
           beyond_horizon;
  }
};

class TraceReplayDriver {
 public:
  // Registers the driver's admission and placement callbacks on the service
  // — construct before service->Start().
  TraceReplayDriver(SchedulerService* service, TraceReplayOptions options);

  TraceReplayDriver(const TraceReplayDriver&) = delete;
  TraceReplayDriver& operator=(const TraceReplayDriver&) = delete;

  // Consumes the event source on the calling thread (the service must be
  // running), then drains in-flight feedback chains. `next` fills in the
  // next event and returns false at the end of the stream; events must come
  // in canonical stream order (TraceEventOrder). Call once.
  TraceReplayReport Replay(const std::function<bool(TraceEvent*)>& next);

  // Live lineages (submitted, not yet completed) — the O(live) figure.
  size_t live_lineages() const;

 private:
  enum class Phase : uint8_t {
    kQueued,   // submitted to the service; ids not yet minted
    kWaiting,  // admitted (TaskId known), awaiting first placement
    kRunning,  // placed
    kBackoff,  // killed; resubmission scheduled
  };

  struct Lineage {
    Phase phase = Phase::kQueued;
    TaskId task = kInvalidTaskId;  // valid from kWaiting on
    JobType type = JobType::kBatch;
    int32_t priority = 0;
    int64_t input_bytes = 0;
    int64_t bandwidth_mbps = 0;
    int attempts = 1;
    bool pending_kill = false;       // kill arrived before placement
    bool has_pending_finish = false; // trace finish arrived before placement
    SimTime pending_finish = 0;
    bool completion_scheduled = false;
  };

  struct SubmitBatch {
    bool active = false;
    uint64_t job_id = 0;
    SimTime time = 0;
    JobType type = JobType::kBatch;
    int32_t priority = 0;
    std::vector<TaskDescriptor> tasks;
    std::vector<uint64_t> keys;
  };

  static uint64_t Key(uint64_t job_id, uint32_t task_index) {
    return (job_id << 24) | task_index;
  }

  void OnAdmitted(uint64_t seq, JobId job, const std::vector<TaskId>& tasks);
  void OnPlaced(TaskId task, MachineId machine, SimTime now);
  // First-placement bookkeeping for a just-placed lineage: feedback
  // tracking, then any deferred kill or finish (caller holds mutex_).
  void ActivatePlacementLocked(uint64_t key, Lineage& lineage, SimTime now);
  void SleepUntil(SimTime target);
  void HandleTaskEvent(const TraceEvent& event);
  void HandleMachineEvent(const TraceEvent& event);
  // Submits descriptors for `keys` and wires up admission binding.
  void SubmitLineages(JobType type, int32_t priority, std::vector<TaskDescriptor> tasks,
                      std::vector<uint64_t> keys);
  void FlushSubmitBatch();
  // Applies a kill to a placed lineage: tears the attempt down and queues
  // the resubmission. Caller holds mutex_.
  void KillPlacedLocked(uint64_t key, Lineage& lineage, SimTime now);
  // Delivers everything due by `upto`; returns events delivered.
  size_t DeliverDue(SimTime upto);
  bool DrainWorkRemains();

  SchedulerService* service_;
  TraceReplayOptions options_;
  ReplayFeedback feedback_;
  TraceReplayReport report_;
  SubmitBatch batch_;

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, Lineage> lineages_;
  std::unordered_map<TaskId, uint64_t> task_to_key_;
  // Submit-seq rendezvous: SubmitLineages parks the keys under mutex_ in
  // the same critical section as Submit(), and on_admitted binds them.
  std::unordered_map<uint64_t, std::vector<uint64_t>> pending_admissions_;
  // Count of deferred duties the drain phase must wait out: pending kills
  // and pending finishes attached to not-yet-placed lineages.
  uint64_t drain_obligations_ = 0;

  // Driver-thread-only: trace machine id -> live cluster MachineId.
  std::unordered_map<uint64_t, MachineId> machines_;
};

}  // namespace firmament

#endif  // SRC_TRACE_TRACE_REPLAY_DRIVER_H_
