// Virtual-time, single-threaded trace driver for the benchmark.
//
// The driver owns the only load-generating thread. It runs a
// SchedulerService in manual Pump() mode on a ManualServiceClock and
// advances trace time in fixed ticks. Each tick it:
//  1. moves the clock to the tick instant;
//  2. turns every trace row and feedback duty due by then into producer
//     calls (Submit / Complete / AddMachine / RemoveMachine) — on the
//     pipelined service these land while the previous round's solve is
//     still in flight;
//  3. pumps the service until it is idle or has a new round in flight.
// Round boundaries therefore depend only on the trace and the tick, never
// on how fast the machine is: the admitted event sequence and the round
// count are a pure function of the workload seed, and wall time measures
// the work instead of a race between a generator and a loop thread.
//
// Event mapping mirrors TraceReplayDriver (src/trace/trace_replay_driver.h):
// SUBMIT rows of one job at one timestamp batch into one Submit; FINISH is
// delivered at max(placement, finish); EVICT/FAIL/KILL/LOST complete the
// running attempt and resubmit the lineage after CappedExponentialBackoff;
// machine ADD/REMOVE pass through; SCHEDULE and UPDATE rows are counted and
// ignored.

#ifndef VTBENCH_DRIVER_H_
#define VTBENCH_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/service_clock.h"
#include "src/service/scheduler_service.h"
#include "src/sim/replay_feedback.h"
#include "src/trace/trace_event.h"

namespace firmament {
namespace vtbench {

using BenchClock = std::chrono::steady_clock;

inline double MillisSince(BenchClock::time_point start, BenchClock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct DriverOptions {
  // Trace capacities and requests are normalized to a full machine; the
  // driver scales them back with the emitter's constants
  // (kTraceFullMachine*, synthetic_trace.h) and this slot count.
  int slots_at_full_capacity = 12;
  SimTime backoff_base_us = 100'000;
  SimTime backoff_cap_us = 10'000'000;
  // Quincy inputs generated before timing: lineage key -> replica block ids.
  // Null when the policy reads no locality.
  const std::unordered_map<uint64_t, std::vector<uint64_t>>* input_blocks = nullptr;
};

// Every consumed trace row lands in exactly one bucket:
// accounted() == events_consumed is the event-accounting identity.
struct EventCounts {
  uint64_t events_consumed = 0;
  uint64_t submits = 0;
  uint64_t duplicate_submits = 0;
  uint64_t schedule_rows = 0;
  uint64_t kills = 0;
  uint64_t redundant_kills = 0;
  uint64_t unknown_lineage_rows = 0;
  uint64_t finishes = 0;
  uint64_t task_updates = 0;
  uint64_t machine_adds = 0;
  uint64_t duplicate_machine_adds = 0;
  uint64_t machine_removes = 0;
  uint64_t unknown_machine_removes = 0;
  uint64_t machine_updates = 0;
  uint64_t withheld_submits = 0;  // SUBMIT rows skipped during the drain

  uint64_t accounted() const {
    return submits + duplicate_submits + schedule_rows + kills + redundant_kills +
           unknown_lineage_rows + finishes + task_updates + machine_adds +
           duplicate_machine_adds + machine_removes + unknown_machine_removes +
           machine_updates + withheld_submits;
  }
};

// Per-round record. The untraced run fills wall_ms only; the traced run
// fills the rest from the stats the public API already returns.
struct RoundRecord {
  double wall_ms = 0;
  double update_ms = 0;
  double solve_ms = 0;
  double refine_ms = 0;
  double apply_ms = 0;
  double view_prep_ms = 0;
  double dispatch_us = 0;
  double relax_iters = 0;
  double cs_iters = 0;
  double relax_wins = 0;  // stacks whose race relaxation won
  uint64_t tasks_refreshed = 0;
  uint64_t class_hits = 0;
  uint64_t class_misses = 0;
  uint64_t cells_run = 0;
};

// Totals the traced run attributes outside the scheduler's own phases.
struct TraceTotals {
  uint64_t producer_calls = 0;
  double enqueue_ms = 0;   // inside Submit/Complete/AddMachine/RemoveMachine
  double pump_ms = 0;      // inside Pump
  double wait_ms = 0;      // explicit join of the in-flight solve
  double callback_ms = 0;  // driver callbacks run from inside Pump
  double tick_ms = 0;      // whole tick loop
};

class VirtualTimeDriver {
 public:
  // `events` must outlive the driver and be in canonical stream order.
  VirtualTimeDriver(SchedulerService* service, ManualServiceClock* clock,
                    const std::vector<TraceEvent>* events, DriverOptions options);

  VirtualTimeDriver(const VirtualTimeDriver&) = delete;
  VirtualTimeDriver& operator=(const VirtualTimeDriver&) = delete;

  // Replays `ticks` ticks of `tick_us` trace time each, starting where the
  // previous call stopped. The last tick may leave a round in flight.
  void RunTicks(SimTime tick_us, uint64_t ticks);
  // Finishes the in-flight round and pumps until idle, without new input.
  void Settle();
  // Keeps ticking without admitting new lineages (SUBMIT rows are withheld
  // and counted) until no admitted task waits for its first placement and no
  // kill/resubmit chain is pending, or `max_ticks` ran out.
  void Drain(SimTime tick_us, uint64_t max_ticks);

  void set_traced(bool traced) { traced_ = traced; }
  // Records/hashes start fresh (rounds, wait samples, totals); counters of
  // the event accounting persist across windows.
  void ResetWindow();

  const EventCounts& counts() const { return counts_; }
  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  const std::vector<double>& wait_rounds() const { return wait_rounds_; }
  const TraceTotals& totals() const { return totals_; }
  uint64_t rounds_total() const { return round_seq_; }
  uint64_t task_attempts() const { return task_attempts_; }
  // FNV hashes over (a) the producer calls that trace rows make directly —
  // SUBMIT batches and machine ADD/REMOVE, with their ticks; (b) every
  // producer call and admission, feedback included (completions land at
  // max(placement, finish), resubmits after kills); (c) first placements
  // (task -> machine). (a) depends on the seed alone. (b) and (c) also
  // depend on which equal-cost optimum a round picks, which the race
  // decides by timing; they repeat under a deterministic solver.
  uint64_t trace_call_hash() const { return trace_call_hash_; }
  uint64_t event_hash() const { return event_hash_; }
  uint64_t placement_hash() const { return placement_hash_; }
  // Admitted tasks whose lineage still waits for a first placement.
  size_t waiting_lineages() const;

 private:
  enum class Phase : uint8_t { kQueued, kWaiting, kRunning, kBackoff };

  struct Lineage {
    Phase phase = Phase::kQueued;
    TaskId task = kInvalidTaskId;
    JobType type = JobType::kBatch;
    int32_t priority = 0;
    int64_t input_bytes = 0;
    int64_t bandwidth_mbps = 0;
    int attempts = 1;
    bool pending_kill = false;
    bool has_pending_finish = false;
    SimTime pending_finish = 0;
    bool completion_scheduled = false;
    uint64_t admitted_round = 0;
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

  void OnAdmitted(uint64_t seq, const std::vector<TaskId>& tasks);
  void OnPlaced(TaskId task, MachineId machine, SimTime now);
  void OnRound(const SchedulerRoundResult& result);
  void ActivatePlacement(uint64_t key, Lineage& lineage, SimTime now);
  void KillPlaced(uint64_t key, Lineage& lineage, SimTime now);
  void HandleTaskEvent(const TraceEvent& event);
  void HandleMachineEvent(const TraceEvent& event);
  TaskDescriptor MakeTask(uint64_t key, int64_t input_bytes, int64_t bandwidth_mbps) const;
  void SubmitLineages(JobType type, int32_t priority, std::vector<TaskDescriptor> tasks,
                      std::vector<uint64_t> keys);
  void FlushSubmitBatch();
  void DeliverDue(SimTime upto);
  // Feeds every trace row and feedback duty due by `upto`.
  void Feed(SimTime upto);
  void PumpTick();
  void Tick(SimTime tick_us);
  bool InFlight();
  void Mix(uint64_t* hash, uint64_t value) const;
  // Starts a timed producer call (traced runs only); Stop() books it.
  BenchClock::time_point CallStart() const;
  void CallStop(BenchClock::time_point start);

  SchedulerService* service_;
  ManualServiceClock* clock_;
  const std::vector<TraceEvent>* events_;
  DriverOptions options_;
  ReplayFeedback feedback_;
  const bool federated_;

  size_t next_event_ = 0;
  SimTime now_ = 0;
  uint64_t tick_index_ = 0;
  bool withhold_submits_ = false;
  bool traced_ = false;

  EventCounts counts_;
  SubmitBatch batch_;
  std::unordered_map<uint64_t, Lineage> lineages_;
  std::unordered_map<TaskId, uint64_t> task_to_key_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> pending_admissions_;
  std::unordered_map<uint64_t, MachineId> machines_;
  uint64_t pending_kill_or_finish_ = 0;
  uint64_t task_attempts_ = 0;

  // Round bookkeeping.
  uint64_t round_seq_ = 0;  // rounds applied so far
  BenchClock::time_point round_start_;
  BenchClock::time_point pump_start_;
  bool round_applied_in_pump_ = false;
  std::vector<RoundRecord> rounds_;
  std::vector<double> wait_rounds_;
  std::vector<size_t> cell_solve_counts_;
  TraceTotals totals_;
  uint64_t trace_call_hash_ = 1469598103934665603ull;
  uint64_t event_hash_ = 1469598103934665603ull;
  uint64_t placement_hash_ = 1469598103934665603ull;
};

}  // namespace vtbench
}  // namespace firmament

#endif  // VTBENCH_DRIVER_H_
