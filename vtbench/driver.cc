#include "vtbench/driver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/base/check.h"
#include "src/trace/synthetic_trace.h"

namespace firmament {
namespace vtbench {

namespace {
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
// Admission round of a task the template fast path placed at admission.
constexpr uint64_t kInstalled = std::numeric_limits<uint64_t>::max();
enum CallTag : uint64_t { kTagSubmit = 1, kTagComplete, kTagAdd, kTagRemove, kTagAdmit };
}  // namespace

VirtualTimeDriver::VirtualTimeDriver(SchedulerService* service, ManualServiceClock* clock,
                                     const std::vector<TraceEvent>* events,
                                     DriverOptions options)
    : service_(service),
      clock_(clock),
      events_(events),
      options_(options),
      feedback_(options.backoff_base_us, options.backoff_cap_us),
      federated_(service->federation() != nullptr) {
  service_->set_on_admitted([this](uint64_t seq, JobId, const std::vector<TaskId>& tasks) {
    OnAdmitted(seq, tasks);
  });
  service_->set_on_placed(
      [this](TaskId task, MachineId machine, SimTime now) { OnPlaced(task, machine, now); });
  service_->set_on_round([this](const SchedulerRoundResult& result) { OnRound(result); });
}

void VirtualTimeDriver::Mix(uint64_t* hash, uint64_t value) const {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xff;
    *hash *= 1099511628211ull;
  }
}

BenchClock::time_point VirtualTimeDriver::CallStart() const {
  return traced_ ? BenchClock::now() : BenchClock::time_point{};
}

void VirtualTimeDriver::CallStop(BenchClock::time_point start) {
  if (traced_) {
    totals_.enqueue_ms += MillisSince(start, BenchClock::now());
    ++totals_.producer_calls;
  }
}

bool VirtualTimeDriver::InFlight() {
  return !federated_ && service_->scheduler().round_in_flight();
}

void VirtualTimeDriver::ResetWindow() {
  rounds_.clear();
  wait_rounds_.clear();
  totals_ = TraceTotals{};
}

size_t VirtualTimeDriver::waiting_lineages() const {
  size_t waiting = 0;
  for (const auto& [key, lineage] : lineages_) {
    waiting += lineage.phase == Phase::kQueued || lineage.phase == Phase::kWaiting;
  }
  return waiting;
}

// --- Service callbacks (run inside Pump, on this thread) -------------------

void VirtualTimeDriver::OnAdmitted(uint64_t seq, const std::vector<TaskId>& tasks) {
  const BenchClock::time_point start = CallStart();
  auto it = pending_admissions_.find(seq);
  CHECK(it != pending_admissions_.end());
  const std::vector<uint64_t>& keys = it->second;
  CHECK_EQ(keys.size(), tasks.size());
  // A task admitted while a solve is in flight is staged for the round
  // after it; counting that round as its first keeps "rounds waited"
  // independent of whether the admission overlapped a solve.
  const uint64_t first_round = round_seq_ + (InFlight() ? 1 : 0);
  Mix(&event_hash_, kTagAdmit);
  Mix(&event_hash_, tick_index_);
  for (size_t i = 0; i < keys.size(); ++i) {
    Mix(&event_hash_, tasks[i]);
    Lineage& lineage = lineages_.at(keys[i]);
    lineage.task = tasks[i];
    lineage.phase = Phase::kWaiting;
    lineage.admitted_round =
        service_->task_descriptor(tasks[i]).state == TaskState::kRunning ? kInstalled
                                                                          : first_round;
    task_to_key_[tasks[i]] = keys[i];
  }
  pending_admissions_.erase(it);
  if (traced_) {
    totals_.callback_ms += MillisSince(start, BenchClock::now());
  }
}

void VirtualTimeDriver::OnPlaced(TaskId task, MachineId machine, SimTime now) {
  const BenchClock::time_point start = CallStart();
  auto key_it = task_to_key_.find(task);
  if (key_it != task_to_key_.end()) {
    Lineage& lineage = lineages_.at(key_it->second);
    if (lineage.phase == Phase::kWaiting) {
      Mix(&placement_hash_, task);
      Mix(&placement_hash_, machine);
      wait_rounds_.push_back(lineage.admitted_round == kInstalled
                                 ? 0.0
                                 : static_cast<double>(round_seq_ + 1 - lineage.admitted_round));
      ActivatePlacement(key_it->second, lineage, now);
    }
  }
  if (traced_) {
    totals_.callback_ms += MillisSince(start, BenchClock::now());
  }
}

void VirtualTimeDriver::OnRound(const SchedulerRoundResult& result) {
  const BenchClock::time_point start = CallStart();
  ++round_seq_;
  round_applied_in_pump_ = true;
  RoundRecord record;
  if (traced_) {
    record.update_ms = static_cast<double>(result.graph_update_us) / 1e3;
    record.solve_ms = static_cast<double>(result.algorithm_runtime_us) / 1e3;
    record.apply_ms = static_cast<double>(result.total_runtime_us) / 1e3;
    record.view_prep_ms = static_cast<double>(result.solver_stats.view_prep_us) / 1e3;
    // Per-leg and per-phase stats come from each stack that ran this round:
    // the one scheduler, or every cell whose solve count moved.
    auto add_stack = [&record](FirmamentScheduler& scheduler) {
      const RoundStats& race = scheduler.solver().last_round();
      record.refine_ms += static_cast<double>(race.price_refine_us) / 1e3;
      record.dispatch_us += static_cast<double>(race.winner.dispatch_us);
      record.relax_iters += static_cast<double>(race.relaxation.iterations);
      record.cs_iters += static_cast<double>(race.cost_scaling.iterations);
      record.relax_wins += race.winner_algorithm.find("relaxation") != std::string::npos;
      const UpdateRoundStats& update = scheduler.graph_manager().last_update_stats();
      record.tasks_refreshed += update.tasks_refreshed;
      record.class_hits += update.class_cache_hits;
      record.class_misses += update.class_cache_misses;
      ++record.cells_run;
    };
    if (federated_) {
      FederationCoordinator& federation = *service_->federation();
      cell_solve_counts_.resize(federation.num_cells(), 0);
      for (size_t c = 0; c < federation.num_cells(); ++c) {
        FirmamentScheduler& scheduler = federation.cell(c).scheduler();
        const size_t solves = scheduler.algorithm_runtime().count();
        if (solves != cell_solve_counts_[c]) {
          cell_solve_counts_[c] = solves;
          add_stack(scheduler);
        }
      }
    } else {
      add_stack(service_->scheduler());
    }
  }
  rounds_.push_back(record);
  if (traced_) {
    totals_.callback_ms += MillisSince(start, BenchClock::now());
  }
}

// --- Lineage state machine (TraceReplayDriver's mapping) -------------------

void VirtualTimeDriver::ActivatePlacement(uint64_t key, Lineage& lineage, SimTime now) {
  lineage.phase = Phase::kRunning;
  ReplayFeedback::TaskInfo info;
  info.input_bytes = lineage.input_bytes;
  info.bandwidth_mbps = lineage.bandwidth_mbps;
  info.attempts = lineage.attempts;
  info.tag = key;
  feedback_.OnPlaced(lineage.task, info);
  if (lineage.pending_kill) {
    lineage.pending_kill = false;
    --pending_kill_or_finish_;
    KillPlaced(key, lineage, now);
    return;
  }
  if (lineage.has_pending_finish) {
    lineage.has_pending_finish = false;
    --pending_kill_or_finish_;
    lineage.completion_scheduled = true;
    feedback_.ScheduleCompletion(lineage.task, std::max(now, lineage.pending_finish));
  }
}

void VirtualTimeDriver::KillPlaced(uint64_t key, Lineage& lineage, SimTime now) {
  ReplayFeedback::TaskInfo info;
  if (!feedback_.Kill(lineage.task, &info)) {
    info.input_bytes = lineage.input_bytes;
    info.bandwidth_mbps = lineage.bandwidth_mbps;
    info.attempts = lineage.attempts;
    info.tag = key;
  }
  Mix(&event_hash_, kTagComplete);
  Mix(&event_hash_, tick_index_);
  Mix(&event_hash_, key);
  const BenchClock::time_point start = CallStart();
  service_->Complete(lineage.task);
  CallStop(start);
  task_to_key_.erase(lineage.task);
  lineage.task = kInvalidTaskId;
  lineage.phase = Phase::kBackoff;
  lineage.completion_scheduled = false;
  ++lineage.attempts;
  feedback_.QueueResubmit(now, info);
}

TaskDescriptor VirtualTimeDriver::MakeTask(uint64_t key, int64_t input_bytes,
                                           int64_t bandwidth_mbps) const {
  TaskDescriptor task;
  task.input_size_bytes = input_bytes;
  task.bandwidth_request_mbps = bandwidth_mbps;
  if (options_.input_blocks != nullptr) {
    auto it = options_.input_blocks->find(key);
    if (it != options_.input_blocks->end()) {
      task.input_blocks = it->second;
    }
  }
  return task;
}

void VirtualTimeDriver::SubmitLineages(JobType type, int32_t priority,
                                       std::vector<TaskDescriptor> tasks,
                                       std::vector<uint64_t> keys) {
  Mix(&event_hash_, kTagSubmit);
  Mix(&event_hash_, tick_index_);
  Mix(&event_hash_, static_cast<uint64_t>(type));
  Mix(&event_hash_, static_cast<uint64_t>(static_cast<int64_t>(priority)));
  for (uint64_t key : keys) {
    Mix(&event_hash_, key);
  }
  task_attempts_ += tasks.size();
  const BenchClock::time_point start = CallStart();
  uint64_t seq = service_->Submit(type, priority, std::move(tasks));
  CallStop(start);
  pending_admissions_.emplace(seq, std::move(keys));
}

void VirtualTimeDriver::FlushSubmitBatch() {
  if (!batch_.active) {
    return;
  }
  batch_.active = false;
  Mix(&trace_call_hash_, kTagSubmit);
  Mix(&trace_call_hash_, tick_index_);
  for (uint64_t key : batch_.keys) {
    Mix(&trace_call_hash_, key);
  }
  SubmitLineages(batch_.type, batch_.priority, std::move(batch_.tasks), std::move(batch_.keys));
  batch_.tasks.clear();
  batch_.keys.clear();
}

void VirtualTimeDriver::HandleTaskEvent(const TraceEvent& event) {
  const uint64_t key = Key(event.job_id, event.task_index);
  switch (event.code) {
    case kTaskSubmit: {
      if (lineages_.count(key) != 0) {
        ++counts_.duplicate_submits;
        return;
      }
      if (withhold_submits_) {
        ++counts_.withheld_submits;
        return;
      }
      ++counts_.submits;
      Lineage lineage;
      lineage.type = event.scheduling_class >= 3 ? JobType::kService : JobType::kBatch;
      lineage.priority = event.priority;
      lineage.input_bytes = static_cast<int64_t>(event.ram_request * kTraceFullMachineInputBytes);
      lineage.bandwidth_mbps =
          static_cast<int64_t>(event.cpu_request * kTraceFullMachineBandwidthMbps);
      if (batch_.active && (batch_.job_id != event.job_id || batch_.time != event.time)) {
        FlushSubmitBatch();
      }
      if (!batch_.active) {
        batch_.active = true;
        batch_.job_id = event.job_id;
        batch_.time = event.time;
        batch_.type = lineage.type;
        batch_.priority = lineage.priority;
      }
      batch_.tasks.push_back(MakeTask(key, lineage.input_bytes, lineage.bandwidth_mbps));
      batch_.keys.push_back(key);
      lineages_.emplace(key, lineage);
      return;
    }
    case kTaskSchedule:
      ++counts_.schedule_rows;
      return;
    case kTaskUpdatePending:
    case kTaskUpdateRunning:
      ++counts_.task_updates;
      return;
    case kTaskFinish: {
      FlushSubmitBatch();
      auto it = lineages_.find(key);
      if (it == lineages_.end()) {
        ++counts_.unknown_lineage_rows;
        return;
      }
      Lineage& lineage = it->second;
      ++counts_.finishes;
      if (lineage.phase == Phase::kRunning && !lineage.completion_scheduled) {
        lineage.completion_scheduled = true;
        feedback_.ScheduleCompletion(lineage.task, event.time);
      } else if (lineage.phase != Phase::kRunning && !lineage.has_pending_finish) {
        lineage.has_pending_finish = true;
        lineage.pending_finish = event.time;
        ++pending_kill_or_finish_;
      }
      return;
    }
    case kTaskEvict:
    case kTaskFail:
    case kTaskKill:
    case kTaskLost: {
      FlushSubmitBatch();
      auto it = lineages_.find(key);
      if (it == lineages_.end()) {
        ++counts_.unknown_lineage_rows;
        return;
      }
      Lineage& lineage = it->second;
      switch (lineage.phase) {
        case Phase::kRunning:
          ++counts_.kills;
          KillPlaced(key, lineage, event.time);
          break;
        case Phase::kQueued:
        case Phase::kWaiting:
          if (lineage.pending_kill) {
            ++counts_.redundant_kills;
            ++lineage.attempts;
            break;
          }
          ++counts_.kills;
          lineage.pending_kill = true;
          ++pending_kill_or_finish_;
          break;
        case Phase::kBackoff:
          ++counts_.redundant_kills;
          ++lineage.attempts;
          break;
      }
      return;
    }
    default:
      ++counts_.unknown_lineage_rows;
      return;
  }
}

void VirtualTimeDriver::HandleMachineEvent(const TraceEvent& event) {
  switch (event.code) {
    case kMachineAdd: {
      if (machines_.count(event.machine_id) != 0) {
        ++counts_.duplicate_machine_adds;
        return;
      }
      MachineSpec spec;
      spec.slots = std::max(1, static_cast<int32_t>(std::lround(
                                   event.cpu_capacity * options_.slots_at_full_capacity)));
      spec.nic_bandwidth_mbps = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 event.cpu_capacity * kTraceFullMachineBandwidthMbps)));
      for (uint64_t* hash : {&trace_call_hash_, &event_hash_}) {
        Mix(hash, kTagAdd);
        Mix(hash, tick_index_);
        Mix(hash, event.machine_id);
      }
      const BenchClock::time_point start = CallStart();
      MachineId id = service_->AddMachine(kInvalidRackId, spec);
      CallStop(start);
      machines_.emplace(event.machine_id, id);
      ++counts_.machine_adds;
      return;
    }
    case kMachineRemove: {
      auto it = machines_.find(event.machine_id);
      if (it == machines_.end()) {
        ++counts_.unknown_machine_removes;
        return;
      }
      for (uint64_t* hash : {&trace_call_hash_, &event_hash_}) {
        Mix(hash, kTagRemove);
        Mix(hash, tick_index_);
        Mix(hash, event.machine_id);
      }
      const BenchClock::time_point start = CallStart();
      service_->RemoveMachine(it->second);
      CallStop(start);
      machines_.erase(it);
      ++counts_.machine_removes;
      return;
    }
    default:
      ++counts_.machine_updates;
      return;
  }
}

void VirtualTimeDriver::DeliverDue(SimTime upto) {
  for (;;) {
    TaskId task = kInvalidTaskId;
    if (feedback_.PopDueCompletion(upto, &task)) {
      auto key_it = task_to_key_.find(task);
      Mix(&event_hash_, kTagComplete);
      Mix(&event_hash_, tick_index_);
      Mix(&event_hash_, key_it != task_to_key_.end() ? key_it->second : 0);
      const BenchClock::time_point start = CallStart();
      service_->Complete(task);
      CallStop(start);
      if (key_it != task_to_key_.end()) {
        lineages_.erase(key_it->second);
        task_to_key_.erase(key_it);
      }
      continue;
    }
    ReplayFeedback::TaskInfo info;
    if (feedback_.PopDueResubmit(upto, &info)) {
      auto it = lineages_.find(info.tag);
      if (it != lineages_.end() && it->second.phase == Phase::kBackoff) {
        Lineage& lineage = it->second;
        lineage.attempts = std::max(lineage.attempts, info.attempts);
        lineage.phase = Phase::kQueued;
        std::vector<TaskDescriptor> tasks;
        tasks.push_back(MakeTask(info.tag, lineage.input_bytes, lineage.bandwidth_mbps));
        SubmitLineages(lineage.type, lineage.priority, std::move(tasks), {info.tag});
      }
      continue;
    }
    return;
  }
}

void VirtualTimeDriver::Feed(SimTime upto) {
  const std::vector<TraceEvent>& events = *events_;
  for (;;) {
    SimTime due = std::min(feedback_.NextCompletionDue(), feedback_.NextResubmitDue());
    SimTime next = next_event_ < events.size() ? events[next_event_].time : kNever;
    if (due <= upto && due <= next) {
      FlushSubmitBatch();
      DeliverDue(due);
      continue;
    }
    if (next > upto) {
      break;
    }
    const TraceEvent& event = events[next_event_++];
    ++counts_.events_consumed;
    if (event.table == TraceTable::kMachineEvents) {
      FlushSubmitBatch();
      HandleMachineEvent(event);
    } else {
      HandleTaskEvent(event);
    }
  }
  FlushSubmitBatch();
}

// --- Pumping -------------------------------------------------------------

void VirtualTimeDriver::PumpTick() {
  for (;;) {
    if (traced_ && InFlight()) {
      // The traced run joins the solve before the finishing Pump so the
      // join shows as its own span; admission in that Pump still stages
      // (the round stays in flight until ApplyRound), so placements match
      // the untraced run.
      BenchClock::time_point start = BenchClock::now();
      service_->scheduler().WaitRound();
      totals_.wait_ms += MillisSince(start, BenchClock::now());
    }
    round_applied_in_pump_ = false;
    const BenchClock::time_point start = BenchClock::now();
    const bool progress = service_->Pump();
    const BenchClock::time_point end = BenchClock::now();
    if (traced_) {
      totals_.pump_ms += MillisSince(start, end);
    }
    if (round_applied_in_pump_) {
      // Centralized: the round started in an earlier Pump (round_start_);
      // federated rounds start and apply inside one Pump.
      rounds_.back().wall_ms = MillisSince(federated_ ? start : round_start_, end);
    }
    if (InFlight()) {
      round_start_ = start;
      return;  // leave the solve running across the tick boundary
    }
    if (!progress) {
      return;
    }
  }
}

void VirtualTimeDriver::Tick(SimTime tick_us) {
  const BenchClock::time_point start = CallStart();
  clock_->AdvanceTo(now_);
  Feed(now_);
  PumpTick();
  ++tick_index_;
  now_ += tick_us;
  if (traced_) {
    totals_.tick_ms += MillisSince(start, BenchClock::now());
  }
}

void VirtualTimeDriver::RunTicks(SimTime tick_us, uint64_t ticks) {
  CHECK_GT(tick_us, 0u);
  for (uint64_t i = 0; i < ticks; ++i) {
    Tick(tick_us);
  }
}

void VirtualTimeDriver::Settle() {
  const BenchClock::time_point start = CallStart();
  for (size_t guard = 0;; ++guard) {
    CHECK_LT(guard, 100000u);
    PumpTick();
    if (!InFlight()) {
      break;
    }
  }
  if (traced_) {
    totals_.tick_ms += MillisSince(start, BenchClock::now());
  }
}

void VirtualTimeDriver::Drain(SimTime tick_us, uint64_t max_ticks) {
  withhold_submits_ = true;
  Settle();
  for (uint64_t i = 0; i < max_ticks; ++i) {
    if (service_->counters().pending_first_placements == 0 &&
        feedback_.NextResubmitDue() == ReplayFeedback::kNoDue && waiting_lineages() == 0) {
      break;
    }
    Tick(tick_us);
    Settle();
  }
}

}  // namespace vtbench
}  // namespace firmament
