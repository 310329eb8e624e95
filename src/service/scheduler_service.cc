#include "src/service/scheduler_service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "src/base/check.h"

namespace firmament {

namespace {
// Idle wait between loop polls while a solve is in flight and the queues
// are empty; bounds the latency of noticing solve completion without
// burning a core. Producers cut the wait short via the loop signal.
constexpr auto kIdleWait = std::chrono::microseconds(100);
constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();
}  // namespace

SchedulerService::SchedulerService(FirmamentScheduler* scheduler, ServiceClock* clock,
                                   SchedulerServiceOptions options)
    : scheduler_(scheduler), clock_(clock), options_(options) {
  CHECK_GT(options_.admission.queue_shards, 0u);
  CHECK_GT(options_.admission.max_batch_tasks, 0u);
  if (options_.cells >= 2) {
    // Federated mode needs a cell policy factory.
    CHECK(options_.cell_policy_factory != nullptr);
    federation_ = std::make_unique<FederationCoordinator>(
        options_.cells, options_.cell_policy_factory, options_.federation);
    scheduler_ = nullptr;  // cells own their schedulers; no central one
  } else {
    CHECK(scheduler_ != nullptr);
  }
  shards_.reserve(options_.admission.queue_shards);
  for (size_t i = 0; i < options_.admission.queue_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SchedulerService::~SchedulerService() {
  if (running_) {
    Stop();
  }
}

void SchedulerService::set_on_placed(
    std::function<void(TaskId, MachineId, SimTime)> fn) {
  CHECK(!running_);
  on_placed_ = std::move(fn);
}

void SchedulerService::set_on_admitted(
    std::function<void(uint64_t, JobId, const std::vector<TaskId>&)> fn) {
  CHECK(!running_);
  on_admitted_ = std::move(fn);
}

void SchedulerService::set_on_machine_removed(std::function<void(MachineId)> fn) {
  CHECK(!running_);
  on_machine_removed_ = std::move(fn);
}

void SchedulerService::set_on_round(std::function<void(const SchedulerRoundResult&)> fn) {
  CHECK(!running_);
  on_round_ = std::move(fn);
}

void SchedulerService::Enqueue(ServiceEvent event) {
  size_t tasks = event.tasks.size();
  size_t shard = next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  {
    std::unique_lock<std::mutex> lock(shards_[shard]->mutex);
    shards_[shard]->queue.push_back(std::move(event));
  }
  queued_events_.fetch_add(1, std::memory_order_release);
  queued_tasks_.fetch_add(tasks, std::memory_order_release);
  loop_cv_.notify_one();
}

uint64_t SchedulerService::Submit(JobType type, int32_t priority,
                                  std::vector<TaskDescriptor> tasks) {
  CHECK(!tasks.empty());
  counts_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  counts_.tasks_submitted.fetch_add(tasks.size(), std::memory_order_relaxed);
  uint64_t seq = next_submit_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  ServiceEvent event;
  event.kind = ServiceEvent::Kind::kSubmitJob;
  event.enqueue_time = clock_->Now();
  event.wall_enqueue = std::chrono::steady_clock::now();
  event.submit_seq = seq;
  event.type = type;
  event.priority = priority;
  event.tasks = std::move(tasks);
  Enqueue(std::move(event));
  return seq;
}

void SchedulerService::Complete(TaskId task) {
  counts_.completions_submitted.fetch_add(1, std::memory_order_relaxed);
  ServiceEvent event;
  event.kind = ServiceEvent::Kind::kCompleteTask;
  event.enqueue_time = clock_->Now();
  event.task = task;
  Enqueue(std::move(event));
}

MachineId SchedulerService::AddMachine(RackId rack, const MachineSpec& spec) {
  counts_.machine_adds_submitted.fetch_add(1, std::memory_order_relaxed);
  if (!running_) {
    // Bootstrap: the caller owns the loop's role; apply inline. The
    // scheduler stages the graph half itself if a manual round is open.
    if (federation_ != nullptr) {
      return federation_->AddMachine(ResolveRack(rack), spec);
    }
    return scheduler_->AddMachine(ResolveRack(rack), spec);
  }
  // Ids are minted by the cluster on the loop thread; block for the
  // admission so the caller gets a real id to address later events to.
  auto pending = std::make_shared<PendingMachineAdd>();
  ServiceEvent event;
  event.kind = ServiceEvent::Kind::kAddMachine;
  event.enqueue_time = clock_->Now();
  event.rack = rack;
  event.spec = spec;
  event.pending_add = pending;
  Enqueue(std::move(event));
  std::unique_lock<std::mutex> lock(pending->mutex);
  pending->cv.wait(lock, [&] { return pending->done; });
  return pending->id;
}

void SchedulerService::RemoveMachine(MachineId machine) {
  counts_.machine_removals_submitted.fetch_add(1, std::memory_order_relaxed);
  ServiceEvent event;
  event.kind = ServiceEvent::Kind::kRemoveMachine;
  event.enqueue_time = clock_->Now();
  event.machine = machine;
  Enqueue(std::move(event));
}

bool SchedulerService::ApplyEvent(ServiceEvent& event) {
  // Events apply at their producer-side enqueue timestamps: submit times
  // (and so unscheduled-cost ramps and latency samples) are independent of
  // when the admission policy got around to the batch.
  const SimTime now = event.enqueue_time;
  bool needs_round = true;
  switch (event.kind) {
    case ServiceEvent::Kind::kSubmitJob: {
      TemplateInstallResult install;
      JobId job;
      std::vector<TaskId> federated_ids;
      const std::vector<TaskId>* ids;
      if (federation_ != nullptr) {
        // The coordinator routes the job to a cell and reports global ids
        // (and install deltas already translated to global).
        job = federation_->SubmitJob(event.type, event.priority, std::move(event.tasks),
                                     now, &install, &federated_ids);
        ids = &federated_ids;
      } else {
        job = scheduler_->SubmitJob(event.type, event.priority, std::move(event.tasks),
                                    now, &install);
        ids = &scheduler_->cluster().job(job).tasks;
      }
      {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        for (TaskId task : *ids) {
          pending_place_.emplace(task, PendingPlace{event.enqueue_time, event.wall_enqueue});
        }
      }
      counts_.tasks_admitted.fetch_add(ids->size(), std::memory_order_relaxed);
      if (install.eligible) {
        (install.hit ? counts_.template_hits : counts_.template_misses)
            .fetch_add(1, std::memory_order_relaxed);
        if (install.validation_failed) {
          counts_.template_validation_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (on_admitted_) {
        on_admitted_(event.submit_seq, job, *ids);
      }
      if (install.installed) {
        // Template hit: the whole job is already placed; no round needed for
        // it. Book the placements now — callbacks fire in the same
        // admitted-then-placed order a round would produce.
        needs_round = false;
        const SimTime placed_at = clock_->Now();
        for (const SchedulingDelta& delta : install.deltas) {
          BookPlacement(delta.task, delta.to, placed_at);
        }
      }
      break;
    }
    case ServiceEvent::Kind::kCompleteTask: {
      bool fresh;
      if (federation_ != nullptr) {
        fresh = federation_->IsTaskRunning(event.task);
        federation_->CompleteTask(event.task, now);
      } else {
        const ClusterState& cluster = scheduler_->cluster();
        fresh = cluster.HasTask(event.task) &&
                cluster.task(event.task).state == TaskState::kRunning;
        scheduler_->CompleteTask(event.task, now);
      }
      (fresh ? counts_.completions_applied : counts_.completions_ignored)
          .fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case ServiceEvent::Kind::kAddMachine: {
      MachineId id = federation_ != nullptr
                         ? federation_->AddMachine(ResolveRack(event.rack), event.spec)
                         : scheduler_->AddMachine(ResolveRack(event.rack), event.spec);
      std::unique_lock<std::mutex> lock(event.pending_add->mutex);
      event.pending_add->id = id;
      event.pending_add->done = true;
      event.pending_add->cv.notify_all();
      break;
    }
    case ServiceEvent::Kind::kRemoveMachine: {
      std::function<void()> on_removed;
      if (on_machine_removed_) {
        MachineId machine = event.machine;
        on_removed = [this, machine] { on_machine_removed_(machine); };
      }
      if (federation_ != nullptr) {
        federation_->RemoveMachine(event.machine, now, std::move(on_removed));
      } else {
        scheduler_->RemoveMachine(event.machine, now, std::move(on_removed));
      }
      break;
    }
  }
  counts_.events_admitted.fetch_add(1, std::memory_order_relaxed);
  return needs_round;
}

void SchedulerService::BookPlacement(TaskId task, MachineId machine, SimTime now) {
  bool first = false;
  {
    std::unique_lock<std::mutex> lock(stats_mutex_);
    auto it = pending_place_.find(task);
    if (it != pending_place_.end()) {
      first = true;
      latency_.Add(static_cast<double>(now - it->second.enqueue) / 1e6);
      wall_latency_.Add(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      it->second.wall_enqueue)
                            .count());
      pending_place_.erase(it);
    }
  }
  (first ? counts_.tasks_placed : counts_.re_placements)
      .fetch_add(1, std::memory_order_relaxed);
  if (on_placed_) {
    on_placed_(task, machine, now);
  }
}

RackId SchedulerService::ResolveRack(RackId rack) {
  if (rack != kInvalidRackId) {
    return rack;
  }
  if (auto_rack_ == kInvalidRackId || auto_rack_fill_ >= options_.machines_per_rack) {
    auto_rack_ = federation_ != nullptr ? federation_->AddRack()
                                        : scheduler_->cluster().AddRack();
    auto_rack_fill_ = 0;
  }
  ++auto_rack_fill_;
  return auto_rack_;
}

SimTime SchedulerService::OldestEnqueue() {
  SimTime oldest = kNoEvent;
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    if (!shard->queue.empty()) {
      oldest = std::min(oldest, shard->queue.front().enqueue_time);
    }
  }
  return oldest;
}

size_t SchedulerService::DrainAdmission(bool force) {
  if (queued_events_.load(std::memory_order_acquire) == 0) {
    return 0;
  }
  const AdmissionPolicy& policy = options_.admission;
  if (!force) {
    bool size_due = queued_tasks_.load(std::memory_order_acquire) >= policy.max_batch_tasks;
    bool latency_due = policy.max_batch_latency_us == 0;
    if (!size_due && !latency_due) {
      SimTime oldest = OldestEnqueue();
      latency_due =
          oldest != kNoEvent && clock_->Now() >= oldest + policy.max_batch_latency_us;
    }
    if (!size_due && !latency_due) {
      return 0;  // window still open: keep batching
    }
  }
  // Collect under the shard locks (shard-major, FIFO within a shard — with
  // one producer and round-robin sharding the order is deterministic),
  // apply unlocked so producers keep flowing.
  std::vector<ServiceEvent> batch;
  size_t batch_tasks = 0;
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    while (!shard->queue.empty()) {
      // The task cap bounds a round's batch; a single over-sized job still
      // admits whole (jobs are atomic).
      if (!force && batch_tasks >= policy.max_batch_tasks) {
        break;
      }
      batch.push_back(std::move(shard->queue.front()));
      shard->queue.pop_front();
      batch_tasks += batch.back().tasks.size();
    }
    if (!force && batch_tasks >= policy.max_batch_tasks) {
      break;
    }
  }
  if (batch.empty()) {
    return 0;
  }
  queued_events_.fetch_sub(batch.size(), std::memory_order_release);
  queued_tasks_.fetch_sub(batch_tasks, std::memory_order_release);
  bool needs_round = false;
  for (ServiceEvent& event : batch) {
    needs_round |= ApplyEvent(event);
  }
  // An all-template-hit batch leaves nothing for a round to do: its
  // placements are booked and no graph work is pending, so the solve
  // pipeline is bypassed entirely.
  if (needs_round) {
    pending_round_work_ = true;
  }
  return batch.size();
}

void SchedulerService::StartServiceRound() {
  pending_round_work_ = false;
  if (federation_ != nullptr) {
    // Federated rounds are synchronous from the loop's point of view: the
    // cells' solves overlap each other (each on its own scheduler's dispatch
    // worker), not ingest, so the pipeline knob does not apply.
    FederationRoundResult round = federation_->RunRound(clock_->Now());
    AccountRound(round.merged);
    if (round.needs_followup) {
      pending_round_work_ = true;
    }
    return;
  }
  if (options_.pipeline) {
    scheduler_->StartRoundAsync(clock_->Now());
  } else {
    scheduler_->StartRound(clock_->Now());
    FinishRound();
  }
}

void SchedulerService::AccountRound(const SchedulerRoundResult& result) {
  const SimTime now = clock_->Now();
  counts_.rounds.fetch_add(1, std::memory_order_relaxed);
  if (result.outcome == SolveOutcome::kDegraded) {
    counts_.degraded_rounds.fetch_add(1, std::memory_order_relaxed);
    // Staged events carried forward inside ApplyRound; admitted tasks keep
    // their enqueue timestamps in pending_place_, so when they eventually
    // place the latency sample spans the degraded rounds they waited out.
    pending_round_work_ = true;
  }
  counts_.preemptions.fetch_add(result.tasks_preempted, std::memory_order_relaxed);
  counts_.migrations.fetch_add(result.tasks_migrated, std::memory_order_relaxed);
  if (result.tasks_preempted > 0) {
    pending_round_work_ = true;  // preempted tasks want re-placement
  }
  for (const SchedulingDelta& delta : result.deltas) {
    if (delta.kind != SchedulingDelta::Kind::kPlace) {
      continue;
    }
    BookPlacement(delta.task, delta.to, now);
  }
  if (on_round_) {
    on_round_(result);
  }
}

void SchedulerService::FinishRound() {
  AccountRound(scheduler_->ApplyRound(clock_->Now()));
}

bool SchedulerService::PumpInternal(bool block_finish) {
  if (RoundInFlight()) {
    // Round N is solving: this is exactly the window where ingest overlaps.
    size_t ingested = DrainAdmission(/*force=*/false);
    if (ingested > 0) {
      counts_.events_ingested_during_solve.fetch_add(ingested, std::memory_order_relaxed);
    }
    if (block_finish) {
      FinishRound();
      return true;
    }
    if (scheduler_->RoundSolveDone()) {
      FinishRound();
      return true;
    }
    return ingested > 0;
  }
  size_t applied = DrainAdmission(/*force=*/false);
  if (pending_round_work_) {
    StartServiceRound();
    return true;
  }
  return applied > 0;
}

bool SchedulerService::Pump() {
  CHECK(!running_);
  return PumpInternal(/*block_finish=*/true);
}

void SchedulerService::LoopThread() {
  std::unique_lock<std::mutex> lock(loop_mutex_);
  while (!stop_) {
    lock.unlock();
    bool progress = PumpInternal(/*block_finish=*/false);
    lock.lock();
    if (!progress && !stop_) {
      loop_cv_.wait_for(lock, kIdleWait);
    }
  }
}

void SchedulerService::Start() {
  CHECK(!running_);
  stop_ = false;
  running_ = true;
  loop_thread_ = std::thread([this] { LoopThread(); });
}

void SchedulerService::Stop() {
  CHECK(running_);
  {
    std::unique_lock<std::mutex> lock(loop_mutex_);
    stop_ = true;
  }
  loop_cv_.notify_all();
  loop_thread_.join();
  running_ = false;
  // Quiesce on this thread: finish the in-flight round, then force-admit
  // and schedule everything still queued. Admitted tasks may legitimately
  // remain waiting (no capacity); admission work may not.
  if (RoundInFlight()) {
    FinishRound();
  }
  size_t guard = 0;
  for (;;) {
    size_t applied = DrainAdmission(/*force=*/true);
    if (applied == 0 && !pending_round_work_) {
      break;
    }
    StartServiceRound();
    if (RoundInFlight()) {
      FinishRound();
    }
    // A pathological config (e.g. a solve budget that degrades every drain
    // round forever) must not hang shutdown.
    CHECK_LT(++guard, 100000u);
  }
}

ServiceCounters SchedulerService::counters() const {
  ServiceCounters snapshot;
  snapshot.jobs_submitted = counts_.jobs_submitted.load(std::memory_order_relaxed);
  snapshot.tasks_submitted = counts_.tasks_submitted.load(std::memory_order_relaxed);
  snapshot.completions_submitted =
      counts_.completions_submitted.load(std::memory_order_relaxed);
  snapshot.machine_adds_submitted =
      counts_.machine_adds_submitted.load(std::memory_order_relaxed);
  snapshot.machine_removals_submitted =
      counts_.machine_removals_submitted.load(std::memory_order_relaxed);
  snapshot.events_admitted = counts_.events_admitted.load(std::memory_order_relaxed);
  snapshot.tasks_admitted = counts_.tasks_admitted.load(std::memory_order_relaxed);
  snapshot.completions_applied = counts_.completions_applied.load(std::memory_order_relaxed);
  snapshot.completions_ignored = counts_.completions_ignored.load(std::memory_order_relaxed);
  snapshot.rounds = counts_.rounds.load(std::memory_order_relaxed);
  snapshot.degraded_rounds = counts_.degraded_rounds.load(std::memory_order_relaxed);
  snapshot.tasks_placed = counts_.tasks_placed.load(std::memory_order_relaxed);
  snapshot.re_placements = counts_.re_placements.load(std::memory_order_relaxed);
  snapshot.preemptions = counts_.preemptions.load(std::memory_order_relaxed);
  snapshot.migrations = counts_.migrations.load(std::memory_order_relaxed);
  snapshot.events_ingested_during_solve =
      counts_.events_ingested_during_solve.load(std::memory_order_relaxed);
  snapshot.template_hits = counts_.template_hits.load(std::memory_order_relaxed);
  snapshot.template_misses = counts_.template_misses.load(std::memory_order_relaxed);
  snapshot.template_validation_failures =
      counts_.template_validation_failures.load(std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(stats_mutex_);
    snapshot.pending_first_placements = pending_place_.size();
  }
  return snapshot;
}

Distribution SchedulerService::submit_to_placement_latency() const {
  std::unique_lock<std::mutex> lock(stats_mutex_);
  return latency_;
}

Distribution SchedulerService::submit_to_placement_wall_latency() const {
  std::unique_lock<std::mutex> lock(stats_mutex_);
  return wall_latency_;
}

}  // namespace firmament
