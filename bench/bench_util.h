// Shared infrastructure for the per-figure benchmark harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (§7); see DESIGN.md §4 for the experiment index. Because the
// paper's experiments ran on a 12,500-machine trace replay, every harness
// scales its cluster/workload down by default so the full suite completes in
// minutes; set FIRMAMENT_BENCH_SCALE=full for paper-scale runs.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/base/metrics.h"
#include "src/base/rng.h"
#include "src/core/cluster.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/network_aware_policy.h"
#include "src/core/quincy_policy.h"
#include "src/core/scheduler.h"
#include "src/sim/block_store.h"

namespace firmament {
namespace bench {

inline bool FullScale() {
  const char* env = std::getenv("FIRMAMENT_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

// Picks small- or full-scale variants of an experiment parameter.
template <typename T>
T Scaled(T small, T full) {
  return FullScale() ? full : small;
}

enum class PolicyKind { kQuincy, kLoadSpreading, kNetworkAware };

// A self-contained scheduler environment: cluster + policy + block store +
// scheduler, wired together with correct lifetimes.
class BenchEnv {
 public:
  BenchEnv(PolicyKind kind, int machines, int slots, FirmamentSchedulerOptions options = {},
           QuincyPolicyParams quincy_params = {}, uint64_t seed = 42,
           int machines_per_rack = 48)
      : rng_(seed) {
    if (kind == PolicyKind::kQuincy) {
      store_ = std::make_unique<BlockStore>(&cluster_, seed + 1);
    }
    switch (kind) {
      case PolicyKind::kQuincy:
        policy_ = std::make_unique<QuincyPolicy>(&cluster_, store_.get(), quincy_params);
        break;
      case PolicyKind::kLoadSpreading:
        policy_ = std::make_unique<LoadSpreadingPolicy>(&cluster_);
        break;
      case PolicyKind::kNetworkAware:
        policy_ = std::make_unique<NetworkAwarePolicy>(&cluster_);
        break;
    }
    scheduler_ = std::make_unique<FirmamentScheduler>(&cluster_, policy_.get(), options);
    RackId rack = kInvalidRackId;
    for (int m = 0; m < machines; ++m) {
      if (m % machines_per_rack == 0) {
        rack = cluster_.AddRack();
      }
      scheduler_->AddMachine(rack, MachineSpec{.slots = slots});
    }
  }

  ClusterState& cluster() { return cluster_; }
  BlockStore* store() { return store_.get(); }
  FirmamentScheduler& scheduler() { return *scheduler_; }
  FlowGraphManager& manager() { return scheduler_->graph_manager(); }
  FlowNetwork* network() { return scheduler_->graph_manager().network(); }
  Rng& rng() { return rng_; }

  // Submits one batch job of `tasks` tasks with locality-backed inputs.
  JobId SubmitBatchJob(int tasks, SimTime now, int64_t mean_input_bytes = 2'000'000'000) {
    std::vector<TaskDescriptor> descriptors(tasks);
    for (TaskDescriptor& task : descriptors) {
      task.runtime = static_cast<SimTime>(rng_.NextInt(30, 300)) * kMicrosPerSecond;
      if (store_ != nullptr && mean_input_bytes > 0) {
        task.input_size_bytes = rng_.NextInt(mean_input_bytes / 2, mean_input_bytes * 2);
        task.input_blocks = store_->AllocateInput(task.input_size_bytes);
      }
      task.bandwidth_request_mbps = rng_.NextInt(50, 500);
    }
    return scheduler_->SubmitJob(JobType::kBatch, 0, std::move(descriptors), now);
  }

  // Submits jobs and runs scheduling rounds until `utilization` of the
  // cluster's slots is occupied. Returns the simulated time reached.
  SimTime FillToUtilization(double utilization, SimTime now, int job_size = 40) {
    int64_t target = static_cast<int64_t>(utilization * static_cast<double>(cluster_.TotalSlots()));
    while (cluster_.UsedSlots() < target) {
      int64_t deficit = target - cluster_.UsedSlots();
      SubmitBatchJob(static_cast<int>(std::min<int64_t>(deficit, job_size)), now);
      now += 1000;
      scheduler_->RunSchedulingRound(now);
    }
    return now;
  }

  // One round of workload churn: completes `completions` random running
  // tasks and submits `arrivals` new tasks (as a few jobs).
  void Churn(int completions, int arrivals, SimTime now) {
    std::vector<TaskId> running;
    for (TaskId task : cluster_.LiveTasks()) {
      if (cluster_.task(task).state == TaskState::kRunning) {
        running.push_back(task);
      }
    }
    for (int i = 0; i < completions && !running.empty(); ++i) {
      size_t idx = rng_.NextUint64(running.size());
      scheduler_->CompleteTask(running[idx], now);
      running[idx] = running.back();
      running.pop_back();
    }
    while (arrivals > 0) {
      int job_size = static_cast<int>(std::min<int64_t>(arrivals, rng_.NextInt(1, 30)));
      SubmitBatchJob(job_size, now);
      arrivals -= job_size;
    }
  }

 private:
  ClusterState cluster_;
  std::unique_ptr<BlockStore> store_;
  std::unique_ptr<SchedulingPolicy> policy_;
  std::unique_ptr<FirmamentScheduler> scheduler_;
  Rng rng_;
};

// Prints a paper-style header for the figure being regenerated.
inline void PrintFigureHeader(const char* figure, const char* caption) {
  std::printf("\n=== %s: %s ===\n", figure, caption);
  std::printf("(scale: %s — set FIRMAMENT_BENCH_SCALE=full for paper-scale runs)\n",
              FullScale() ? "full" : "small");
}

inline void PrintSeriesRow(const char* label, double x, const Distribution& dist) {
  std::printf("%-24s x=%10.3f  mean=%9.4fs  %s\n", label, x,
              dist.empty() ? 0.0 : dist.Mean(), dist.empty() ? "(no samples)" : dist.BoxStats().c_str());
}

// Attaches the paper's box-plot statistics (Fig. 3 style: p1/p25/p50/p75/p99
// and max) to a benchmark's console row.
inline void ReportDistribution(benchmark::State& state, const Distribution& dist) {
  if (dist.empty()) {
    return;
  }
  state.counters["p1_s"] = dist.Percentile(0.01);
  state.counters["p25_s"] = dist.Percentile(0.25);
  state.counters["p50_s"] = dist.Median();
  state.counters["p75_s"] = dist.Percentile(0.75);
  state.counters["p99_s"] = dist.Percentile(0.99);
  state.counters["max_s"] = dist.Max();
  state.counters["mean_s"] = dist.Mean();
}

// Console reporter that also captures every run and, at exit, writes them as
// machine-readable JSON (BENCH_<figure>.json in the working directory),
// stamped with the host's CPU count and clock, so successive commits have a
// perf trajectory to diff against.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      captured_.push_back(run);
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return;
    }
    // Host stamp: a baseline diff is only meaningful against a run on a
    // comparable host, so the gate evaluator prints it next to nproc.
    const benchmark::CPUInfo& cpu = benchmark::CPUInfo::Get();
    std::fprintf(f, "{\n  \"scale\": \"%s\",\n  \"cpus\": %d,\n  \"mhz\": %.0f,\n",
                 FullScale() ? "full" : "small", cpu.num_cpus, cpu.cycles_per_second / 1e6);
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (size_t i = 0; i < captured_.size(); ++i) {
      const Run& run = captured_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"iterations\": %lld, \"real_time\": %.6g, "
                   "\"cpu_time\": %.6g, \"time_unit\": \"%s\"",
                   run.benchmark_name().c_str(), static_cast<long long>(run.iterations),
                   run.GetAdjustedRealTime(), run.GetAdjustedCPUTime(),
                   benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [name, counter] : run.counters) {
        std::fprintf(f, ", \"%s\": %.6g", name.c_str(), static_cast<double>(counter.value));
      }
      std::fprintf(f, "}%s\n", i + 1 < captured_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::string path_;
  std::vector<Run> captured_;
};

// Drop-in replacement for benchmark::RunSpecifiedBenchmarks() that tees
// results into BENCH_<figure>.json.
inline size_t RunBenchmarksWithJson(const char* figure) {
  JsonTeeReporter reporter(std::string("BENCH_") + figure + ".json");
  return benchmark::RunSpecifiedBenchmarks(&reporter);
}

}  // namespace bench
}  // namespace firmament

#endif  // BENCH_BENCH_UTIL_H_
