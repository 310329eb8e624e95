// Synthetic Google-trace workload generator (§7.1 substitution).
//
// The paper replays the public 2011 Google trace from a 12,500-machine
// cluster [30]. The trace is not redistributable with this repository, so we
// synthesize a workload calibrated to its published statistics:
//  * heavy-tailed job sizes — most jobs are small, but ~1.2% have more than
//    1,000 tasks and a few exceed 20,000 (§4.3);
//  * a batch/service split following Omega's priority-based classification
//    [32, §2.1]: service jobs are long-running, batch jobs finite;
//  * batch task runtimes drawn log-normally (median minutes, long tail);
//  * batch task input sizes estimated as a function of runtime using typical
//    industry distributions [8], as the paper itself does (§7.1);
//  * Poisson job arrivals with the rate chosen by Little's law so the steady
//    state hits the configured tasks-per-machine density (~12 at Google
//    scale: 150k tasks on 12.5k machines).
//
// A speedup factor divides runtimes and interarrival times (Fig. 18).

#ifndef SRC_SIM_TRACE_GENERATOR_H_
#define SRC_SIM_TRACE_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/core/types.h"

namespace firmament {

struct TraceJobSpec {
  SimTime arrival = 0;
  JobType type = JobType::kBatch;
  int32_t priority = 0;
  // Per-task runtimes (microseconds) and input sizes (bytes).
  std::vector<SimTime> task_runtimes;
  std::vector<int64_t> task_input_bytes;
  std::vector<int64_t> task_bandwidth_mbps;
};

struct TraceGeneratorParams {
  uint64_t seed = 42;
  int num_machines = 100;
  int slots_per_machine = 12;
  // Steady-state live tasks per machine (Google: ~150k tasks / 12.5k
  // machines = 12); used with Little's law to derive the arrival rate.
  double tasks_per_machine = 6.0;
  // Fraction of steady-state tasks belonging to long-running service jobs.
  double service_task_fraction = 0.33;
  // Job size distribution: bounded Pareto over [1, max_job_tasks]. The
  // default shape produces ~1-2% of jobs above 1,000 tasks.
  double job_size_alpha = 0.55;
  int max_job_tasks = 20'000;
  // Batch runtime log-normal (of seconds).
  double batch_runtime_log_mean = 4.2;  // e^4.2 ~ 67s median
  double batch_runtime_log_sigma = 1.1;
  // Input bytes per second of runtime (industry MapReduce-style rates [8]).
  int64_t input_bytes_per_runtime_second = 20'000'000;
  int64_t max_input_bytes = 16'000'000'000;
  // Trace acceleration (Fig. 18): divides runtimes and interarrival times.
  double speedup = 1.0;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(TraceGeneratorParams params);

  // Generates all job arrivals in [0, horizon). Service jobs are emitted
  // first (at t=0, filling their share of the cluster); batch jobs follow a
  // Poisson process.
  std::vector<TraceJobSpec> Generate(SimTime horizon);

  // The derived batch job arrival rate (jobs/second), for reporting.
  double batch_jobs_per_second() const { return batch_jobs_per_second_; }
  double mean_batch_tasks_per_job() const { return mean_batch_tasks_per_job_; }

 private:
  TraceJobSpec MakeBatchJob(SimTime arrival);
  int SampleJobSize();

  TraceGeneratorParams params_;
  Rng rng_;
  double batch_jobs_per_second_ = 0;
  double mean_batch_tasks_per_job_ = 0;
};

}  // namespace firmament

#endif  // SRC_SIM_TRACE_GENERATOR_H_
