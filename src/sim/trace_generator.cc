#include "src/sim/trace_generator.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace firmament {

namespace {

constexpr SimTime kServiceRuntime = 1'000'000'000'000'000ULL;  // effectively forever
constexpr SimTime kMinTaskRuntime = 1'000;                     // 1 ms floor

}  // namespace

TraceGenerator::TraceGenerator(TraceGeneratorParams params)
    : params_(params), rng_(params.seed) {
  CHECK_GT(params_.num_machines, 0);
  CHECK_GT(params_.speedup, 0.0);
  // Estimate the mean job size empirically (the bounded Pareto mean is
  // tail-dominated for alpha < 1, so a closed form is fragile here).
  Rng pilot = rng_.Fork();
  double total = 0;
  constexpr int kPilotSamples = 20'000;
  for (int i = 0; i < kPilotSamples; ++i) {
    total += std::max(
        1.0, std::floor(pilot.NextBoundedPareto(1.0, params_.max_job_tasks, params_.job_size_alpha)));
  }
  mean_batch_tasks_per_job_ = total / kPilotSamples;

  double mean_runtime_seconds =
      std::exp(params_.batch_runtime_log_mean +
               params_.batch_runtime_log_sigma * params_.batch_runtime_log_sigma / 2.0) /
      params_.speedup;
  double batch_task_target = params_.tasks_per_machine * params_.num_machines *
                             (1.0 - params_.service_task_fraction);
  // Little's law: steady tasks = arrival_rate * tasks_per_job * runtime.
  batch_jobs_per_second_ =
      batch_task_target / (mean_batch_tasks_per_job_ * mean_runtime_seconds);
}

int TraceGenerator::SampleJobSize() {
  double sample =
      rng_.NextBoundedPareto(1.0, params_.max_job_tasks, params_.job_size_alpha);
  return std::max(1, static_cast<int>(sample));
}

TraceJobSpec TraceGenerator::MakeBatchJob(SimTime arrival) {
  TraceJobSpec job;
  job.arrival = arrival;
  job.type = JobType::kBatch;
  job.priority = 0;
  int num_tasks = SampleJobSize();
  job.task_runtimes.reserve(num_tasks);
  job.task_input_bytes.reserve(num_tasks);
  for (int i = 0; i < num_tasks; ++i) {
    double seconds = rng_.NextLogNormal(params_.batch_runtime_log_mean,
                                        params_.batch_runtime_log_sigma) /
                     params_.speedup;
    SimTime runtime = std::max<SimTime>(
        kMinTaskRuntime, static_cast<SimTime>(seconds * kMicrosPerSecond));
    job.task_runtimes.push_back(runtime);
    // Input size estimated from (unaccelerated) runtime, as §7.1 does from
    // the industry distributions in [8].
    int64_t bytes = static_cast<int64_t>(seconds * params_.speedup *
                                         static_cast<double>(params_.input_bytes_per_runtime_second));
    job.task_input_bytes.push_back(std::min(bytes, params_.max_input_bytes));
    job.task_bandwidth_mbps.push_back(rng_.NextInt(50, 500));
  }
  return job;
}

std::vector<TraceJobSpec> TraceGenerator::Generate(SimTime horizon) {
  std::vector<TraceJobSpec> jobs;

  // Long-running service jobs fill their share of the steady state at t=0.
  int64_t service_tasks = static_cast<int64_t>(params_.tasks_per_machine *
                                               params_.num_machines *
                                               params_.service_task_fraction);
  while (service_tasks > 0) {
    TraceJobSpec job;
    job.arrival = 0;
    job.type = JobType::kService;
    job.priority = 1;  // service outranks batch (§4.2)
    int num_tasks = static_cast<int>(
        std::min<int64_t>(service_tasks, 1 + static_cast<int64_t>(SampleJobSize() / 4)));
    for (int i = 0; i < num_tasks; ++i) {
      job.task_runtimes.push_back(kServiceRuntime);
      job.task_input_bytes.push_back(0);
      job.task_bandwidth_mbps.push_back(rng_.NextInt(100, 1'000));
    }
    service_tasks -= num_tasks;
    jobs.push_back(std::move(job));
  }

  // Poisson batch arrivals.
  double mean_interarrival_us =
      kMicrosPerSecond / batch_jobs_per_second_;
  SimTime now = 0;
  for (;;) {
    now += static_cast<SimTime>(
        std::max(1.0, rng_.NextExponential(mean_interarrival_us)));
    if (now >= horizon) {
      break;
    }
    jobs.push_back(MakeBatchJob(now));
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const TraceJobSpec& a, const TraceJobSpec& b) { return a.arrival < b.arrival; });
  return jobs;
}

}  // namespace firmament
