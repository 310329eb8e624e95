// Benchmark entry point: one run of one workload.
//
//   vtbench --workload locality|recurring|cells --seed N --seconds S
//           --trace 0|1 --data-dir DIR
//   vtbench --selftest --seconds S --data-dir DIR
//
// A run generates its inputs from the seed (untimed), then three times sets
// up a stack and replays a timed window of S / 3 * ticks_per_second ticks on
// it, drains, and checks the outputs. --trace 0 reports the median of each
// end-to-end metric over the three (for round_p50_ms and round_p99_ms, the
// percentiles of the per-round medians); --trace 1 adds a fourth, traced
// repetition and reports the per-layer metrics plus the tracing overhead
// against the untraced median. The last stdout line is the result object;
// earlier lines are an environment stamp and a human-readable summary.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/metrics.h"
#include "src/core/integrity_checker.h"
#include "vtbench/driver.h"
#include "vtbench/workloads.h"

#ifndef VTBENCH_BUILD_TYPE
#define VTBENCH_BUILD_TYPE "unknown"
#endif

namespace firmament {
namespace vtbench {
namespace {

// A run repeats set-up and window this many times on the same inputs and
// reports the median of each end-to-end metric, so a slow stretch of a
// shared host that covers one repetition does not move the result. The
// repetitions' set-ups are the ones setup_s takes the median of.
constexpr int kRepeats = 3;
// Drain bound: ticks of trace time after the window for kill/resubmit
// chains and waiting tasks to settle.
constexpr uint64_t kDrainTicks = 2400;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string data_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else {
      return false;
    }
  }
  return args->seconds > 0 && (args->selftest || !args->workload.empty());
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

// peak_rss_mb covers the repetitions, not input generation: once the inputs
// exist, freed heap goes back to the kernel and the kernel's resident
// high-water mark (VmHWM) is reset to the current resident set. Where
// /proc/self/clear_refs is not writable the process-lifetime getrusage peak
// is reported instead, and the stamp says so.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool written = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && written;
}

double PeakRssMb(bool reset) {
  if (reset) {
    if (std::FILE* file = std::fopen("/proc/self/status", "r")) {
      char line[256];
      double kib = -1;
      while (kib < 0 && std::fgets(line, sizeof(line), file) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
      }
      std::fclose(file);
      if (kib > 0) return kib / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  Distribution dist;
  for (double v : values) dist.Add(v);
  return dist.empty() ? 0 : dist.Median();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- The timed window ------------------------------------------------------

struct Window {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t placed = 0;
  std::vector<RoundRecord> rounds;
  std::vector<double> wait_rounds;
  TraceTotals totals;
  ServiceCounters before;
  ServiceCounters after;
  FederationCounters fed_before;
  FederationCounters fed_after;
  double template_install_us = 0;
};

Window RunWindow(const WorkloadSpec& spec, Stack* stack, bool traced) {
  VirtualTimeDriver& driver = *stack->driver;
  SchedulerService& service = *stack->service;
  FederationCoordinator* federation = service.federation();
  Window window;
  driver.ResetWindow();
  driver.set_traced(traced);
  if (stack->scheduler != nullptr) {
    stack->scheduler->ClearMetrics();
  }
  window.before = service.counters();
  if (federation != nullptr) window.fed_before = federation->counters();
  const double cpu_start = CpuSeconds();
  const BenchClock::time_point start = BenchClock::now();
  driver.RunTicks(spec.tick_us, spec.window_ticks);
  driver.Settle();
  window.wall_s = MillisSince(start, BenchClock::now()) / 1e3;
  window.cpu_s = CpuSeconds() - cpu_start;
  driver.set_traced(false);
  window.after = service.counters();
  if (federation != nullptr) window.fed_after = federation->counters();
  window.placed = window.after.tasks_placed - window.before.tasks_placed;
  window.rounds = driver.rounds();
  window.wait_rounds = driver.wait_rounds();
  window.totals = driver.totals();
  if (stack->scheduler != nullptr && !stack->scheduler->template_install_latency().empty()) {
    window.template_install_us = stack->scheduler->template_install_latency().Mean() * 1e6;
  }
  return window;
}

// --- Correctness checks ------------------------------------------------------

struct Checked {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
};

void Require(bool ok, const std::string& what, Checked* checked) {
  if (!ok) {
    checked->correct = false;
    checked->problems.push_back(what);
  }
}

// Drains the stack and checks it. One operation = one submitted task
// attempt; an attempt still waiting for a slot after the drain failed.
Checked DrainAndCheck(const WorkloadSpec& spec, Stack* stack) {
  VirtualTimeDriver& driver = *stack->driver;
  SchedulerService& service = *stack->service;
  driver.Drain(spec.tick_us, kDrainTicks);
  Checked checked;
  const ServiceCounters counters = service.counters();
  const EventCounts& counts = driver.counts();
  checked.attempted = driver.task_attempts();
  Require(stack->parse_clean, "trace parse dropped or lost rows", &checked);
  Require(counts.accounted() == counts.events_consumed, "event-accounting identity", &checked);
  Require(counters.degraded_rounds == 0, "degraded rounds", &checked);
  Require(counters.tasks_submitted == driver.task_attempts(), "submitted != attempts", &checked);
  Require(counters.tasks_admitted == counters.tasks_submitted, "submitted tasks not admitted",
          &checked);
  Require(counters.completions_submitted ==
              counters.completions_applied + counters.completions_ignored,
          "completions not all applied", &checked);
  uint64_t waiting = 0;
  if (FederationCoordinator* federation = service.federation()) {
    for (size_t c = 0; c < federation->num_cells(); ++c) {
      CellScheduler& cell = federation->cell(c);
      waiting += cell.WaitingTasks();
      IntegrityChecker checker(&cell.cluster(), &cell.scheduler().graph_manager());
      IntegrityReport report = checker.Check();
      Require(report.clean(), "integrity check failed in cell " + std::to_string(c), &checked);
    }
  } else {
    ClusterState& cluster = stack->scheduler->cluster();
    for (TaskId task : cluster.LiveTasks()) {
      waiting += cluster.task(task).state == TaskState::kWaiting;
    }
    IntegrityChecker checker(&cluster, &stack->scheduler->graph_manager());
    IntegrityReport report = checker.Check();
    for (const std::string& violation : report.violations) {
      std::fprintf(stderr, "integrity: %s\n", violation.c_str());
    }
    Require(report.clean(), "integrity check failed", &checked);
  }
  Require(counters.pending_first_placements <= waiting, "unplaced tasks not waiting", &checked);
  checked.failed = waiting;
  return checked;
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

void PrintResult(const Checked& checked, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checked.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checked.attempted);
  out += ", \"failed\": " + std::to_string(checked.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// The round series of a run. The repetitions replay the same inputs and
// make the same rounds (the round count is a function of the seed), so the
// wall of round i is the median of its walls in the three windows. A
// repetition the host slows down then does not move the series, and p50 and
// p99 are read over every round of a window, the p99 with more than 10
// rounds beyond it.
class RoundSeries {
 public:
  void Add(const Window& window) {
    windows_.emplace_back();
    for (const RoundRecord& round : window.rounds) windows_.back().push_back(round.wall_ms);
    walls_.Clear();
    size_t rounds = SIZE_MAX;
    for (const std::vector<double>& walls : windows_) rounds = std::min(rounds, walls.size());
    for (size_t i = 0; i < rounds; ++i) {
      std::vector<double> repeats;
      for (const std::vector<double>& walls : windows_) repeats.push_back(walls[i]);
      walls_.Add(Median(repeats));
    }
  }

  size_t rounds() const { return walls_.count(); }
  std::vector<size_t> per_window() const {
    std::vector<size_t> counts;
    for (const std::vector<double>& walls : windows_) counts.push_back(walls.size());
    return counts;
  }
  double Percentile(double q) const { return walls_.empty() ? 0 : walls_.Percentile(q); }
  size_t BeyondP99() const {
    const double p99 = Percentile(0.99);
    size_t beyond = 0;
    for (double wall : walls_.Sorted()) beyond += wall > p99;
    return beyond;
  }

 private:
  std::vector<std::vector<double>> windows_;
  Distribution walls_;
};

// The p99 needs at least this many rounds and this many samples beyond it.
constexpr size_t kMinRounds = 1000;
constexpr size_t kMinBeyondP99 = 10;

void PrintStamp(const WorkloadSpec& spec, const WorkloadInputs& inputs, const Window& window,
                const RoundSeries& series, const Checked& checked, double setup_s,
                bool rss_reset) {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::string per_window;
  for (size_t rounds : series.per_window()) {
    per_window += (per_window.empty() ? "" : ", ") + std::to_string(rounds);
  }
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, \"busy_threads\": %d, "
      "\"build_type\": \"%s\", \"machines\": %d, \"trace_rows\": %llu, \"window_ticks\": %llu, "
      "\"rounds\": %zu, \"rounds_per_window\": [%s], \"round_samples_beyond_p99\": %zu, "
      "\"wait_samples\": %zu, \"setups\": %d, \"peak_rss\": \"%s\"}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(spec.trace.workload.seed), nproc,
      spec.busy_threads, VTBENCH_BUILD_TYPE, inputs.machines,
      static_cast<unsigned long long>(inputs.rows),
      static_cast<unsigned long long>(spec.window_ticks), series.rounds(),
      per_window.c_str(), series.BeyondP99(), window.wait_rounds.size(), kRepeats,
      rss_reset ? "VmHWM since inputs" : "getrusage, process lifetime");
  if (nproc < static_cast<unsigned>(spec.busy_threads)) {
    std::printf("warning: nproc %u is below the workload's busy-thread budget %d; "
                "solve legs will time-share cores\n",
                nproc, spec.busy_threads);
  }
  std::printf("summary: %s placed %llu in %.3f s over %zu rounds; setup %.3f s; "
              "attempted %llu failed %llu (share %.6f); correct %s%s%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(window.placed), window.wall_s,
              window.rounds.size(), setup_s, static_cast<unsigned long long>(checked.attempted),
              static_cast<unsigned long long>(checked.failed),
              Ratio(static_cast<double>(checked.failed), static_cast<double>(checked.attempted)),
              checked.correct ? "yes" : "no", checked.problems.empty() ? "" : ": ",
              checked.problems.empty() ? "" : checked.problems.front().c_str());
}

double PlacedPerSecond(const Window& window) {
  return Ratio(static_cast<double>(window.placed), window.wall_s);
}

void Merge(const Checked& from, Checked* into) {
  into->correct = into->correct && from.correct;
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->problems.insert(into->problems.end(), from.problems.begin(), from.problems.end());
}

std::vector<Metric> PerLayer(const Window& traced, double untraced_pps, double parse_s) {
  const double rounds = std::max<double>(1.0, static_cast<double>(traced.rounds.size()));
  double wall = 0, update = 0, solve = 0, refine = 0, apply = 0, view_prep = 0;
  double dispatch = 0, relax_iters = 0, cs_iters = 0, relax_wins = 0, stack_rounds = 0;
  double refreshed = 0, class_hits = 0, class_lookups = 0;
  Distribution solves;
  for (const RoundRecord& r : traced.rounds) {
    wall += r.wall_ms;
    update += r.update_ms;
    solve += r.solve_ms;
    refine += r.refine_ms;
    apply += r.apply_ms;
    view_prep += r.view_prep_ms;
    dispatch += r.dispatch_us;
    relax_iters += r.relax_iters;
    cs_iters += r.cs_iters;
    relax_wins += r.relax_wins;
    stack_rounds += static_cast<double>(r.cells_run);
    refreshed += static_cast<double>(r.tasks_refreshed);
    class_hits += static_cast<double>(r.class_hits);
    class_lookups += static_cast<double>(r.class_hits + r.class_misses);
    solves.Add(r.solve_ms);
  }
  const TraceTotals& t = traced.totals;
  const bool federated = traced.fed_after.rounds > 0;
  // Pump wall outside the scheduler's phases and the driver's callbacks.
  // Centralized solves run on the dispatch worker, outside Pump; federated
  // rounds run every phase inside Pump.
  double admit = t.pump_ms - t.callback_ms - update - apply;
  if (federated) admit -= solve + refine;
  const ServiceCounters& a = traced.after;
  const ServiceCounters& b = traced.before;
  const double template_hits = static_cast<double>(a.template_hits - b.template_hits);
  const double template_lookups =
      template_hits + static_cast<double>(a.template_misses - b.template_misses);
  const double cell_run =
      static_cast<double>(traced.fed_after.cell_rounds_run - traced.fed_before.cell_rounds_run);
  const double cell_skipped = static_cast<double>(traced.fed_after.cell_rounds_skipped -
                                                  traced.fed_before.cell_rounds_skipped);
  Distribution waits;
  for (double w : traced.wait_rounds) waits.Add(w);
  const double traced_pps = PlacedPerSecond(traced);
  return {
      {"trace.parse_s", parse_s, "s"},
      {"service.enqueue_us", Ratio(t.enqueue_ms * 1e3, static_cast<double>(t.producer_calls)),
       "us"},
      {"service.admit_ms", admit / rounds, "ms"},
      {"service.solve_wait_ms", t.wait_ms / rounds, "ms"},
      {"service.overlap_share",
       Ratio(static_cast<double>(a.events_ingested_during_solve - b.events_ingested_during_solve),
             static_cast<double>(a.events_admitted - b.events_admitted)),
       "share"},
      {"core.update_ms", update / rounds, "ms"},
      {"core.class_hit_rate", Ratio(class_hits, class_lookups), "share"},
      {"core.tasks_refreshed", refreshed / rounds, "count"},
      {"core.apply_ms", apply / rounds, "ms"},
      {"core.wait_rounds_p99", waits.empty() ? 0 : waits.Percentile(0.99), "count"},
      {"solver.solve_ms", solve / rounds, "ms"},
      {"solver.solve_p50_ms", solves.empty() ? 0 : solves.Median(), "ms"},
      {"solver.solve_p99_ms", solves.empty() ? 0 : solves.Percentile(0.99), "ms"},
      {"solver.relax_win_share", Ratio(relax_wins, stack_rounds), "share"},
      {"solver.relax_iters", relax_iters / rounds, "count"},
      {"solver.cs_iters", cs_iters / rounds, "count"},
      {"solver.refine_ms", refine / rounds, "ms"},
      {"solver.view_prep_ms", view_prep / rounds, "ms"},
      {"solver.dispatch_us", Ratio(dispatch, stack_rounds), "us"},
      {"round.wall_ms", wall / rounds, "ms"},
      {"round.unattributed_ms", (wall - update - solve - refine - apply) / rounds, "ms"},
      {"template.hit_rate", Ratio(template_hits, template_lookups), "share"},
      {"template.install_us", traced.template_install_us, "us"},
      {"template.validation_fail_rate",
       Ratio(static_cast<double>(a.template_validation_failures - b.template_validation_failures),
             template_hits),
       "share"},
      {"fed.cell_run_share", Ratio(cell_run, cell_run + cell_skipped), "share"},
      {"fed.spills", static_cast<double>(traced.fed_after.spills - traced.fed_before.spills),
       "count"},
      {"fed.rebalance_moves",
       static_cast<double>(traced.fed_after.rebalance_moves - traced.fed_before.rebalance_moves),
       "count"},
      {"proc.cpu_util", Ratio(traced.cpu_s, traced.wall_s), "share"},
      {"proc.cpu_us_per_placed", Ratio(traced.cpu_s * 1e6, static_cast<double>(traced.placed)),
       "us"},
      {"driver.self_ms",
       (t.tick_ms - t.enqueue_ms - t.pump_ms - t.wait_ms + t.callback_ms) / rounds, "ms"},
      {"trace.placed_per_s", traced_pps, "1/s"},
      {"trace.overhead_share", untraced_pps > 0 ? 1.0 - traced_pps / untraced_pps : 0, "share"},
  };
}

// --- Modes ---------------------------------------------------------------------

int RunBenchmark(const Args& args) {
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.seed, args.seconds / kRepeats, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  WorkloadInputs inputs;
  GenerateInputs(spec, args.data_dir, &inputs);
  const bool rss_reset = ResetPeakRss();

  std::vector<double> setups, parses, placed_per_s;
  RoundSeries series;
  Checked checked;
  Window window;
  for (int i = 0; i < kRepeats; ++i) {
    std::unique_ptr<Stack> stack = SetUp(spec, inputs, SolverMode::kRace);
    setups.push_back(stack->setup_s);
    parses.push_back(stack->parse_s);
    window = RunWindow(spec, stack.get(), /*traced=*/false);
    Merge(DrainAndCheck(spec, stack.get()), &checked);
    placed_per_s.push_back(PlacedPerSecond(window));
    series.Add(window);
  }
  Require(series.rounds() >= kMinRounds, "fewer than 1000 rounds for the p99", &checked);
  Require(series.BeyondP99() >= kMinBeyondP99, "fewer than 10 rounds beyond the p99", &checked);
  auto list = [](const std::vector<double>& values) {
    std::string out;
    char buffer[32];
    for (double v : values) {
      std::snprintf(buffer, sizeof(buffer), out.empty() ? "%.6g" : " %.6g", v);
      out += buffer;
    }
    return out;
  };
  std::printf("repetitions: placed_per_s [%s] setup_s [%s]\n", list(placed_per_s).c_str(),
              list(setups).c_str());
  std::vector<Metric> metrics = {
      {"placed_per_s", Median(placed_per_s), "1/s"},
      {"round_p50_ms", series.Percentile(0.5), "ms"},
      {"round_p99_ms", series.Percentile(0.99), "ms"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(rss_reset), "MB"},
  };
  if (args.trace) {
    std::unique_ptr<Stack> stack = SetUp(spec, inputs, SolverMode::kRace);
    parses.push_back(stack->parse_s);
    window = RunWindow(spec, stack.get(), /*traced=*/true);
    Merge(DrainAndCheck(spec, stack.get()), &checked);
    metrics = PerLayer(window, Median(placed_per_s), Median(parses));
  }
  RemoveInputs(inputs);
  PrintStamp(spec, inputs, window, series, checked, Median(setups), rss_reset);
  PrintResult(checked, metrics);
  return 0;
}

// Determinism self-test. Per workload, on a short window:
//  * same seed, race solver: identical trace-driven producer calls and
//    round count (feedback calls and placements are reported, not required:
//    the race picks among equal-cost optima by timing, and completions
//    follow placements);
//  * same seed, cost-scaling-only: identical producer calls, admissions,
//    round count and placements;
//  * different seed: different inputs.
int RunSelfTest(const Args& args) {
  struct Outcome {
    uint64_t input_hash = 0;
    uint64_t trace_call_hash = 0;
    uint64_t event_hash = 0;
    uint64_t placement_hash = 0;
    uint64_t rounds = 0;
    bool correct = false;
  };
  auto run = [&](const std::string& name, uint64_t seed, SolverMode solver) {
    WorkloadSpec spec;
    CHECK(MakeWorkload(name, seed, args.seconds, &spec));
    WorkloadInputs inputs;
    GenerateInputs(spec, args.data_dir, &inputs);
    std::unique_ptr<Stack> stack = SetUp(spec, inputs, solver);
    RunWindow(spec, stack.get(), /*traced=*/false);
    Checked checked = DrainAndCheck(spec, stack.get());
    RemoveInputs(inputs);
    Outcome outcome;
    outcome.input_hash = inputs.trace_hash;
    outcome.trace_call_hash = stack->driver->trace_call_hash();
    outcome.event_hash = stack->driver->event_hash();
    outcome.placement_hash = stack->driver->placement_hash();
    outcome.rounds = stack->driver->rounds_total();
    outcome.correct = checked.correct && checked.failed == 0;
    return outcome;
  };
  bool all_ok = true;
  auto report = [&all_ok](const std::string& what, bool ok) {
    std::printf("%-52s %s\n", what.c_str(), ok ? "ok" : "FAIL");
    all_ok = all_ok && ok;
  };
  for (const char* name : {"locality", "recurring", "cells"}) {
    const std::string w = name;
    Outcome race_a = run(w, args.seed, SolverMode::kRace);
    Outcome race_b = run(w, args.seed, SolverMode::kRace);
    Outcome cs_a = run(w, args.seed, SolverMode::kCostScalingOnly);
    Outcome cs_b = run(w, args.seed, SolverMode::kCostScalingOnly);
    Outcome other = run(w, args.seed + 1, SolverMode::kRace);
    std::printf("%s: race rounds %llu/%llu, cs rounds %llu/%llu\n", name,
                static_cast<unsigned long long>(race_a.rounds),
                static_cast<unsigned long long>(race_b.rounds),
                static_cast<unsigned long long>(cs_a.rounds),
                static_cast<unsigned long long>(cs_b.rounds));
    report(w + ": runs pass their checks",
           race_a.correct && race_b.correct && cs_a.correct && cs_b.correct && other.correct);
    report(w + ": race, same seed -> same trace calls",
           race_a.trace_call_hash == race_b.trace_call_hash);
    report(w + ": race, same seed -> same round count", race_a.rounds == race_b.rounds);
    report(w + ": cost scaling, same seed -> same events", cs_a.event_hash == cs_b.event_hash);
    report(w + ": cost scaling, same seed -> same rounds", cs_a.rounds == cs_b.rounds);
    report(w + ": cost scaling, same seed -> same placements",
           cs_a.placement_hash == cs_b.placement_hash);
    report(w + ": other seed -> other inputs", other.input_hash != race_a.input_hash);
    std::printf("%s: race runs: feedback calls %s, placements %s (informational)\n", name,
                race_a.event_hash == race_b.event_hash ? "identical" : "differ",
                race_a.placement_hash == race_b.placement_hash ? "identical" : "differ");
  }
  std::printf("selftest %s\n", all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace vtbench
}  // namespace firmament

int main(int argc, char** argv) {
  firmament::vtbench::Args args;
  if (!firmament::vtbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload locality|recurring|cells --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR\n"
                 "       %s --selftest --seconds S --data-dir DIR\n",
                 argv[0], argv[0]);
    return 2;
  }
  return args.selftest ? firmament::vtbench::RunSelfTest(args)
                       : firmament::vtbench::RunBenchmark(args);
}
