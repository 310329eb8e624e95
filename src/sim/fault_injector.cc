#include "src/sim/fault_injector.h"

#include <algorithm>

namespace firmament {

std::vector<FaultSpec> FaultInjector::Schedule(SimTime horizon) {
  std::vector<FaultSpec> schedule;
  auto emit_poisson = [&](double rate_per_second, FaultKind kind) {
    if (rate_per_second <= 0.0) {
      return;
    }
    double mean_gap_us = static_cast<double>(kMicrosPerSecond) / rate_per_second;
    SimTime t = 0;
    for (;;) {
      double gap = rng_.NextExponential(mean_gap_us);
      // Never stall the clock: a sub-microsecond gap still advances time.
      t += std::max<SimTime>(1, static_cast<SimTime>(gap));
      if (t >= horizon) {
        break;
      }
      schedule.push_back({t, kind});
    }
  };
  emit_poisson(params_.machine_crash_rate, FaultKind::kMachineCrash);
  emit_poisson(params_.task_kill_rate, FaultKind::kTaskKill);
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const FaultSpec& a, const FaultSpec& b) { return a.time < b.time; });
  return schedule;
}

}  // namespace firmament
