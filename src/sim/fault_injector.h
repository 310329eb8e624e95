// Seeded deterministic fault injection (robustness layer, §7.1-style
// "Fauxmaster" experiments under failures).
//
// The injector is a decision oracle, not an executor: it owns a forked
// SplitMix64 stream and answers "when do faults happen" and "who dies".
// SyntheticTraceEmitter walks the decisions into MACHINE REMOVE and task
// kill rows, and the replay drivers execute those rows through the
// scheduler's idempotent event API (ReplayFeedback handles the backoff and
// resubmit). Keeping execution out of the injector means the same seeded
// decision stream can drive a trace scenario or a hand-rolled test loop,
// and every run is reproducible from (seed, params).
//
// Fault sources:
//  * Machine crashes: a Poisson process (machine_crash_rate per simulated
//    second). Each crash escalates with storm_probability into a
//    rack-correlated failure storm that takes out storm_rack_fraction of
//    the victim's rack with it — the correlated-failure mode that stresses
//    Quincy's rack aggregators and the persistent class cache hardest.
//  * Task kills: an independent Poisson process. A killed task is removed
//    and resubmitted as a fresh single-task job after a capped exponential
//    backoff keyed to how many times its lineage has been killed.
#ifndef SRC_SIM_FAULT_INJECTOR_H_
#define SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/core/types.h"

namespace firmament {

struct FaultInjectorParams {
  uint64_t seed = 1;
  // Poisson rates in events per simulated second; 0 disables the source.
  double machine_crash_rate = 0.0;
  double task_kill_rate = 0.0;
  // Probability that a machine crash escalates into a rack-correlated storm
  // killing `storm_rack_fraction` of the alive machines in the victim's rack.
  double storm_probability = 0.1;
  double storm_rack_fraction = 0.5;
  // Kill-and-resubmit backoff: lineage attempt n waits
  // min(backoff_base_us * 2^(n-1), backoff_cap_us) before resubmission.
  SimTime backoff_base_us = 100'000;     // 100 ms
  SimTime backoff_cap_us = 10'000'000;   // 10 s
};

enum class FaultKind : uint8_t {
  kMachineCrash,  // one machine (possibly escalating into a rack storm)
  kTaskKill,      // kill-and-resubmit of one running task
};

// Capped exponential backoff shared by every kill-and-resubmit path (the
// synthetic trace emitter and the replay drivers' feedback helper):
// attempt n (>= 1) waits min(base * 2^(n-1), cap).
inline SimTime CappedExponentialBackoff(SimTime base_us, SimTime cap_us, int attempt) {
  if (attempt < 1) {
    attempt = 1;
  }
  // Shift with overflow protection: past ~63 doublings everything caps.
  int doublings = attempt - 1;
  if (doublings > 40) {
    return cap_us;
  }
  SimTime delay = base_us << doublings;
  return delay < cap_us ? delay : cap_us;
}

struct FaultSpec {
  SimTime time = 0;
  FaultKind kind = FaultKind::kMachineCrash;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorParams params)
      : params_(params), rng_(params.seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // The background fault timeline over [0, horizon): both Poisson streams,
  // merged in time order. Deterministic in (seed, params, horizon).
  std::vector<FaultSpec> Schedule(SimTime horizon);

  // Decision hooks. These consume the seeded stream, so the harness must
  // call them in a deterministic order (the emitter calls them only from
  // its single-threaded event walk).
  bool RollStorm() { return rng_.NextBool(params_.storm_probability); }
  // Uniform pick of a victim among n candidates (candidates must be in a
  // deterministic order, e.g. sorted by id).
  size_t PickIndex(size_t n) { return static_cast<size_t>(rng_.NextUint64(n)); }

 private:
  FaultInjectorParams params_;
  Rng rng_;
};

}  // namespace firmament

#endif  // SRC_SIM_FAULT_INJECTOR_H_
