// The benchmark's three workloads, their seeded inputs, and the timed
// set-up that brings a scheduler stack to steady occupancy.
//
//  * locality  — Quincy with BlockStore locality; templates off, no faults.
//                The solver, graph update and extraction do the work; the
//                template and federation layers sit idle.
//  * recurring — LoadSpreading with placement templates on, fig21-shaped
//                recurring jobs with long runtimes, machine crashes, rack
//                storms and task kill-and-resubmit. The solver graph is
//                small; most submissions install from templates.
//  * cells     — a 4-cell federation of LoadSpreading cells on a
//                job-granular stream (a job's tasks finish together), the
//                only workload through FederationCoordinator.
//
// Inputs (CSV tables, Quincy block replicas) are generated from the seed
// before anything is timed. Set-up — parse, machine bootstrap, warm-up
// replay including the cold first solve — is what setup_s times.

#ifndef VTBENCH_WORKLOADS_H_
#define VTBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/scheduler.h"
#include "src/service/scheduler_service.h"
#include "src/sim/block_store.h"
#include "src/trace/synthetic_trace.h"
#include "vtbench/driver.h"

namespace firmament {
namespace vtbench {

struct WorkloadSpec {
  std::string name;
  SyntheticTraceParams trace;
  bool quincy = false;      // Quincy + BlockStore, else LoadSpreading
  bool templates = false;
  bool job_granular = false;
  size_t cells = 0;         // >= 2: federated service
  SimTime warmup_us = 0;    // trace time replayed during set-up
  SimTime warmup_tick_us = 0;
  SimTime tick_us = 0;      // timed-window cadence
  // Timed-window ticks per second of measurement, calibrated so a window
  // lasts about that long on a 4-vCPU x86 VM. The tick count, not the wall
  // clock, bounds the window, which keeps it deterministic.
  double ticks_per_second = 0;
  // Busy threads the workload runs: driver + solve dispatch worker + race
  // worker, or the caller + one federation worker, each racing two legs.
  int busy_threads = 0;
  uint64_t window_ticks = 0;  // derived from the window's seconds
};

// `window_seconds` sizes one timed window (window_ticks). Returns false for
// an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double window_seconds,
                  WorkloadSpec* spec);

// Seeded inputs: the CSV tables plus, for Quincy, block replicas per
// lineage allocated against a topology identical to the bootstrapped one.
struct WorkloadInputs {
  std::string machine_csv;
  std::string task_csv;
  uint64_t trace_hash = 0;  // FNV over the emitted rows
  uint64_t rows = 0;
  int machines = 0;
  std::unique_ptr<ClusterState> topology;
  std::unique_ptr<BlockStore> store;
  std::unordered_map<uint64_t, std::vector<uint64_t>> blocks;
};

void GenerateInputs(const WorkloadSpec& spec, const std::string& data_dir,
                    WorkloadInputs* inputs);
void RemoveInputs(const WorkloadInputs& inputs);

// One scheduler stack at steady occupancy. Members are declared in
// dependency order so destruction runs driver -> service -> scheduler ->
// policy -> cluster.
struct Stack {
  ClusterState cluster;
  std::unique_ptr<SchedulingPolicy> policy;
  std::unique_ptr<FirmamentScheduler> scheduler;  // null when federated
  ManualServiceClock clock;
  std::unique_ptr<SchedulerService> service;
  std::vector<TraceEvent> events;
  std::unique_ptr<VirtualTimeDriver> driver;
  bool parse_clean = false;  // no parse drops; every row became an event
  double parse_s = 0;
  double setup_s = 0;
};

// Timed set-up: parse, bootstrap, warm-up replay, settle.
std::unique_ptr<Stack> SetUp(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                             SolverMode solver);

}  // namespace vtbench
}  // namespace firmament

#endif  // VTBENCH_WORKLOADS_H_
