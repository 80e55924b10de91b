// The benchmark's workloads. Every input is a pure function of the seed.
// workloads.cc says why each workload exists.
#ifndef HAWKBENCH_WORKLOADS_H_
#define HAWKBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/scheduler/experiment.h"
#include "src/workload/trace.h"

namespace hawkbench {

struct Workload {
  const char* name;
  // True: the experiments run as one grid through RunSweep; false: one
  // simulation driven through the registry and SimulationDriver.
  bool is_sweep;
  // `tiny` shrinks the workload for the smoke mode; the shape stays the same.
  hawk::Trace (*make_trace)(bool tiny);
  // The experiments over `trace`, seeded with `seed`: one for a single-run
  // workload, the whole expanded grid for a sweep.
  std::vector<hawk::ExperimentSpec> (*make_specs)(const hawk::Trace* trace, uint64_t seed,
                                                  bool tiny);
};

// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& AllWorkloads();

// Index of the headline simulation in `specs`: the one whose job runtimes
// are reported as the sim_* metrics.
size_t HeadlineIndex(const Workload& workload, const std::vector<hawk::ExperimentSpec>& specs,
                     bool tiny);

}  // namespace hawkbench

#endif  // HAWKBENCH_WORKLOADS_H_
