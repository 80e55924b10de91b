// The fixed chaos workload the golden digests are pinned over, shared by the
// tests that need a run lighting every layer: partitioned and stealing
// schedulers, speculation (via hawk-spec), crashes, churn, message loss,
// jitter and stragglers. Rates are per worker-second, well under
// 1/longest-task so crashed work terminates (see fault_test.cc).
#ifndef HAWK_TESTS_GOLDEN_WORKLOAD_H_
#define HAWK_TESTS_GOLDEN_WORKLOAD_H_

#include <cstdint>

#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"

namespace hawk {
namespace testing {

inline HawkConfig GoldenConfig(uint64_t seed) {
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = seed;
  config.worker_crash_rate = 3e-7;
  config.worker_churn_rate = 2e-7;
  config.worker_downtime_us = SecondsToUs(20.0);
  config.message_loss_rate = 0.05;
  config.message_delay_jitter_us = 2'000;
  config.straggler_rate = 0.05;
  config.fault_seed = 3;
  return config;
}

inline Trace GoldenTrace() {
  Trace trace = GenerateClusterWorkload(FacebookParams(150, 5));
  Rng arrivals_rng(11);
  AssignPoissonArrivals(&trace, SecondsToUs(2.0), &arrivals_rng);
  return trace;
}

}  // namespace testing
}  // namespace hawk

#endif  // HAWK_TESTS_GOLDEN_WORKLOAD_H_
