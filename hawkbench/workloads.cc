#include "workloads.h"

#include <algorithm>

#include "bench/bench_util.h"
#include "src/common/check.h"

namespace hawkbench {
namespace {

using hawk::bench::GoogleConfig;
using hawk::bench::SimSize;

// Smoke mode divides cluster sizes and job counts by this.
constexpr uint32_t kTinyDivisor = 10;

uint32_t Sized(uint32_t full, bool tiny) { return tiny ? full / kTinyDivisor : full; }

// Every workload replays one fixed trace: the Google-trace sample and
// Poisson arrivals the figure benches build by default (their seed 1). The
// benchmark seed seeds the simulation's random choices instead (probe
// targets, steal victims, fault draws). Job sizes are heavy tailed, so a
// fresh trace per seed moves the realized load, and with it the host timings
// and job-runtime percentiles, by 15-40% between seeds (figure_sweep's
// wall_s by 30%); on one trace the seed moves them by a few percent.
constexpr uint64_t kTraceSeed = 1;

hawk::Trace GoogleTrace(uint32_t jobs, uint32_t min_workers, uint32_t ref_workers,
                        double load) {
  return hawk::bench::GoogleSweepTrace(jobs, kTraceSeed, min_workers, ref_workers, load);
}

// The fig 5 operating point: 15k paper nodes, calibrated against a sweep that
// starts at 10k (so tasks per job are capped the way the figure benches cap
// them).
uint32_t RefWorkers(bool tiny) { return Sized(SimSize(15000), tiny); }
uint32_t MinWorkers(bool tiny) { return Sized(SimSize(10000), tiny); }

// paper_hawk: all three Hawk mechanisms hot at the paper's scale.
hawk::Trace PaperHawkTrace(bool tiny) {
  return GoogleTrace(Sized(30000, tiny), MinWorkers(tiny), RefWorkers(tiny), 0.93);
}

std::vector<hawk::ExperimentSpec> PaperHawkSpecs(const hawk::Trace* trace, uint64_t seed,
                                                 bool tiny) {
  return {hawk::ExperimentSpec("hawk")
              .WithConfig(GoogleConfig(RefWorkers(tiny), seed))
              .WithTrace(trace)
              .WithLabel("paper_hawk")};
}

// sparse_1m: construction, teardown and memory of a million-worker cluster.
uint32_t SparseWorkers(bool tiny) { return tiny ? 20000 : SimSize(10000000); }

hawk::Trace SparseTrace(bool tiny) {
  const uint32_t workers = SparseWorkers(tiny);
  return GoogleTrace(Sized(2000, tiny), workers, workers, 0.93);
}

std::vector<hawk::ExperimentSpec> SparseSpecs(const hawk::Trace* trace, uint64_t seed,
                                              bool tiny) {
  return {hawk::ExperimentSpec("hawk")
              .WithConfig(GoogleConfig(SparseWorkers(tiny), seed))
              .WithTrace(trace)
              .WithLabel("sparse_1m")};
}

// faults_spec: the fault, recovery and speculation paths. Stragglers at rate
// 0.1 and slowdown 8 stretch the offered work by up to 1.7x, so at load 0.7
// the short-job backlog grows with the trace (short p99 9k, 43k and 180k
// simulated s at 3k, 10k and 30k jobs); at 0.5 it stays near 7.3k s.
hawk::Trace FaultsTrace(bool tiny) {
  return GoogleTrace(Sized(10000, tiny), MinWorkers(tiny), RefWorkers(tiny), 0.5);
}

std::vector<hawk::ExperimentSpec> FaultsSpecs(const hawk::Trace* trace, uint64_t seed,
                                              bool tiny) {
  hawk::DurationUs longest_us = 1;
  for (const hawk::Job& job : trace->jobs()) {
    longest_us = std::max(longest_us, job.MaxTaskDurationUs());
  }
  hawk::HawkConfig config = GoogleConfig(RefWorkers(tiny), seed);
  // The fault ablation's middle crash point: 0.1 expected crashes per worker
  // over the longest task.
  config.worker_crash_rate = 0.1 / (static_cast<double>(longest_us) / 1e6);
  config.worker_downtime_us = hawk::SecondsToUs(30.0);
  config.message_loss_rate = 0.05;
  config.message_delay_jitter_us = 500;
  config.straggler_rate = 0.1;
  config.straggler_slowdown_factor = 8.0;
  config.fault_seed = seed;
  return {hawk::ExperimentSpec("hawk-spec")
              .WithConfig(config)
              .WithTrace(trace)
              .WithLabel("faults_spec")};
}

// figure_sweep: the fig 8/9 grid plus the steal-retry ablation's 10 s and
// 3 s hawk points, on the trace both figure benches build at default scale.
hawk::Trace SweepTrace(bool tiny) {
  return GoogleTrace(Sized(3000, tiny), MinWorkers(tiny), RefWorkers(tiny), 0.93);
}

std::vector<hawk::ExperimentSpec> SweepSpecs(const hawk::Trace* trace, uint64_t seed,
                                             bool tiny) {
  const hawk::HawkConfig base = GoogleConfig(RefWorkers(tiny), seed);
  std::vector<double> sizes;
  for (uint32_t paper_nodes = 10000; paper_nodes <= 50000; paper_nodes += 5000) {
    sizes.push_back(Sized(SimSize(paper_nodes), tiny));
  }
  hawk::SweepSpec fig8_9(
      hawk::ExperimentSpec().WithConfig(base).WithTrace(trace).WithLabel("fig8_9"));
  fig8_9.Vary("num_workers", sizes).VarySchedulers({"hawk", "hawk-latebind", "centralized"});

  hawk::SweepSpec retry(
      hawk::ExperimentSpec("hawk").WithConfig(base).WithTrace(trace).WithLabel("steal_retry"));
  retry.Vary("steal_retry_interval_us", {static_cast<double>(hawk::SecondsToUs(10.0)),
                                         static_cast<double>(hawk::SecondsToUs(3.0))});

  std::vector<hawk::ExperimentSpec> specs = fig8_9.Expand();
  for (hawk::ExperimentSpec& spec : retry.Expand()) {
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_hawk", false, PaperHawkTrace, PaperHawkSpecs},
      {"sparse_1m", false, SparseTrace, SparseSpecs},
      {"faults_spec", false, FaultsTrace, FaultsSpecs},
      {"figure_sweep", true, SweepTrace, SweepSpecs},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

size_t HeadlineIndex(const Workload& workload, const std::vector<hawk::ExperimentSpec>& specs,
                     bool tiny) {
  if (!workload.is_sweep) {
    return 0;
  }
  // The hawk point at 15k paper nodes of the fig 8/9 grid.
  for (size_t i = 0; i < specs.size(); ++i) {
    const hawk::ExperimentSpec& s = specs[i];
    if (s.scheduler == "hawk" && s.config.num_workers == RefWorkers(tiny) &&
        s.config.steal_retry_interval_us == 0) {
      return i;
    }
  }
  HAWK_CHECK(false) << "figure_sweep grid has no hawk point at the reference size";
  return 0;
}

}  // namespace hawkbench
