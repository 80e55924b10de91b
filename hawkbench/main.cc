// hawkbench: the repository benchmark's measuring program.
//
//   hawkbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--spans-out PATH]
//
// Runs one workload (workloads.cc) repeatedly for S seconds through the
// public API. It prints a "JOBS n" line (the jobs one repetition simulates)
// before measuring and one "RESULT {json}" line at the end. With --trace 0 it
// reports the end-to-end metrics, with --trace 1 the per-layer metrics of a
// separate traced pass (tracer.h) interleaved with untraced repetitions, which
// give the tracing overhead. Every simulation passes the correctness gate
// (CheckRun) and every repetition must reproduce the first one's digest.
// hawkbench/run.py builds this program and is the command users run.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/metrics/comparison.h"
#include "src/scheduler/driver.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/registry.h"
#include "src/scheduler/sweep_runner.h"
#include "tests/result_digest.h"
#include "tracer.h"
#include "workloads.h"

namespace hawkbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "hawkbench: %s\n", message.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Die("missing value for " + arg);
      }
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        Die("--seed must be a non-negative integer, got '" + v + "'");
      }
    } else if (arg == "--seconds") {
      const std::string v = value();
      opts.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opts.seconds > 0.0)) {
        Die("--seconds must be a positive number, got '" + v + "'");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        Die("--trace must be 0 or 1, got '" + v + "'");
      }
      opts.trace = v == "1";
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--spans-out") {
      opts.spans_out = value();
    } else {
      Die("unknown argument '" + arg + "'");
    }
  }
  if (opts.workload.empty()) {
    Die("--workload is required");
  }
  return opts;
}

// The CPUs this process may run on (what `nproc` counts).
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Pins the calling thread to one CPU. Single-run repetitions rotate over the
// allowed CPUs: on a shared host the interference differs per core (copies
// pinned to different cores at the same time ran up to 30% apart), so
// rotating keeps one noisy core from shifting a whole run's median. Threads
// inherit the pin, so grids are never pinned.
void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// Registry guard. The built-in schedulers register from static initializers
// in experiment.cc, which a plain static-archive link drops unless something
// references that object; CMakeLists.txt links the whole archive. An unknown
// name is reported, never dereferenced.
const hawk::SchedulerRegistry::Entry& FindScheduler(const std::string& name) {
  const hawk::SchedulerRegistry::Entry* entry = hawk::SchedulerRegistry::Global().Find(name);
  if (entry == nullptr) {
    Die("scheduler '" + name + "' is not registered (registered: " +
        hawk::SchedulerRegistry::Global().JoinedNames() + ")");
  }
  return *entry;
}

// --- one repetition -----------------------------------------------------------

// Host seconds per phase of one repetition. For a grid the driver phases are
// summed over its points.
struct Timings {
  double trace_gen_s = 0;
  double expand_s = 0;
  double policy_ctor_s = 0;
  double driver_ctor_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  double summarize_s = 0;

  double Setup(bool is_sweep) const {
    return trace_gen_s + expand_s + (is_sweep ? 0.0 : policy_ctor_s + driver_ctor_s);
  }
  double Wall(bool is_sweep) const {
    return Setup(is_sweep) + (is_sweep ? 0.0 : teardown_s) + run_s + summarize_s;
  }
};

// Times one phase into `*seconds`; with a tracer it is also a span.
class Phase {
 public:
  Phase(Tracer* tracer, Kind kind, double* seconds)
      : span_(tracer, kind), seconds_(seconds), start_(Clock::now()) {}
  ~Phase() { *seconds_ += SecondsBetween(start_, Clock::now()); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  ScopedSpan span_;
  double* seconds_;
  Clock::time_point start_;
};

struct SimMetrics {
  double short_p50_s = 0;
  double short_p99_s = 0;
  double long_p50_s = 0;
};

struct Rep {
  Timings t;
  uint64_t digest = 0;
  uint64_t attempted = 0;  // Jobs in the traces simulated.
  uint64_t failed = 0;     // Of those, jobs without exactly one valid result.
  uint64_t paper_events = 0;
  uint64_t total_busy_us = 0;
  hawk::RunCounters counters;  // Summed over the simulations of the rep.
  SimMetrics sim;
  double summary_sink = 0;  // Keeps the summaries observable.
  std::vector<std::string> errors;
  // Traced repetitions only.
  Tally tally;
  std::vector<RawSpan> spans;
  // Traced grid repetitions: host seconds of each point.
  std::vector<double> point_s;
};

void AddCounters(const hawk::RunCounters& c, hawk::RunCounters* sum) {
  sum->jobs += c.jobs;
  sum->tasks_launched += c.tasks_launched;
  sum->probes_placed += c.probes_placed;
  sum->probe_requests += c.probe_requests;
  sum->cancels += c.cancels;
  sum->central_tasks_placed += c.central_tasks_placed;
  sum->steal_attempts += c.steal_attempts;
  sum->steal_victim_probes += c.steal_victim_probes;
  sum->steal_successes += c.steal_successes;
  sum->events += c.events;
  sum->messages_dropped += c.messages_dropped;
  sum->tasks_re_dispatched += c.tasks_re_dispatched;
  sum->wasted_work_us += c.wasted_work_us;
  sum->tasks_speculated += c.tasks_speculated;
  sum->speculative_wins += c.speculative_wins;
}

// The correctness gate for one simulation of `spec`.
void CheckRun(const hawk::ExperimentSpec& spec, const hawk::RunResult& r, Rep* rep) {
  const hawk::Trace& trace = *spec.trace;
  const uint64_t n = trace.NumJobs();
  auto fail = [&](const std::string& what) { rep->errors.push_back(spec.Label() + ": " + what); };

  // SimulationDriver::Run aborts unless every job finished and returns one
  // result per trace job, so a result count that differs is all that can show
  // here; a run that aborts is reported by run.py.
  rep->attempted += n;
  if (r.jobs.size() != n) {
    rep->failed += n - std::min<uint64_t>(n, r.jobs.size());
    fail(std::to_string(r.jobs.size()) + " job results for " + std::to_string(n) + " trace jobs");
  }
  // A crash kills the tasks executing on the worker and they launch again,
  // so under crash injection tasks_launched also counts those re-launches,
  // which are a subset of the re-dispatched tasks.
  const uint64_t tasks = trace.TotalTasks();
  const uint64_t launched = r.counters.tasks_launched;
  const uint64_t relaunch_bound =
      spec.config.worker_crash_rate > 0 ? r.counters.tasks_re_dispatched : 0;
  if (launched < tasks || launched > tasks + relaunch_bound) {
    fail("tasks_launched " + std::to_string(launched) + " outside [trace tasks " +
         std::to_string(tasks) + ", + " + std::to_string(relaunch_bound) + " re-dispatched]");
  }
  const uint64_t work = static_cast<uint64_t>(trace.TotalWorkUs());
  if (static_cast<uint64_t>(r.total_busy_us) != work + r.counters.wasted_work_us) {
    fail("total_busy_us " + std::to_string(r.total_busy_us) + " != trace work " +
         std::to_string(work) + " + wasted " + std::to_string(r.counters.wasted_work_us));
  }
  if (!spec.config.FaultsEnabled() && r.counters.tasks_speculated == 0 &&
      r.counters.wasted_work_us != 0) {
    fail("wasted_work_us is nonzero on a fault-free run");
  }
  rep->total_busy_us += static_cast<uint64_t>(r.total_busy_us);
  AddCounters(r.counters, &rep->counters);
  rep->paper_events += hawk::bench::PaperEvents(r.counters);
}

SimMetrics Summarize(const hawk::RunResult& r) {
  SimMetrics m;
  const hawk::Samples shorts = r.RuntimesSeconds(false);
  const hawk::Samples longs = r.RuntimesSeconds(true);
  if (!shorts.Empty()) {
    m.short_p50_s = shorts.Percentile(50);
    m.short_p99_s = shorts.Percentile(99);
  }
  if (!longs.Empty()) {
    m.long_p50_s = longs.Percentile(50);
  }
  return m;
}

// The figure summaries of a grid: every fig 8/9 point normalized to the
// centralized point of its cluster size, as bench_fig8_9_vs_centralized
// prints them.
double SummarizeGrid(const std::vector<hawk::ExperimentSpec>& specs,
                     const std::vector<const hawk::RunResult*>& results) {
  double sink = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].scheduler == "centralized") {
      continue;
    }
    for (size_t j = 0; j < specs.size(); ++j) {
      if (specs[j].scheduler == "centralized" &&
          specs[j].config.num_workers == specs[i].config.num_workers) {
        const hawk::RunComparison cmp = hawk::CompareRuns(*results[i], *results[j]);
        sink += cmp.short_jobs.p50_ratio + cmp.long_jobs.p50_ratio;
      }
    }
  }
  return sink;
}

uint64_t CombineDigests(const std::vector<uint64_t>& digests) {
  hawk::testing::Fnv1a h;
  for (const uint64_t d : digests) {
    h.MixU64(d);
  }
  return h.Digest();
}

// The steps RunExperiment takes for a serial spec, one phase each: registry
// factory, driver constructor, Run, and teardown of driver and policy. With a
// tracer the policy is wrapped in the TracingPolicy decorator.
hawk::RunResult Simulate(const hawk::ExperimentSpec& spec, Tracer* tracer, Timings* t) {
  const hawk::SchedulerRegistry::Entry& entry = FindScheduler(spec.scheduler);
  std::unique_ptr<hawk::SchedulerPolicy> policy;
  {
    const Phase phase(tracer, Kind::kPolicyCtor, &t->policy_ctor_s);
    policy = entry.factory(spec.config);
    if (tracer != nullptr) {
      policy = std::make_unique<TracingPolicy>(std::move(policy), tracer);
    }
  }
  const uint32_t general_count =
      entry.general_count ? entry.general_count(spec.config) : spec.config.num_workers;
  std::unique_ptr<hawk::SimulationDriver> driver;
  {
    const Phase phase(tracer, Kind::kDriverCtor, &t->driver_ctor_s);
    driver = std::make_unique<hawk::SimulationDriver>(spec.trace, spec.config, general_count,
                                                      policy.get());
  }
  hawk::RunResult result;
  {
    const Phase phase(tracer, Kind::kRun, &t->run_s);
    result = driver->Run();
  }
  {
    const Phase phase(tracer, Kind::kTeardown, &t->teardown_s);
    driver.reset();
    policy.reset();
  }
  return result;
}

class Bench {
 public:
  Bench(const Workload& workload, const Options& opts)
      : w_(workload),
        opts_(opts),
        cpus_(AllowedCpus()),
        threads_(static_cast<uint32_t>(std::max<size_t>(1, cpus_.size()))),
        epoch_(Clock::now()) {}

  // A single-run repetition: trace generation, spec, Simulate, summary.
  Rep SingleRep(bool traced) {
    Rep rep;
    std::unique_ptr<Tracer> tracer;
    if (traced) {
      tracer = std::make_unique<Tracer>(++run_ids_, epoch_);
      tracer->Begin(Kind::kRep);
    }
    hawk::Trace trace;
    std::vector<hawk::ExperimentSpec> specs;
    {
      const Phase phase(tracer.get(), Kind::kTraceGen, &rep.t.trace_gen_s);
      trace = w_.make_trace(opts_.tiny);
    }
    {
      const Phase phase(tracer.get(), Kind::kExpand, &rep.t.expand_s);
      specs = w_.make_specs(&trace, opts_.seed, opts_.tiny);
    }
    const hawk::RunResult result = Simulate(specs[0], tracer.get(), &rep.t);
    {
      const Phase phase(tracer.get(), Kind::kSummarize, &rep.t.summarize_s);
      rep.sim = Summarize(result);
    }
    if (tracer != nullptr) {
      tracer->End(Kind::kRep);
      rep.tally = tracer->tally();
      rep.spans = tracer->spans();
    }
    CheckRun(specs[0], result, &rep);
    rep.digest = hawk::testing::DigestResult(result);
    return rep;
  }

  // A grid repetition. Untraced it runs the public API, RunExperiments over
  // the expanded grids; traced it runs SweepRunner over traced Simulate calls
  // and times each point.
  Rep GridRep(bool traced) {
    Rep rep;
    hawk::Trace trace;
    std::vector<hawk::ExperimentSpec> specs;
    {
      const Phase phase(nullptr, Kind::kTraceGen, &rep.t.trace_gen_s);
      trace = w_.make_trace(opts_.tiny);
    }
    {
      const Phase phase(nullptr, Kind::kExpand, &rep.t.expand_s);
      specs = w_.make_specs(&trace, opts_.seed, opts_.tiny);
    }
    const size_t n = specs.size();
    std::vector<hawk::RunResult> results;
    std::vector<Timings> point_t(n);
    std::vector<std::unique_ptr<Tracer>> tracers(n);
    {
      const Phase phase(nullptr, Kind::kRun, &rep.t.run_s);
      if (!traced) {
        std::vector<hawk::SweepRun> runs = hawk::RunExperiments(specs, threads_);
        for (hawk::SweepRun& run : runs) {
          results.push_back(std::move(run.result));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          tracers[i] = std::make_unique<Tracer>(++run_ids_, epoch_);
        }
        rep.point_s.assign(n, 0.0);
        const hawk::SweepRunner runner(threads_);
        results = runner.Run(n, [&](size_t i) {
          const Clock::time_point start = Clock::now();
          tracers[i]->Begin(Kind::kRep);
          hawk::RunResult r = Simulate(specs[i], tracers[i].get(), &point_t[i]);
          tracers[i]->End(Kind::kRep);
          rep.point_s[i] = SecondsBetween(start, Clock::now());
          return r;
        });
      }
    }
    {
      const Phase phase(nullptr, Kind::kSummarize, &rep.t.summarize_s);
      std::vector<const hawk::RunResult*> ptrs;
      for (const hawk::RunResult& r : results) {
        ptrs.push_back(&r);
      }
      rep.summary_sink = SummarizeGrid(specs, ptrs);
      rep.sim = Summarize(results[HeadlineIndex(w_, specs, opts_.tiny)]);
    }
    std::vector<uint64_t> digests;
    for (size_t i = 0; i < n; ++i) {
      CheckRun(specs[i], results[i], &rep);
      digests.push_back(hawk::testing::DigestResult(results[i]));
      if (tracers[i] != nullptr) {
        rep.tally.Add(tracers[i]->tally());
        const std::vector<RawSpan>& spans = tracers[i]->spans();
        rep.spans.insert(rep.spans.end(), spans.begin(), spans.end());
        rep.t.policy_ctor_s += point_t[i].policy_ctor_s;
        rep.t.driver_ctor_s += point_t[i].driver_ctor_s;
        rep.t.teardown_s += point_t[i].teardown_s;
      }
    }
    rep.digest = CombineDigests(digests);
    return rep;
  }

  Rep RunRep(bool traced) {
    if (!w_.is_sweep) {
      // A traced repetition runs on the CPU of the untraced one before it, so
      // trace.overhead compares like with like.
      if (!cpus_.empty()) {
        next_cpu_ += traced ? 0 : 1;
        PinToCpu(cpus_[next_cpu_ % cpus_.size()]);
      }
      return SingleRep(traced);
    }
    return GridRep(traced);
  }

  // The digest RunExperiment (the public entry point) gives on this
  // workload's inputs; every repetition must reproduce it. It also warms the
  // process up before anything is timed.
  uint64_t ReferenceDigest(std::vector<std::string>* errors) {
    if (w_.is_sweep) {
      const Rep api = GridRep(false);
      errors->insert(errors->end(), api.errors.begin(), api.errors.end());
      // The benchmark's construct-then-Run path must agree with the API on
      // the headline point (the traced pass compares every point).
      const hawk::Trace trace = w_.make_trace(opts_.tiny);
      const std::vector<hawk::ExperimentSpec> specs =
          w_.make_specs(&trace, opts_.seed, opts_.tiny);
      const size_t h = HeadlineIndex(w_, specs, opts_.tiny);
      Timings unused;
      if (hawk::testing::DigestResult(Simulate(specs[h], nullptr, &unused)) !=
          hawk::testing::DigestResult(hawk::RunExperiment(specs[h]))) {
        errors->push_back("construct-then-Run differs from RunExperiment on " +
                          specs[h].Label());
      }
      return api.digest;
    }
    const hawk::Trace trace = w_.make_trace(opts_.tiny);
    const std::vector<hawk::ExperimentSpec> specs = w_.make_specs(&trace, opts_.seed, opts_.tiny);
    return hawk::testing::DigestResult(hawk::RunExperiment(specs[0]));
  }

  uint32_t threads() const { return threads_; }

 private:
  const Workload& w_;
  const Options& opts_;
  std::vector<int> cpus_;
  size_t next_cpu_ = 0;
  uint32_t threads_;
  Clock::time_point epoch_;
  uint32_t run_ids_ = 0;
};

// --- statistics and output ------------------------------------------------------

// The median of per-repetition values.
double MedianOf(const std::vector<double>& values) {
  hawk::Samples s;
  s.AddAll(values);
  return s.Median();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string detail;  // Sample count and tail percentile, for timings.
};

// Median with its sample count, plus the highest of p75/p90/p95/p99 that has
// at least ten samples beyond it.
Metric Timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit) {
  hawk::Samples s;
  s.AddAll(samples);
  char range[80];
  std::snprintf(range, sizeof(range), ", min=%.6g, max=%.6g", s.Min(), s.Max());
  std::string detail = "median of n=" + std::to_string(samples.size()) + range;
  const double n = static_cast<double>(samples.size());
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), ", p%.0f=%.6g", p, s.Percentile(p));
      detail += buf;
      break;
    }
  }
  return Metric{name, s.Median(), unit, detail};
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<Metric> EndToEndMetrics(const Workload& w, const std::vector<Rep>& reps) {
  std::vector<double> setup;
  std::vector<double> eps;
  std::vector<double> wall;
  for (const Rep& r : reps) {
    setup.push_back(r.t.Setup(w.is_sweep));
    eps.push_back(static_cast<double>(r.paper_events) / r.t.run_s);
    wall.push_back(r.t.Wall(w.is_sweep));
  }
  const SimMetrics& sim = reps.front().sim;
  return {
      Timing("setup_s", setup, "s"),
      Timing("events_per_s", eps, "1/s"),
      Timing("wall_s", wall, "s"),
      Metric{"peak_rss_mb", PeakRssMb(), "MB", "process peak"},
      Metric{"sim_short_p50_s", sim.short_p50_s, "sim_s", "headline simulation"},
      Metric{"sim_short_p99_s", sim.short_p99_s, "sim_s", "headline simulation"},
      Metric{"sim_long_p50_s", sim.long_p50_s, "sim_s", "headline simulation"},
  };
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const std::vector<Rep>& traced,
                                    const std::vector<Rep>& untraced, uint32_t threads) {
  auto med = [&](const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : traced) {
      v.push_back(f(r));
    }
    return MedianOf(v);
  };
  auto self = [&](Kind k) { return med([k](const Rep& r) { return r.tally.Self(k); }); };
  auto calls = [&](Kind k) { return static_cast<double>(traced.front().tally.Calls(k)); };
  // The driver's own share of Run: Run minus the policy callbacks' self time
  // (so the driver calls made from callbacks count as driver time).
  auto driver_self = [](const Rep& r) {
    double s = r.tally.Total(Kind::kRun);
    for (const Kind k : {Kind::kArrivalShort, Kind::kArrivalLong, Kind::kTaskStart,
                         Kind::kTaskFinish, Kind::kIdle, Kind::kRecovery}) {
      s -= r.tally.Self(k);
    }
    return s;
  };
  const hawk::RunCounters& c = traced.front().counters;
  const Rep& first = traced.front();

  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  for (const Rep& r : traced) {
    traced_wall.push_back(r.t.Wall(w.is_sweep));
  }
  for (const Rep& r : untraced) {
    untraced_wall.push_back(r.t.Wall(w.is_sweep));
  }
  double points = 0;
  double busy_fraction = 0;
  double longest = 0;
  if (w.is_sweep) {
    std::vector<double> busy;
    std::vector<double> longest_v;
    for (const Rep& r : traced) {
      double sum = 0;
      for (const double s : r.point_s) {
        sum += s;
      }
      busy.push_back(sum / (static_cast<double>(threads) * r.t.run_s));
      longest_v.push_back(*std::max_element(r.point_s.begin(), r.point_s.end()));
    }
    points = static_cast<double>(first.point_s.size());
    busy_fraction = MedianOf(busy);
    longest = MedianOf(longest_v);
  }
  const double self_s = med(driver_self);
  return {
      {"workload.trace_gen_s", med([](const Rep& r) { return r.t.trace_gen_s; }), "s",
       "moves setup_s on paper_hawk, faults_spec (no change on sparse_1m)"},
      {"scheduler.policy_ctor_s", med([](const Rep& r) { return r.t.policy_ctor_s; }), "s",
       "moves setup_s, peak_rss_mb, wall_s on sparse_1m"},
      {"scheduler.driver_ctor_s", med([](const Rep& r) { return r.t.driver_ctor_s; }), "s",
       "moves setup_s, peak_rss_mb, wall_s on sparse_1m (no change on paper_hawk)"},
      {"scheduler.driver_dtor_s", med([](const Rep& r) { return r.t.teardown_s; }), "s",
       "moves wall_s, peak_rss_mb on sparse_1m (no change on paper_hawk)"},
      {"core.arrival_short.calls", calls(Kind::kArrivalShort), "count",
       "moves events_per_s on paper_hawk"},
      {"core.arrival_short.self_s", self(Kind::kArrivalShort), "s",
       "moves events_per_s on paper_hawk"},
      {"core.arrival_long.calls", calls(Kind::kArrivalLong), "count",
       "moves events_per_s on figure_sweep, paper_hawk"},
      {"core.arrival_long.self_s", self(Kind::kArrivalLong), "s",
       "moves events_per_s on figure_sweep (centralized points), paper_hawk"},
      {"core.task_start.calls", calls(Kind::kTaskStart), "count",
       "moves events_per_s on figure_sweep"},
      {"core.task_start.self_s", self(Kind::kTaskStart), "s", "moves events_per_s on figure_sweep"},
      {"core.task_finish.calls", calls(Kind::kTaskFinish), "count",
       "moves events_per_s on figure_sweep"},
      {"core.task_finish.self_s", self(Kind::kTaskFinish), "s",
       "moves events_per_s on figure_sweep"},
      {"core.idle.calls", calls(Kind::kIdle), "count",
       "moves events_per_s on paper_hawk, figure_sweep (retry points)"},
      {"core.idle.self_s", self(Kind::kIdle), "s",
       "moves events_per_s on paper_hawk, figure_sweep (retry points)"},
      {"core.recovery.calls", calls(Kind::kRecovery), "count",
       "moves events_per_s on faults_spec only"},
      {"core.recovery.self_s", self(Kind::kRecovery), "s",
       "moves events_per_s on faults_spec only"},
      {"core.steal_success_ratio",
       Ratio(static_cast<double>(c.steal_successes), static_cast<double>(c.steal_attempts)),
       "ratio", "moves events_per_s on paper_hawk, sparse_1m, figure_sweep"},
      {"core.victims_per_steal",
       Ratio(static_cast<double>(c.steal_victim_probes), static_cast<double>(c.steal_attempts)),
       "ratio", "moves events_per_s on paper_hawk, sparse_1m, figure_sweep"},
      {"core.cancel_ratio",
       Ratio(static_cast<double>(c.cancels), static_cast<double>(c.probe_requests)), "ratio",
       "moves sim_short_p50_s on paper_hawk"},
      {"core.probes_per_task",
       Ratio(static_cast<double>(c.probes_placed), static_cast<double>(c.tasks_launched)),
       "ratio", "moves sim_short_p50_s on paper_hawk"},
      {"scheduler.run_s", med([](const Rep& r) { return r.tally.Total(Kind::kRun); }), "s",
       "moves events_per_s on every workload"},
      {"scheduler.self_s", self_s, "s", "moves events_per_s on every workload"},
      {"scheduler.place.calls", calls(Kind::kPlace), "count",
       "moves events_per_s on paper_hawk, faults_spec"},
      {"scheduler.place.s", med([](const Rep& r) { return r.tally.Total(Kind::kPlace); }), "s",
       "moves events_per_s on paper_hawk (lane push), faults_spec (heap push)"},
      {"scheduler.simevents_per_paper_event",
       Ratio(static_cast<double>(c.events), static_cast<double>(first.paper_events)), "ratio",
       "moves events_per_s on every workload"},
      {"scheduler.ns_per_simevent", Ratio(self_s * 1e9, static_cast<double>(c.events)), "ns",
       "moves events_per_s on every workload"},
      {"scheduler.wasted_work_ratio",
       Ratio(static_cast<double>(c.wasted_work_us), static_cast<double>(first.total_busy_us)),
       "ratio", "moves sim_short_p99_s on faults_spec"},
      {"scheduler.spec_win_ratio",
       Ratio(static_cast<double>(c.speculative_wins), static_cast<double>(c.tasks_speculated)),
       "ratio", "moves sim_short_p99_s on faults_spec"},
      {"scheduler.messages_dropped", static_cast<double>(c.messages_dropped), "count",
       "moves sim_short_p99_s on faults_spec"},
      {"scheduler.tasks_re_dispatched", static_cast<double>(c.tasks_re_dispatched), "count",
       "moves sim_short_p99_s on faults_spec"},
      {"sweep.points", points, "count", "moves wall_s on figure_sweep"},
      {"sweep.threads", w.is_sweep ? static_cast<double>(threads) : 0.0, "count",
       "moves wall_s on figure_sweep"},
      {"sweep.busy_fraction", busy_fraction, "ratio", "moves wall_s on figure_sweep"},
      {"sweep.longest_point_s", longest, "s",
       "moves wall_s on figure_sweep (the slowest point sets the grid's time)"},
      {"metrics.summarize_s", med([](const Rep& r) { return r.t.summarize_s; }), "s",
       "moves wall_s on figure_sweep (expected small)"},
      {"trace.overhead", MedianOf(traced_wall) / MedianOf(untraced_wall), "ratio",
       "traced wall_s / untraced wall_s, n=" + std::to_string(traced.size()) + "/" +
           std::to_string(untraced.size()) + "; moves no end-to-end metric"},
  };
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  Die("refusing to measure an unoptimized build (build type " HAWKBENCH_BUILD_TYPE ")");
#endif
  const Options opts = ParseOptions(argc, argv);
  const Workload* workload = FindWorkload(opts.workload);
  if (workload == nullptr) {
    std::string names;
    for (const Workload& w : AllWorkloads()) {
      names += names.empty() ? "" : ", ";
      names += w.name;
    }
    Die("unknown workload '" + opts.workload + "' (known: " + names + ")");
  }
  {
    // Fail on an unregistered scheduler or a bad config before timing.
    const hawk::Trace trace = workload->make_trace(opts.tiny);
    uint64_t jobs = 0;
    for (const hawk::ExperimentSpec& spec : workload->make_specs(&trace, opts.seed, opts.tiny)) {
      FindScheduler(spec.scheduler);
      const hawk::Status status = spec.config.Validate();
      if (!status.ok()) {
        Die("invalid config for " + spec.Label() + ": " + status.message());
      }
      jobs += trace.NumJobs();
    }
    // The jobs one repetition simulates. If a simulation aborts (the driver
    // checks that every job finishes), run.py reports them all as failed.
    std::printf("JOBS %llu\n", static_cast<unsigned long long>(jobs));
    std::fflush(stdout);
  }

  Bench bench(*workload, opts);
  std::vector<std::string> errors;
  const uint64_t reference = bench.ReferenceDigest(&errors);

  // Untraced repetitions always; with --trace 1 traced ones alternate with
  // them. At least three repetitions (two of each when tracing), however
  // short --seconds is.
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  const size_t min_reps = opts.trace ? 2 : 3;
  const Clock::time_point start = Clock::now();
  while (SecondsBetween(start, Clock::now()) < opts.seconds || untraced.size() < min_reps ||
         (opts.trace && traced.size() < min_reps)) {
    const bool trace_this = opts.trace && traced.size() < untraced.size();
    Rep rep = bench.RunRep(trace_this);
    if (rep.digest != reference) {
      errors.push_back(std::string(trace_this ? "traced" : "untraced") +
                       " repetition digest " + Hex(rep.digest) + " != reference " +
                       Hex(reference));
    }
    (trace_this ? traced : untraced).push_back(std::move(rep));
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<Rep>* reps : {&untraced, &traced}) {
    for (const Rep& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& e : r.errors) {
        if (errors.size() < 20) {
          errors.push_back(e);
        }
      }
    }
  }

  const std::vector<Metric> metrics =
      opts.trace ? PerLayerMetrics(*workload, traced, untraced, bench.threads())
                 : EndToEndMetrics(*workload, untraced);

  if (opts.trace && !opts.spans_out.empty() && !WriteSpans(opts.spans_out, traced.front().spans)) {
    errors.push_back("cannot write spans to " + opts.spans_out);
  }

  const bool correct = errors.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}, \"detail\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": \"" + JsonEscape(metrics[i].detail) +
            "\"";
  }
  json += "}, \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    json += (i ? ", \"" : "\"") + JsonEscape(errors[i]) + "\"";
  }
  json += "], \"provenance\": {\"workload\": \"" + std::string(workload->name) +
          "\", \"seed\": " + std::to_string(opts.seed) +
          ", \"nproc\": " + std::to_string(bench.threads()) + ", \"compiler\": \"" +
          JsonEscape(__VERSION__) + "\", \"build_type\": \"" HAWKBENCH_BUILD_TYPE
          "\", \"tiny\": " + (opts.tiny ? "true" : "false") + ", \"digest\": \"" +
          Hex(reference) + "\", \"untraced_reps\": " + std::to_string(untraced.size()) +
          ", \"traced_reps\": " + std::to_string(traced.size()) +
          ", \"summary_check\": " + Num(untraced.front().summary_sink) + "}}";
  std::printf("RESULT %s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hawkbench

int main(int argc, char** argv) { return hawkbench::Main(argc, argv); }
