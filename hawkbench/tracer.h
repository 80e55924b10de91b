// Outside-in tracing for the benchmark's traced pass.
//
// Everything here lives in the benchmark: the simulator is timed only at the
// calls the benchmark makes into it and, through TracingPolicy, at the
// boundary between the driver and the scheduler policy. A Tracer belongs to
// one simulation (one run id) and is used by one thread.
#ifndef HAWKBENCH_TRACER_H_
#define HAWKBENCH_TRACER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/scheduler/policy.h"

namespace hawkbench {

// The benchmark measures host time, never simulated time.
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Span kinds with per-kind totals. The first group are policy callbacks (the
// `core` layer); kPlace is the driver's placement API called back from them.
enum class Kind : uint8_t {
  kArrivalShort,  // OnJobArrival, short job: probe placement.
  kArrivalLong,   // OnJobArrival, long job: waiting-time queue.
  kTaskStart,     // OnTaskStart: waiting-time bookkeeping.
  kTaskFinish,    // OnTaskFinish: waiting-time bookkeeping.
  kIdle,          // OnWorkerIdle: steal screening.
  kRecovery,      // OnTaskLost, OnProbeLost, OnTaskStraggling.
  kPlace,         // PlaceProbe, PlaceTask, PlaceSpeculative, DeliverStolen.
  // Run-level spans, timed around the benchmark's own calls.
  kRep,
  kTraceGen,
  kExpand,  // Building the experiment specs (SweepSpec::Expand for grids).
  kPolicyCtor,
  kDriverCtor,
  kRun,
  kTeardown,
  kSummarize,
  kCount,
};
inline constexpr size_t kNumKinds = static_cast<size_t>(Kind::kCount);

const char* KindName(Kind kind);

// Per-kind call counts and self seconds (duration minus child spans).
struct Tally {
  std::array<uint64_t, kNumKinds> calls{};
  std::array<double, kNumKinds> self_s{};
  std::array<double, kNumKinds> total_s{};

  void Add(const Tally& other);
  uint64_t Calls(Kind k) const { return calls[static_cast<size_t>(k)]; }
  double Self(Kind k) const { return self_s[static_cast<size_t>(k)]; }
  double Total(Kind k) const { return total_s[static_cast<size_t>(k)]; }
};

struct RawSpan {
  uint32_t run_id = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: no parent.
  Kind kind = Kind::kRep;
  int64_t start_ns = 0;  // Relative to the tracer's epoch.
  int64_t end_ns = 0;
};

class Tracer {
 public:
  // Raw spans kept per kind and simulation; totals are always complete.
  static constexpr uint32_t kRawSpansPerKind = 64;

  Tracer(uint32_t run_id, Clock::time_point epoch) : run_id_(run_id), epoch_(epoch) {}

  void Begin(Kind kind) {
    stack_.push_back(Frame{++next_id_, kind, Clock::now(), 0.0});
  }
  // Closes the innermost span, which must be of `kind`.
  void End(Kind kind);

  const Tally& tally() const { return tally_; }
  const std::vector<RawSpan>& spans() const { return spans_; }

 private:
  struct Frame {
    uint32_t id;
    Kind kind;
    Clock::time_point start;
    double child_s;
  };

  uint32_t run_id_;
  Clock::time_point epoch_;
  uint32_t next_id_ = 0;
  std::vector<Frame> stack_;
  Tally tally_;
  std::array<uint32_t, kNumKinds> kept_{};
  std::vector<RawSpan> spans_;
};

// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Kind kind) : tracer_(tracer), kind_(kind) {
    if (tracer_ != nullptr) {
      tracer_->Begin(kind_);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(kind_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Kind kind_;
};

// Decorator around a registry-built policy. It is the policy the driver sees
// and the context the wrapped policy sees, so every callback and every call
// back into the driver crosses it. It forwards every virtual of both
// interfaces unchanged: a virtual left to its base default here would
// silently change results (the benchmark checks traced and untraced digests
// are equal).
class TracingPolicy final : public hawk::SchedulerPolicy, public hawk::SchedulerContext {
 public:
  TracingPolicy(std::unique_ptr<hawk::SchedulerPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  // --- SchedulerPolicy -----------------------------------------------------
  void Attach(hawk::SchedulerContext* ctx) override;
  hawk::RuntimeShape ShapeForRuntime(const hawk::HawkConfig& config) const override;
  void OnJobArrival(const hawk::Job& job, const hawk::JobClass& cls) override;
  void OnWorkerIdle(hawk::WorkerId worker) override;
  void OnTaskStart(hawk::WorkerId worker, const hawk::QueueEntry& task) override;
  void OnTaskFinish(hawk::WorkerId worker, hawk::JobId job, bool is_long) override;
  void OnTaskLost(hawk::JobId job, bool is_long) override;
  void OnProbeLost(hawk::JobId job, bool is_long) override;
  double SpeculationThreshold(const hawk::HawkConfig& config) const override;
  void OnTaskStraggling(hawk::JobId job, hawk::TaskIndex task_index,
                        hawk::DurationUs duration, bool is_long) override;
  std::string_view Name() const override;

  // --- SchedulerContext ----------------------------------------------------
  hawk::SimTime Now() const override;
  hawk::Rng& SchedRng() override;
  hawk::Cluster& GetCluster() override;
  hawk::JobTracker& Tracker() override;
  hawk::RunCounters& Counters() override;
  void PlaceProbe(hawk::WorkerId worker, hawk::JobId job, bool is_long) override;
  void PlaceTask(hawk::WorkerId worker, hawk::JobId job, hawk::TaskIndex task_index,
                 hawk::DurationUs duration, bool is_long) override;
  void PlaceSpeculative(hawk::WorkerId worker, hawk::JobId job, hawk::TaskIndex task_index,
                        hawk::DurationUs duration, bool is_long) override;
  void DeliverStolen(hawk::WorkerId thief,
                     const std::vector<hawk::QueueEntry>& entries) override;

 private:
  std::unique_ptr<hawk::SchedulerPolicy> inner_;
  Tracer* tracer_;
  hawk::SchedulerContext* driver_ = nullptr;
};

// Writes spans as JSON lines, one object per span. Returns false on an I/O
// error.
bool WriteSpans(const std::string& path, const std::vector<RawSpan>& spans);

}  // namespace hawkbench

#endif  // HAWKBENCH_TRACER_H_
