#include "tracer.h"

#include <fstream>

#include "src/common/check.h"

namespace hawkbench {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kArrivalShort:
      return "core.arrival_short";
    case Kind::kArrivalLong:
      return "core.arrival_long";
    case Kind::kTaskStart:
      return "core.task_start";
    case Kind::kTaskFinish:
      return "core.task_finish";
    case Kind::kIdle:
      return "core.idle";
    case Kind::kRecovery:
      return "core.recovery";
    case Kind::kPlace:
      return "scheduler.place";
    case Kind::kRep:
      return "rep";
    case Kind::kTraceGen:
      return "workload.trace_gen";
    case Kind::kExpand:
      return "scheduler.expand";
    case Kind::kPolicyCtor:
      return "scheduler.policy_ctor";
    case Kind::kDriverCtor:
      return "scheduler.driver_ctor";
    case Kind::kRun:
      return "scheduler.run";
    case Kind::kTeardown:
      return "scheduler.driver_dtor";
    case Kind::kSummarize:
      return "metrics.summarize";
    case Kind::kCount:
      break;
  }
  return "?";
}

void Tally::Add(const Tally& other) {
  for (size_t i = 0; i < kNumKinds; ++i) {
    calls[i] += other.calls[i];
    self_s[i] += other.self_s[i];
    total_s[i] += other.total_s[i];
  }
}

void Tracer::End(Kind kind) {
  const Clock::time_point end = Clock::now();
  HAWK_CHECK(!stack_.empty() && stack_.back().kind == kind)
      << "unbalanced span " << KindName(kind);
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double total = SecondsBetween(frame.start, end);
  const auto k = static_cast<size_t>(kind);
  ++tally_.calls[k];
  tally_.total_s[k] += total;
  tally_.self_s[k] += total - frame.child_s;
  if (!stack_.empty()) {
    stack_.back().child_s += total;
  }
  if (kept_[k] < kRawSpansPerKind) {
    ++kept_[k];
    spans_.push_back(RawSpan{
        run_id_, frame.id, stack_.empty() ? 0 : stack_.back().id, kind,
        std::chrono::duration_cast<std::chrono::nanoseconds>(frame.start - epoch_).count(),
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count()});
  }
}

// --- SchedulerPolicy --------------------------------------------------------

void TracingPolicy::Attach(hawk::SchedulerContext* ctx) {
  driver_ = ctx;
  SchedulerPolicy::Attach(ctx);
  inner_->Attach(this);
}

hawk::RuntimeShape TracingPolicy::ShapeForRuntime(const hawk::HawkConfig& config) const {
  return inner_->ShapeForRuntime(config);
}

void TracingPolicy::OnJobArrival(const hawk::Job& job, const hawk::JobClass& cls) {
  const ScopedSpan span(tracer_, cls.is_long_sched ? Kind::kArrivalLong : Kind::kArrivalShort);
  inner_->OnJobArrival(job, cls);
}

void TracingPolicy::OnWorkerIdle(hawk::WorkerId worker) {
  const ScopedSpan span(tracer_, Kind::kIdle);
  inner_->OnWorkerIdle(worker);
}

void TracingPolicy::OnTaskStart(hawk::WorkerId worker, const hawk::QueueEntry& task) {
  const ScopedSpan span(tracer_, Kind::kTaskStart);
  inner_->OnTaskStart(worker, task);
}

void TracingPolicy::OnTaskFinish(hawk::WorkerId worker, hawk::JobId job, bool is_long) {
  const ScopedSpan span(tracer_, Kind::kTaskFinish);
  inner_->OnTaskFinish(worker, job, is_long);
}

void TracingPolicy::OnTaskLost(hawk::JobId job, bool is_long) {
  const ScopedSpan span(tracer_, Kind::kRecovery);
  inner_->OnTaskLost(job, is_long);
}

void TracingPolicy::OnProbeLost(hawk::JobId job, bool is_long) {
  const ScopedSpan span(tracer_, Kind::kRecovery);
  inner_->OnProbeLost(job, is_long);
}

double TracingPolicy::SpeculationThreshold(const hawk::HawkConfig& config) const {
  return inner_->SpeculationThreshold(config);
}

void TracingPolicy::OnTaskStraggling(hawk::JobId job, hawk::TaskIndex task_index,
                                     hawk::DurationUs duration, bool is_long) {
  const ScopedSpan span(tracer_, Kind::kRecovery);
  inner_->OnTaskStraggling(job, task_index, duration, is_long);
}

std::string_view TracingPolicy::Name() const { return inner_->Name(); }

// --- SchedulerContext -------------------------------------------------------

hawk::SimTime TracingPolicy::Now() const { return driver_->Now(); }
hawk::Rng& TracingPolicy::SchedRng() { return driver_->SchedRng(); }
hawk::Cluster& TracingPolicy::GetCluster() { return driver_->GetCluster(); }
hawk::JobTracker& TracingPolicy::Tracker() { return driver_->Tracker(); }
hawk::RunCounters& TracingPolicy::Counters() { return driver_->Counters(); }

void TracingPolicy::PlaceProbe(hawk::WorkerId worker, hawk::JobId job, bool is_long) {
  const ScopedSpan span(tracer_, Kind::kPlace);
  driver_->PlaceProbe(worker, job, is_long);
}

void TracingPolicy::PlaceTask(hawk::WorkerId worker, hawk::JobId job,
                              hawk::TaskIndex task_index, hawk::DurationUs duration,
                              bool is_long) {
  const ScopedSpan span(tracer_, Kind::kPlace);
  driver_->PlaceTask(worker, job, task_index, duration, is_long);
}

void TracingPolicy::PlaceSpeculative(hawk::WorkerId worker, hawk::JobId job,
                                     hawk::TaskIndex task_index, hawk::DurationUs duration,
                                     bool is_long) {
  const ScopedSpan span(tracer_, Kind::kPlace);
  driver_->PlaceSpeculative(worker, job, task_index, duration, is_long);
}

void TracingPolicy::DeliverStolen(hawk::WorkerId thief,
                                  const std::vector<hawk::QueueEntry>& entries) {
  const ScopedSpan span(tracer_, Kind::kPlace);
  driver_->DeliverStolen(thief, entries);
}

bool WriteSpans(const std::string& path, const std::vector<RawSpan>& spans) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const RawSpan& s : spans) {
    out << "{\"run\": " << s.run_id << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << KindName(s.kind) << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace hawkbench
