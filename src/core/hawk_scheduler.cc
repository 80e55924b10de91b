#include "src/core/hawk_scheduler.h"

#include "src/core/probe_placement.h"

namespace hawk {

HawkPolicy::HawkPolicy(const HawkConfig& config,
                       StealingPolicy::VictimSelection victim_selection)
    : HawkPolicy(config, RuntimeShape(), "hawk", /*draws_steal_seed=*/true) {
  // The base class derives the Hawk-family shape from the §4.4 toggles.
  shape_ = SchedulerPolicy::ShapeForRuntime(config);
  shape_.victim_selection = victim_selection;
}

HawkPolicy::HawkPolicy(const HawkConfig& config, const RuntimeShape& shape,
                       std::string_view name, bool draws_steal_seed)
    : config_(config), shape_(shape), name_(name), draws_steal_seed_(draws_steal_seed) {}

std::unique_ptr<HawkPolicy> HawkPolicy::Sparrow(const HawkConfig& config) {
  RuntimeShape shape;
  shape.centralized_long = false;
  shape.stealing = false;
  shape.long_probe_span = RuntimeShape::ProbeSpan::kWholeCluster;
  return std::unique_ptr<HawkPolicy>(
      new HawkPolicy(config, shape, "sparrow", /*draws_steal_seed=*/false));
}

std::unique_ptr<HawkPolicy> HawkPolicy::Centralized(const HawkConfig& config) {
  RuntimeShape shape;
  shape.centralized_long = true;
  shape.centralized_short = true;
  shape.stealing = false;
  return std::unique_ptr<HawkPolicy>(
      new HawkPolicy(config, shape, "centralized", /*draws_steal_seed=*/false));
}

std::unique_ptr<HawkPolicy> HawkPolicy::SplitCluster(const HawkConfig& config) {
  RuntimeShape shape;
  shape.centralized_long = true;
  shape.stealing = false;
  shape.short_probe_span = RuntimeShape::ProbeSpan::kShortPartition;
  return std::unique_ptr<HawkPolicy>(
      new HawkPolicy(config, shape, "split-cluster", /*draws_steal_seed=*/false));
}

void HawkPolicy::Attach(SchedulerContext* ctx) {
  SchedulerPolicy::Attach(ctx);
  ResolveProbeSpans(shape_);
  const Cluster& cluster = ctx->GetCluster();
  for (const bool is_long : {false, true}) {
    HAWK_CHECK(shape_.Centralized(is_long) || probe_spans_[is_long].count > 0)
        << name_ << " probes " << (is_long ? "long" : "short")
        << " jobs over an empty span (is the short partition empty?)";
  }
  if (shape_.centralized_long || shape_.centralized_short) {
    central_queue_ = std::make_unique<SlotWaitingTimeQueue>(cluster, cluster.GeneralCount());
  }
  if (draws_steal_seed_) {
    const uint64_t steal_seed = ctx->SchedRng().Next();
    if (shape_.stealing) {
      stealing_ =
          std::make_unique<StealingPolicy>(config_.steal_cap, steal_seed, shape_.victim_selection);
    }
  }
}

void HawkPolicy::OnJobArrival(const Job& job, const JobClass& cls) {
  if (shape_.Centralized(cls.is_long_sched)) {
    ScheduleCentralized(job, cls);
    return;
  }
  // Probed classes go over their span: for Hawk, short jobs probe the whole
  // cluster (the short partition is reserved for them, and any idle
  // general-partition slot is fair game, §3.4, §3.5); long jobs without the
  // centralized component stay confined to the general partition (§4.4).
  ScheduleDistributed(job, cls.is_long_sched);
}

void HawkPolicy::ScheduleCentralized(const Job& job, const JobClass& cls) {
  // Canonical rounded estimate from the tracker: the same value is replayed
  // by the start/finish feedback, keeping the backlog accounting exact.
  const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job.id);
  for (uint32_t i = 0; i < job.NumTasks(); ++i) {
    const auto assignment = ctx_->Tracker().TakeNextTask(job.id);
    HAWK_CHECK(assignment.has_value());
    const WorkerId worker = central_queue_->AssignTask(ctx_->Now(), estimate_us);
    ctx_->PlaceTask(worker, job.id, assignment->task_index, assignment->duration,
                    cls.is_long_sched);
  }
}

void HawkPolicy::ScheduleDistributed(const Job& job, bool is_long) {
  const Cluster& cluster = ctx_->GetCluster();
  const SlotRange span = probe_spans_[is_long];
  const uint32_t num_probes = ProbeCount(config_.probe_ratio, job.NumTasks());
  ChooseProbeTargetsInto(ctx_->SchedRng(), span.first, span.count, num_probes, &targets_,
                         &picks_);
  for (const SlotId slot : targets_) {
    ctx_->PlaceProbe(cluster.WorkerOfSlot(slot), job.id, is_long);
  }
}

void HawkPolicy::OnTaskStart(WorkerId worker, const QueueEntry& task) {
  // Only centrally placed tasks are tracked by the waiting-time queue;
  // probed tasks are invisible to the centralized component (§3.7).
  if (!shape_.Centralized(task.is_long)) {
    return;
  }
  central_queue_->OnTaskStart(worker, ctx_->Now(), ctx_->Tracker().EstimateUs(task.job));
}

void HawkPolicy::OnTaskFinish(WorkerId worker, JobId job, bool is_long) {
  (void)job;
  if (!shape_.Centralized(is_long)) {
    return;
  }
  central_queue_->OnTaskFinish(worker, ctx_->Now());
}

void HawkPolicy::OnTaskLost(JobId job, bool is_long) {
  if (!shape_.Centralized(is_long)) {
    ReProbe(job, is_long);
    return;
  }
  // A centrally placed task goes back through the waiting-time queue — its
  // scheduler lane — so the replacement again lands on the worker with the
  // minimum estimated wait.
  const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job);
  const auto assignment = ctx_->Tracker().TakeNextTask(job);
  HAWK_CHECK(assignment.has_value()) << "lost task of job " << job << " not returned";
  const WorkerId worker = central_queue_->AssignTask(ctx_->Now(), estimate_us);
  ctx_->PlaceTask(worker, job, assignment->task_index, assignment->duration, is_long);
}

void HawkPolicy::OnWorkerIdle(WorkerId worker) {
  if (stealing_ == nullptr) {
    return;
  }
  // Stolen entries land straight on the thief's queue; the driver re-examines
  // it when this notification returns (stealing is free in the §4.1 cost
  // model), so no DeliverStolen round trip is needed.
  stealing_->TryStealInto(ctx_->GetCluster(), worker, &ctx_->Counters());
}

void HawkLateBindPolicy::ScheduleCentralized(const Job& job, const JobClass& cls) {
  // One probe per task on the minimum-wait worker. Tasks stay in the tracker
  // until a probe reaches service and its request is granted — the same late
  // binding short jobs get, aimed by the waiting-time queue instead of
  // random sampling. The estimate is charged here (AssignTask) and
  // discharged by OnTaskStart when the granted task runs, exactly as in the
  // eager lane.
  const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job.id);
  for (uint32_t i = 0; i < job.NumTasks(); ++i) {
    const WorkerId worker = central_queue().AssignTask(ctx_->Now(), estimate_us);
    ctx_->PlaceProbe(worker, job.id, cls.is_long_sched);
  }
}

void HawkLateBindPolicy::OnProbeLost(JobId job, bool is_long) {
  if (ctx_->Tracker().AllTasksAssigned(job)) {
    return;
  }
  // Centrally aimed probes are this policy's scheduler lane: the replacement
  // goes back through the waiting-time queue so it again lands on the
  // minimum-wait worker (mirrors HawkPolicy::OnTaskLost for the eager lane).
  // Probed classes keep the base random re-probe.
  if (shape().Centralized(is_long)) {
    const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job);
    const WorkerId worker = central_queue().AssignTask(ctx_->Now(), estimate_us);
    ctx_->PlaceProbe(worker, job, is_long);
    return;
  }
  ReProbe(job, is_long);
}

}  // namespace hawk
