// The Hawk hybrid scheduler (paper §3) — the primary contribution — and the
// baselines it is measured against, as one RuntimeShape executor.
//
// Hawk places long jobs with a centralized waiting-time queue restricted to
// the general partition, probes short jobs Sparrow-style over the entire
// cluster, and lets idle workers steal blocked short work from random
// general-partition victims. Each mechanism has a toggle so the §4.4
// component breakdown ("Hawk w/out centralized / partition / stealing") runs
// through the exact same code. Sparrow (§2.3), the fully centralized
// scheduler (§4.5) and the split cluster (§4.6) are further points of the
// same design space, built by the named factories below: the policy decides
// every lane from its stored shape, the same shape the prototype runtime
// executes (see RuntimeShape).
#ifndef HAWK_CORE_HAWK_SCHEDULER_H_
#define HAWK_CORE_HAWK_SCHEDULER_H_

#include <memory>

#include "src/core/hawk_config.h"
#include "src/core/slot_waiting_queue.h"
#include "src/core/stealing_policy.h"
#include "src/scheduler/policy.h"

namespace hawk {

class HawkPolicy : public SchedulerPolicy {
 public:
  // The Hawk family: the shape follows the config's §4.4 toggles, and
  // Attach draws a steal seed from the scheduler stream whether or not the
  // shape steals. `victim_selection` picks the steal-victim contact order;
  // kDChoice is the "hawk-dchoice" registered variant (most-loaded victim
  // first).
  explicit HawkPolicy(const HawkConfig& config,
                      StealingPolicy::VictimSelection victim_selection =
                          StealingPolicy::VictimSelection::kRandom);

  // The baselines. None of them steals or draws from the scheduler stream
  // at Attach.
  // Sparrow (§2.3): every job probed over the whole cluster.
  static std::unique_ptr<HawkPolicy> Sparrow(const HawkConfig& config);
  // Fully centralized (§4.5): every job placed by the waiting-time queue.
  static std::unique_ptr<HawkPolicy> Centralized(const HawkConfig& config);
  // Split cluster (§4.6): long jobs centralized on the general partition,
  // short jobs probed over the disjoint short partition, which must be
  // non-empty.
  static std::unique_ptr<HawkPolicy> SplitCluster(const HawkConfig& config);

  void Attach(SchedulerContext* ctx) override;

  RuntimeShape ShapeForRuntime(const HawkConfig& config) const override {
    (void)config;
    return shape_;
  }

  void OnJobArrival(const Job& job, const JobClass& cls) override;
  void OnWorkerIdle(WorkerId worker) override;
  void OnTaskStart(WorkerId worker, const QueueEntry& task) override;
  void OnTaskFinish(WorkerId worker, JobId job, bool is_long) override;
  void OnTaskLost(JobId job, bool is_long) override;

  std::string_view Name() const override { return name_; }

  const HawkConfig& config() const { return config_; }

 protected:
  // A centralized class's lane. Virtual so the "hawk-latebind" variant can
  // swap the eager task binding for probe placement without duplicating the
  // routing in OnJobArrival.
  virtual void ScheduleCentralized(const Job& job, const JobClass& cls);

  const RuntimeShape& shape() const { return shape_; }
  SlotWaitingTimeQueue& central_queue() { return *central_queue_; }

 private:
  HawkPolicy(const HawkConfig& config, const RuntimeShape& shape, std::string_view name,
             bool draws_steal_seed);

  void ScheduleDistributed(const Job& job, bool is_long);

  HawkConfig config_;
  RuntimeShape shape_;
  std::string_view name_;
  bool draws_steal_seed_;
  // Waiting-time queue over the general partition's slots (§3.7); built
  // only when the shape centralizes some class.
  std::unique_ptr<SlotWaitingTimeQueue> central_queue_;
  // Built only when the shape steals.
  std::unique_ptr<StealingPolicy> stealing_;
  // Probe-placement scratch (slot ids), reused across job arrivals.
  std::vector<SlotId> targets_;
  std::vector<uint32_t> picks_;
};

// "hawk-spec" registered variant: Hawk with speculative re-execution forced
// on. A config that sets speculation_threshold explicitly still wins;
// otherwise the variant supplies kDefaultSpeculationThreshold, so sweeping
// {"hawk", "hawk-spec"} under one config isolates the effect of speculation.
class HawkSpecPolicy : public HawkPolicy {
 public:
  static constexpr double kDefaultSpeculationThreshold = 2.0;

  using HawkPolicy::HawkPolicy;

  double SpeculationThreshold(const HawkConfig& config) const override {
    return config.speculation_threshold > 0.0 ? config.speculation_threshold
                                              : kDefaultSpeculationThreshold;
  }

  std::string_view Name() const override { return "hawk-spec"; }
};

// "hawk-latebind" registered variant: the centralized long-job lane places
// *probes* on the minimum-wait workers instead of binding tasks eagerly, so
// the driver's late-binding request machinery (§3.5) hands out tasks in
// probe-service order. The waiting-time accounting is unchanged — one
// AssignTask charge per probe, discharged when the granted task starts on
// that worker, which the per-worker FIFO protocol covers because a worker
// serves its probes in placement order. Lost probes are replaced through the
// waiting-time queue (not a random re-probe) so the min-wait property
// survives faults. On the prototype runtime the variant degrades to the
// eager centralized backend, like every placement nuance that needs live
// central state (see RuntimeShape).
class HawkLateBindPolicy : public HawkPolicy {
 public:
  using HawkPolicy::HawkPolicy;

  void OnProbeLost(JobId job, bool is_long) override;

  std::string_view Name() const override { return "hawk-latebind"; }

 protected:
  void ScheduleCentralized(const Job& job, const JobClass& cls) override;
};

}  // namespace hawk

#endif  // HAWK_CORE_HAWK_SCHEDULER_H_
