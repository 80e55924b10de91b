#include "src/scheduler/sparrow.h"

#include "src/core/probe_placement.h"

namespace hawk {

void SparrowPolicy::OnJobArrival(const Job& job, const JobClass& cls) {
  const Cluster& cluster = ctx_->GetCluster();
  // Probes target slots, not workers: a multi-slot worker is proportionally
  // more likely to receive a probe (with single-slot workers the two spaces
  // coincide).
  const auto num_slots = static_cast<uint32_t>(cluster.TotalSlots());
  const uint32_t num_probes = ProbeCount(probe_ratio_, job.NumTasks());
  ChooseProbeTargetsInto(ctx_->SchedRng(), /*first=*/0, num_slots, num_probes, &targets_,
                         &picks_);
  for (const SlotId slot : targets_) {
    ctx_->PlaceProbe(cluster.WorkerOfSlot(slot), job.id, cls.is_long_sched);
  }
}

}  // namespace hawk
