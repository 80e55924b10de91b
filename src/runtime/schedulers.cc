#include "src/runtime/schedulers.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/core/probe_placement.h"

namespace hawk {
namespace runtime {

// --- CompletionSink ---------------------------------------------------------

void CompletionSink::ExpectJobs(const std::vector<JobId>& ids) {
  std::lock_guard<std::mutex> lock(mu_);
  expected_.clear();
  expected_.insert(ids.begin(), ids.end());
  outstanding_.clear();
  outstanding_.insert(ids.begin(), ids.end());
  completions_.clear();
  completions_.reserve(ids.size());
  duplicates_ = 0;
}

void CompletionSink::Record(JobId job, bool is_long) {
  std::lock_guard<std::mutex> lock(mu_);
  if (outstanding_.erase(job) == 0) {
    // Either the job already completed (a re-dispatched copy finishing
    // behind the original — expected under fault recovery) or nobody ever
    // expected it, which is a wiring bug no fault can produce.
    HAWK_CHECK(expected_.count(job) != 0)
        << "completion recorded for never-expected job " << job;
    ++duplicates_;
    return;
  }
  completions_.push_back(Completion{job, is_long, std::chrono::steady_clock::now()});
  if (outstanding_.empty()) {
    cv_.notify_all();
  }
}

Status CompletionSink::AwaitAll(std::chrono::milliseconds timeout, const ProgressFn& progress) {
  std::unique_lock<std::mutex> lock(mu_);
  if (cv_.wait_for(lock, timeout, [this] { return outstanding_.empty(); })) {
    return Status::Ok();
  }
  // Name the stragglers: "timed out, 0 of N done" is undebuggable; a job-id
  // list — with each job's done/total task counts when the harness supplies
  // a progress callback — points straight at the stuck scheduler, monitor,
  // or individual task. Sorted, so two runs of the same stuck configuration
  // produce comparable messages (hash-set order varies run to run).
  constexpr size_t kMaxListed = 16;
  std::vector<JobId> ids(outstanding_.begin(), outstanding_.end());
  std::sort(ids.begin(), ids.end());
  std::string listed;
  size_t shown = 0;
  for (const JobId job : ids) {
    if (shown == kMaxListed) {
      listed += ", ...";
      break;
    }
    listed += (shown == 0 ? "" : ", ") + std::to_string(job);
    if (progress != nullptr) {
      listed += progress(job);
    }
    ++shown;
  }
  return Status::Error("prototype run timed out with " + std::to_string(outstanding_.size()) +
                       " job(s) outstanding: " + listed);
}

std::vector<CompletionSink::Completion> CompletionSink::TakeAll() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(completions_);
}

uint64_t CompletionSink::duplicates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicates_;
}

// --- TaskRecovery -----------------------------------------------------------

namespace {

AdaptiveTimeout RecoveryWindow(const FaultRecoveryPolicy& faults) {
  const auto expected = static_cast<double>(faults.detection_timeout.count());
  const auto floor_us = std::max<DurationUs>(faults.detection_timeout.count() / 16, 1'000);
  const auto cap_us = std::max<DurationUs>(64 * faults.detection_timeout.count(), floor_us);
  return AdaptiveTimeout(expected, floor_us, cap_us);
}

}  // namespace

TaskRecovery::TaskRecovery(const FaultRecoveryPolicy& faults)
    : retry_budget_(faults.retry_budget), window_(RecoveryWindow(faults)) {}

std::chrono::steady_clock::time_point TaskRecovery::Deadline(
    std::chrono::steady_clock::time_point start, int64_t duration_us, JobId job,
    uint32_t task_index, uint32_t attempts) const {
  const DurationUs window = window_.BackoffTimeoutUs(attempts);
  const uint64_t jitter_key = (static_cast<uint64_t>(job) << 32) | task_index;
  return start + std::chrono::microseconds(duration_us) + std::chrono::microseconds(window) +
         std::chrono::microseconds(AdaptiveTimeout::JitterUs(jitter_key, attempts, window / 4));
}

void TaskRecovery::AddCompletionSample(std::chrono::steady_clock::time_point start,
                                       int64_t duration_us) {
  const auto overshoot = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count() -
                         duration_us;
  window_.AddSample(static_cast<double>(std::max<int64_t>(overshoot, 0)));
}

void TaskRecovery::BookReDispatch(uint32_t* attempts) {
  ++*attempts;
  if (*attempts <= retry_budget_) {
    ++re_dispatched_;
    return;
  }
  ++suppressed_;
  if (*attempts == retry_budget_ + 1) {
    ++abandoned_;
  }
}

// --- DistributedFrontend ----------------------------------------------------

DistributedFrontend::DistributedFrontend(rpc::Address address, const Cluster* layout,
                                         const RuntimeShape& shape, uint32_t probe_ratio,
                                         const FaultRecoveryPolicy& faults,
                                         rpc::MessageBus* bus, CompletionSink* sink,
                                         uint64_t seed, const FailureDetector* detector)
    : address_(address),
      layout_(layout),
      shape_(shape),
      probe_ratio_(probe_ratio),
      faults_(faults),
      bus_(bus),
      sink_(sink),
      detector_(detector),
      rng_(seed),
      recovery_(faults) {
  HAWK_CHECK(layout != nullptr);
  HAWK_CHECK(bus != nullptr);
  HAWK_CHECK(sink != nullptr);
  HAWK_CHECK_GT(probe_ratio, 0u);
}

void DistributedFrontend::Start() {
  bus_->Register(address_, [this](const rpc::BusMessage& m) { HandleMessage(m); });
}

void DistributedFrontend::SendProbesLocked(JobId job, JobState& state, uint32_t count) {
  // Shared §3.5 placement: sample `count` slots without replacement from the
  // span the policy shape declares for this class, weighting workers by
  // capacity, and map each slot to its owning node monitor.
  const SlotRange span = SpanSlotRange(*layout_, shape_.SpanOf(state.is_long));
  HAWK_CHECK_GT(span.count, 0u) << "probe span is empty for job " << job;
  ChooseProbeTargetsInto(rng_, span.first, span.count, count, &targets_, &picks_);
  for (SlotId slot : targets_) {
    // Detector steering: a probe aimed at a suspected node is re-drawn a few
    // times rather than filtered — the probe count must not shrink (fewer
    // probes means fewer grant paths exactly when the cluster is sick). If
    // every redraw also lands on a suspect, the last draw stands: suspicion
    // is advisory, and a probe to a genuinely dead node is recovered by the
    // probe-loss watchdog like any other.
    if (detector_ != nullptr) {
      for (int redraw = 0;
           redraw < 4 && detector_->Suspected(layout_->WorkerOfSlot(slot)); ++redraw) {
        slot = span.first + static_cast<SlotId>(rng_.NextBounded(span.count));
      }
    }
    const ProbeMsg probe = ProbeMsg::Make(job, address_, slot, state.is_long);
    bus_->Send(address_, layout_->WorkerOfSlot(slot), kProbe, probe.Encode());
  }
  if (faults_.enabled) {
    state.probe_deadline = std::chrono::steady_clock::now() + faults_.detection_timeout;
  }
}

void DistributedFrontend::HandleMessage(const rpc::BusMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (message.type) {
    case kJobSubmit: {
      const JobSubmitMsg submit = JobSubmitMsg::Decode(message.payload);
      JobState state;
      state.durations_us = submit.task_durations_us;
      state.tasks.resize(state.durations_us.size());
      state.is_long = submit.is_long;
      const auto num_tasks = static_cast<uint32_t>(state.durations_us.size());
      const auto emplaced = jobs_.emplace(submit.job, std::move(state));
      HAWK_CHECK(emplaced.second);
      ++jobs_handled_;
      SendProbesLocked(submit.job, emplaced.first->second, ProbeCount(probe_ratio_, num_tasks));
      break;
    }
    case kTaskRequest: {
      const JobRefMsg request = JobRefMsg::Decode(message.payload);
      const auto it = jobs_.find(request.job);
      // No assignable task: either the job already completed and was
      // garbage-collected (surplus probes for it are still queued somewhere)
      // or everything is granted/done. Cancel the reservation.
      const bool assignable =
          it != jobs_.end() && (!it->second.returned.empty() ||
                                it->second.next_unassigned < it->second.durations_us.size());
      if (!assignable) {
        const JobRefMsg cancel = JobRefMsg::TaskCancel(request.job, address_);
        ++cancels_sent_;
        bus_->Send(address_, request.sender, kTaskCancel, cancel.Encode());
        break;
      }
      JobState& state = it->second;
      // Tasks returned by fault recovery are re-granted before the cursor
      // advances, mirroring JobTracker::TakeNextTask.
      uint32_t index = 0;
      if (!state.returned.empty()) {
        index = state.returned.back();
        state.returned.pop_back();
      } else {
        index = state.next_unassigned++;
      }
      TaskState& task = state.tasks[index];
      task.phase = TaskPhase::kGranted;
      task.granted_at = std::chrono::steady_clock::now();
      if (faults_.enabled) {
        task.deadline = recovery_.Deadline(task.granted_at, state.durations_us[index],
                                           request.job, index, task.attempts);
        state.probe_deadline = task.deadline;
      }
      const TaskMsg grant = TaskMsg::Grant(request.job, index, state.durations_us[index],
                                           state.is_long, address_);
      bus_->Send(address_, request.sender, kTaskGrant, grant.Encode());
      break;
    }
    case kTaskDone: {
      const TaskMsg done = TaskMsg::Decode(message.payload);
      const auto it = jobs_.find(done.job);
      if (it == jobs_.end()) {
        // The job finished and was garbage-collected; this is a
        // re-dispatched copy completing behind the original.
        ++duplicate_completions_;
        break;
      }
      JobState& state = it->second;
      HAWK_CHECK_LT(done.task_index, state.tasks.size());
      TaskState& task = state.tasks[done.task_index];
      if (task.phase == TaskPhase::kDone) {
        ++duplicate_completions_;
        if (task.speculated) {
          // The losing copy of a speculated pair: its whole nominal runtime
          // was duplicate work.
          speculative_wasted_us_ += static_cast<uint64_t>(done.duration_us);
        }
        break;
      }
      // Karn's rule: only a copy that was never re-dispatched or duplicated
      // feeds the estimator — a retransmitted task's completion cannot be
      // attributed to one send, and would poison the smoothed overshoot.
      if (task.phase == TaskPhase::kGranted && task.attempts == 0 && !task.speculated) {
        recovery_.AddCompletionSample(task.granted_at, done.duration_us);
      }
      // The completion may come from a copy recovery already presumed dead
      // (phase back to kUnassigned) — it still finishes the task. Drop a
      // stale returned index so it cannot be re-granted.
      task.phase = TaskPhase::kDone;
      state.returned.erase(std::remove(state.returned.begin(), state.returned.end(),
                                       done.task_index),
                           state.returned.end());
      if (faults_.enabled) {
        state.probe_deadline = std::chrono::steady_clock::now() + faults_.detection_timeout;
      }
      ++state.finished;
      if (state.finished == state.durations_us.size()) {
        sink_->Record(done.job, state.is_long);
        jobs_.erase(it);
      }
      break;
    }
    default:
      HAWK_CHECK(false) << "frontend got unexpected message type " << message.type;
  }
}

void DistributedFrontend::ReapOverdue() {
  if (!faults_.Armed()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  for (auto& [job, state] : jobs_) {
    // Overdue grants: the executing node is presumed dead. Return the task
    // to the assignable pool and probe for a new slot to late-bind it.
    // Running copies past the speculation threshold (but not yet presumed
    // dead) get one duplicate grant path instead — the original stays
    // granted, and whichever copy completes first wins.
    uint32_t reaped = 0;
    for (uint32_t i = 0; i < state.tasks.size(); ++i) {
      TaskState& task = state.tasks[i];
      if (task.phase != TaskPhase::kGranted) {
        continue;
      }
      if (faults_.enabled && now > task.deadline) {
        task.phase = TaskPhase::kUnassigned;
        recovery_.BookReDispatch(&task.attempts);
        // A speculated task may already have its duplicate's index parked
        // in `returned`; don't queue it twice.
        if (std::find(state.returned.begin(), state.returned.end(), i) ==
            state.returned.end()) {
          state.returned.push_back(i);
          ++reaped;
        }
      } else if (faults_.SpeculationOn() && !task.speculated &&
                 now - task.granted_at >
                     std::chrono::microseconds(static_cast<int64_t>(
                         faults_.speculation_threshold *
                         static_cast<double>(state.durations_us[i])))) {
        task.speculated = true;
        ++tasks_speculated_;
        state.returned.push_back(i);
        ++reaped;
      }
    }
    const auto unassigned = static_cast<uint32_t>(state.returned.size()) +
                            static_cast<uint32_t>(state.durations_us.size()) -
                            state.next_unassigned;
    if (reaped > 0) {
      probes_re_sent_ += reaped;
      SendProbesLocked(job, state, reaped);
    } else if (faults_.enabled && unassigned > 0 && now > state.probe_deadline) {
      // No grant or completion progress for a full detection window while
      // tasks sit unassigned: every outstanding probe died with a crashed
      // node or was dropped by the bus. Replace them (one per pending task;
      // the watchdog re-fires if those die too).
      probes_re_sent_ += unassigned;
      SendProbesLocked(job, state, unassigned);
    }
  }
}

uint64_t DistributedFrontend::tasks_re_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_.re_dispatched();
}

uint64_t DistributedFrontend::probes_re_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probes_re_sent_;
}

uint64_t DistributedFrontend::duplicate_completions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicate_completions_;
}

uint64_t DistributedFrontend::tasks_speculated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_speculated_;
}

uint64_t DistributedFrontend::speculative_wasted_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return speculative_wasted_us_;
}

uint64_t DistributedFrontend::retries_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_.suppressed();
}

uint64_t DistributedFrontend::tasks_abandoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_.abandoned();
}

bool DistributedFrontend::JobProgress(JobId job, uint32_t* done, uint32_t* total) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return false;
  }
  *done = it->second.finished;
  *total = static_cast<uint32_t>(it->second.durations_us.size());
  return true;
}

// --- CentralBackend ---------------------------------------------------------

CentralBackend::CentralBackend(rpc::Address address, const Cluster* layout,
                               const FaultRecoveryPolicy& faults, rpc::MessageBus* bus,
                               CompletionSink* sink)
    : address_(address),
      faults_(faults),
      bus_(bus),
      sink_(sink),
      waiting_(*layout, layout->GeneralCount()),
      recovery_(faults),
      epoch_(std::chrono::steady_clock::now()) {
  HAWK_CHECK(layout != nullptr);
  HAWK_CHECK(bus != nullptr);
  HAWK_CHECK(sink != nullptr);
  lane_charges_.resize(waiting_.NumLanes());
  lane_running_.assign(waiting_.NumLanes(), 0);
  lane_deferred_finishes_.assign(waiting_.NumLanes(), 0);
}

void CentralBackend::Start() {
  bus_->Register(address_, [this](const rpc::BusMessage& m) { HandleMessage(m); });
}

void CentralBackend::PlaceTaskLocked(JobId job, JobState& state, uint32_t task_index) {
  SlotId lane = 0;
  const WorkerId worker = waiting_.AssignTask(NowUs(), state.estimate_us, &lane);
  lane_charges_[lane].push_back(state.estimate_us);
  const TaskMsg place = TaskMsg::Place(job, task_index, state.durations_us[task_index],
                                       state.is_long, address_, lane);
  TaskState& task = state.tasks[task_index];
  task.placed_at = std::chrono::steady_clock::now();
  if (faults_.enabled) {
    // The window, unlike the frontend's, has absorbed typical queue wait; a
    // task parked deep in a busy queue can still overrun its deadline and be
    // re-placed while alive — the duplicate completion is counted and
    // dropped.
    task.deadline =
        recovery_.Deadline(task.placed_at, place.duration_us, job, task_index, task.attempts);
  }
  bus_->Send(address_, worker, kTaskPlace, place.Encode());
}

void CentralBackend::HandleMessage(const rpc::BusMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (message.type) {
    case kJobSubmit: {
      const JobSubmitMsg submit = JobSubmitMsg::Decode(message.payload);
      JobState state;
      state.unfinished = static_cast<uint32_t>(submit.task_durations_us.size());
      state.is_long = submit.is_long;
      state.durations_us = submit.task_durations_us;
      state.estimate_us = submit.estimate_us;
      state.tasks.resize(state.durations_us.size());
      const auto emplaced = jobs_.emplace(submit.job, std::move(state));
      HAWK_CHECK(emplaced.second);
      ++jobs_handled_;
      for (uint32_t i = 0; i < emplaced.first->second.durations_us.size(); ++i) {
        PlaceTaskLocked(submit.job, emplaced.first->second, i);
      }
      break;
    }
    case kTaskStarted: {
      const JobRefMsg started = JobRefMsg::Decode(message.payload);
      // Lane-routed feedback: the monitor echoes the lane charged at
      // placement, so delivery reorderings on the multi-threaded bus cannot
      // misattribute the estimate (see slot_waiting_queue.h). The estimate
      // comes from the lane's charge FIFO, never from jobs_ — a short
      // task's kTaskDone handler may have run first and erased the record.
      HAWK_CHECK_LT(started.slot, lane_charges_.size());
      std::deque<int64_t>& charges = lane_charges_[started.slot];
      HAWK_CHECK(!charges.empty()) << "start on lane " << started.slot
                                   << " with no assignment charged";
      const int64_t estimate_us = charges.front();
      charges.pop_front();
      waiting_.OnTaskStartLane(started.slot, NowUs(), estimate_us);
      ++lane_running_[started.slot];
      // Replay a finish that overtook this start, so the lane is never left
      // marked executing with its completion already consumed.
      if (lane_deferred_finishes_[started.slot] > 0) {
        --lane_deferred_finishes_[started.slot];
        --lane_running_[started.slot];
        waiting_.OnTaskFinishLane(started.slot, NowUs());
      }
      break;
    }
    case kTaskDone: {
      const TaskMsg done = TaskMsg::Decode(message.payload);
      // Lane feedback first, and unconditionally: whichever copy finished
      // did start on the echoed lane, so the running count and waiting-time
      // estimate come back down even when the completion is a duplicate at
      // the job level.
      HAWK_CHECK_LT(done.slot, lane_running_.size());
      if (lane_running_[done.slot] > 0) {
        --lane_running_[done.slot];
        waiting_.OnTaskFinishLane(done.slot, NowUs());
      } else {
        // This task's own kTaskStarted handler has not run yet; park the
        // finish for it to replay.
        ++lane_deferred_finishes_[done.slot];
      }
      const auto it = jobs_.find(done.job);
      if (it == jobs_.end()) {
        // The job finished and was garbage-collected; a re-dispatched copy
        // completed behind the original.
        ++duplicate_completions_;
        break;
      }
      JobState& state = it->second;
      HAWK_CHECK_LT(done.task_index, state.tasks.size());
      if (state.tasks[done.task_index].done) {
        ++duplicate_completions_;
        break;
      }
      // Karn's rule: only never-re-placed tasks feed the adaptive window.
      if (state.tasks[done.task_index].attempts == 0) {
        recovery_.AddCompletionSample(state.tasks[done.task_index].placed_at, done.duration_us);
      }
      state.tasks[done.task_index].done = true;
      --state.unfinished;
      if (state.unfinished == 0) {
        sink_->Record(done.job, state.is_long);
        jobs_.erase(it);
      }
      break;
    }
    default:
      HAWK_CHECK(false) << "backend got unexpected message type " << message.type;
  }
}

void CentralBackend::ReapOverdue() {
  if (!faults_.enabled) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  for (auto& [job, state] : jobs_) {
    for (uint32_t i = 0; i < state.tasks.size(); ++i) {
      if (!state.tasks[i].done && now > state.tasks[i].deadline) {
        // Presumed dead with its node; place a fresh copy through the
        // waiting-time queue (which also re-arms the deadline, backed off
        // by the bumped attempt count). The dead copy's lane charge stays
        // in its FIFO — per-lane totals remain self-consistent because
        // charges and starts pair up in lane order, and a never-started
        // charge only pads that lane's estimate.
        recovery_.BookReDispatch(&state.tasks[i].attempts);
        PlaceTaskLocked(job, state, i);
      }
    }
  }
}

uint64_t CentralBackend::tasks_re_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_.re_dispatched();
}

uint64_t CentralBackend::duplicate_completions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicate_completions_;
}

uint64_t CentralBackend::retries_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_.suppressed();
}

uint64_t CentralBackend::tasks_abandoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_.abandoned();
}

bool CentralBackend::JobProgress(JobId job, uint32_t* done, uint32_t* total) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return false;
  }
  *total = static_cast<uint32_t>(it->second.durations_us.size());
  *done = *total - it->second.unfinished;
  return true;
}

}  // namespace runtime
}  // namespace hawk
