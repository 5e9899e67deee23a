#include "disttrack/sim/parallel_cluster.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "disttrack/sim/online.h"

namespace disttrack {
namespace sim {

// ------------------------------------------------------------ worker pool

// threads_ - 1 persistent workers plus the calling thread; tasks are
// handed out via an atomic cursor, and the start/done hand-offs go
// through one mutex + two condvars, which also establishes the
// happens-before edges the epoch barriers rely on.
class ParallelCluster::Pool {
 public:
  explicit Pool(int workers) {
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void Run(int num_tasks, const std::function<void(int)>& fn) {
    if (num_tasks <= 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      num_tasks_ = num_tasks;
      next_task_.store(0, std::memory_order_relaxed);
      active_ = static_cast<int>(threads_.size());
      ++generation_;
    }
    cv_start_.notify_all();
    Drain(fn, num_tasks);
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return active_ == 0; });
    fn_ = nullptr;
  }

 private:
  void Drain(const std::function<void(int)>& fn, int num_tasks) {
    for (;;) {
      int task = next_task_.fetch_add(1, std::memory_order_relaxed);
      if (task >= num_tasks) break;
      fn(task);
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      int num_tasks = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_start_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        fn = fn_;
        num_tasks = num_tasks_;
      }
      Drain(*fn, num_tasks);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_;
      }
      cv_done_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* fn_ = nullptr;
  std::atomic<int> next_task_{0};
  int num_tasks_ = 0;
  int active_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

// ---------------------------------------------------------------- driver

ParallelCluster::ParallelCluster(int threads)
    : threads_(threads <= 0
                   ? std::max(1u, std::thread::hardware_concurrency())
                   : threads),
      auto_threads_(threads <= 0),
      replay_threads_(threads_) {}

ParallelCluster::~ParallelCluster() = default;

void ParallelCluster::RunEpochTasks(int num_tasks, uint64_t epoch_len,
                                    const std::function<void(int)>& fn) {
  if (replay_threads_ == 1 || num_tasks <= 1 ||
      epoch_len < 2048 * static_cast<uint64_t>(replay_threads_)) {
    for (int i = 0; i < num_tasks; ++i) fn(i);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<Pool>(threads_ - 1);
  pool_->Run(num_tasks, fn);
}

namespace {

// Push length of count and frequency replays. Both sessions are
// bit-identical to serial delivery for any push partition; slicing keeps
// a count push that broadcasts (unwound and re-delivered serially) short.
// Slicing each checkpoint segment from its start yields exactly the cuts
// of PushBoundaries(total, kReplayPush, checkpoints).
constexpr uint64_t kReplayPush = uint64_t{1} << 16;

}  // namespace

std::vector<Checkpoint> ParallelCluster::ReplayCountSites(
    CountTrackerInterface* tracker, const SiteStream& sites,
    double checkpoint_factor) {
  OnlineCountSession session(this, tracker);
  last_replay_sharded_ = session.sharded();
  if (!last_replay_sharded_) {
    return sim::ReplayCountSites(tracker, sites, checkpoint_factor);
  }
  uint64_t n = 0;
  return ReplayImpl(
      sites.size(), checkpoint_factor,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t pos = begin; pos < end; pos += kReplayPush) {
          session.PushSites(sites.data() + pos,
                            std::min(kReplayPush, end - pos));
        }
        n = end;
      },
      [&]() {
        return std::pair<double, double>(tracker->EstimateCount(),
                                         static_cast<double>(n));
      });
}

std::vector<Checkpoint> ParallelCluster::ReplayCount(
    CountTrackerInterface* tracker, const Workload& workload,
    double checkpoint_factor) {
  // The count session ingests compact 16-bit site ids.
  int num_sites = tracker->meter().num_sites();
  if (tracker->shard_ingest() == nullptr || num_sites > (1 << 16)) {
    last_replay_sharded_ = false;
    return sim::ReplayCount(tracker, workload, checkpoint_factor);
  }
  SiteStream sites(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    CheckSiteInRange(workload[i].site, num_sites);
    sites[i] = static_cast<uint16_t>(workload[i].site);
  }
  return ReplayCountSites(tracker, sites, checkpoint_factor);
}

std::vector<Checkpoint> ParallelCluster::ReplayFrequency(
    FrequencyTrackerInterface* tracker, const Workload& workload,
    uint64_t query_item, double checkpoint_factor) {
  OnlineKeyedSession session(this, tracker);
  last_replay_sharded_ = session.sharded();
  if (!last_replay_sharded_) {
    return sim::ReplayFrequency(tracker, workload, query_item,
                                checkpoint_factor);
  }
  uint64_t freq = 0;
  return ReplayImpl(
      workload.size(), checkpoint_factor,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t pos = begin; pos < end; pos += kReplayPush) {
          session.Push(workload.data() + pos,
                       std::min(kReplayPush, end - pos));
        }
        session.Sync();
        for (uint64_t i = begin; i < end; ++i) {
          if (workload[i].key == query_item) ++freq;
        }
      },
      [&]() {
        return std::pair<double, double>(tracker->EstimateFrequency(query_item),
                                         static_cast<double>(freq));
      });
}

std::vector<Checkpoint> ParallelCluster::ReplayRank(
    RankTrackerInterface* tracker, const Workload& workload,
    uint64_t query_value, double checkpoint_factor) {
  OnlineKeyedSession session(this, tracker);
  last_replay_sharded_ = session.sharded();
  if (!last_replay_sharded_) {
    return sim::ReplayRank(tracker, workload, query_value, checkpoint_factor);
  }
  uint64_t rank = 0;
  return ReplayImpl(
      workload.size(), checkpoint_factor,
      [&](uint64_t begin, uint64_t end) {
        // One push per segment: rank's per-site run cuts must match the
        // serial driver's ArriveBatch calls.
        session.Push(workload.data() + begin, end - begin);
        session.Sync();
        for (uint64_t i = begin; i < end; ++i) {
          if (workload[i].key < query_value) ++rank;
        }
      },
      [&]() {
        return std::pair<double, double>(tracker->EstimateRank(query_value),
                                         static_cast<double>(rank));
      });
}

}  // namespace sim
}  // namespace disttrack
