#include "disttrack/count/coarse_tracker.h"

#include <cstdio>
#include <cstdlib>

namespace disttrack {
namespace count {

void CoarseTracker::Report(int site, uint64_t delta) {
  // Site -> coordinator: the local count has doubled.
  meter_->RecordUpload(site, 1);
  sim::wire::Emit(tap_, sim::wire::MsgType::kCoarseReport, site,
                  coordinator_.round, delta);

  // Coordinator: broadcast when n' has at least doubled since the last
  // broadcast (first broadcast at the very first report).
  if (!coordinator_.ApplyReport(delta)) return;
  if (grouped_chunk_) {
    std::fprintf(stderr,
                 "CoarseTracker: broadcast inside a grouped chunk — the "
                 "broadcast-safety test is wrong\n");
    std::abort();
  }
  meter_->RecordBroadcast(1);
  sim::wire::Emit(tap_, sim::wire::MsgType::kBroadcast, -1,
                  coordinator_.round, coordinator_.round, coordinator_.n_bar);
  for (auto& obs : observers_) obs(coordinator_.round, coordinator_.n_bar);
}

}  // namespace count
}  // namespace disttrack
