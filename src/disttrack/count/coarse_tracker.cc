#include "disttrack/count/coarse_tracker.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace disttrack {
namespace count {

CoarseTracker::CoarseTracker(int num_sites, sim::CommMeter* meter)
    : meter_(meter), local_(static_cast<size_t>(num_sites)) {}

void CoarseTracker::AddObserver(BroadcastObserver observer) {
  observers_.push_back(std::move(observer));
}

uint64_t CoarseTracker::local_count(int site) const {
  if (site < 0 || site >= num_sites()) return 0;
  return local_[static_cast<size_t>(site)].count;
}

// disttrack-lint: allow(site-check) -- inner engine: CoarseTracker is only
// reachable through an owning tracker whose entry point already validated
// the site id; re-checking per arrival would tax the hot path for nothing.
void CoarseTracker::Arrive(int site) {
  if (uint64_t delta = local_[static_cast<size_t>(site)].Arrive()) {
    ReportAndMaybeBroadcast(site, delta);
  }
}

// disttrack-lint: allow(site-check) -- inner engine: see Arrive() above.
void CoarseTracker::ArriveRun(int site, uint64_t count) {
  CoarseSite& s = local_[static_cast<size_t>(site)];
  while (count > 0) {
    uint64_t gap = s.next_report - s.count;  // invariant: count < next_report
    if (count < gap) {
      s.count += count;
      return;
    }
    s.count += gap - 1;
    count -= gap;
    ReportAndMaybeBroadcast(site, s.Arrive());
  }
}

void CoarseTracker::AdvanceLocalNoReport(int site, uint64_t count) {
  CoarseSite& s = local_[static_cast<size_t>(site)];
  if (count >= s.next_report - s.count) {
    std::fprintf(stderr,
                 "CoarseTracker: eventless advance of %llu crosses "
                 "site %d's report threshold\n",
                 static_cast<unsigned long long>(count), site);
    std::abort();
  }
  s.count += count;
}

void CoarseTracker::SerializeSite(int site, std::vector<uint64_t>* out) const {
  const CoarseSite& s = local_[static_cast<size_t>(site)];
  out->push_back(s.count);
  out->push_back(s.next_report);
  out->push_back(s.last_reported);
}

size_t CoarseTracker::RestoreSite(int site, const uint64_t* data) {
  local_[static_cast<size_t>(site)] = CoarseSite{data[0], data[1], data[2]};
  return 3;
}

void CoarseTracker::ReplayArrive(int site) {
  uint64_t delta = local_[static_cast<size_t>(site)].Arrive();
  if (delta > 0) EmitReport(site, delta);
}

void CoarseTracker::EmitReport(int site, uint64_t delta) {
  if (tap_ == nullptr) return;
  sim::wire::Message msg;
  msg.type = sim::wire::MsgType::kCoarseReport;
  msg.site = site;
  msg.epoch = coordinator_.round;
  msg.a = delta;
  msg.paper_words = 1;
  tap_->OnMessage(std::move(msg));
}

void CoarseTracker::ReportAndMaybeBroadcast(int site, uint64_t delta) {
  // Site -> coordinator: the local count has doubled.
  meter_->RecordUpload(site, 1);
  EmitReport(site, delta);

  // Coordinator: broadcast when n' has at least doubled since the last
  // broadcast (first broadcast at the very first report).
  if (!coordinator_.ApplyReport(delta)) return;
  meter_->RecordBroadcast(1);
  if (tap_ != nullptr) {
    sim::wire::Message msg;
    msg.type = sim::wire::MsgType::kBroadcast;
    msg.site = -1;
    msg.epoch = coordinator_.round;
    msg.a = coordinator_.round;
    msg.b = coordinator_.n_bar;
    msg.paper_words = 1;
    tap_->OnMessage(std::move(msg));
  }
  for (auto& obs : observers_) obs(coordinator_.round, coordinator_.n_bar);
}

}  // namespace count
}  // namespace disttrack
