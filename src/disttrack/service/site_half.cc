#include "disttrack/service/site_half.h"

#include <type_traits>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"

namespace disttrack {
namespace service {

namespace {

// One site of a whole tracker, permanently in crash replay: the three
// trackers share the seam's signatures, so one template hosts them all.
template <typename Tracker>
class TrackerSite : public SiteHalf {
 public:
  template <typename Options>
  TrackerSite(const Options& options, int site)
      : tracker_(options), site_(site) {
    // Rank keeps an instance journal for crash replay to walk; a site
    // process has none to walk.
    if constexpr (std::is_same_v<Tracker, rank::RandomizedRankTracker>) {
      tracker_.set_detached_replay(true);
    }
    tracker_.BeginCrashReplay(site_);
  }
  void set_wire_tap(sim::wire::WireTap* tap) override {
    tracker_.set_wire_tap(tap);
  }
  void Arrive(uint64_t key) override {
    tracker_.ReplayCrashArrive(site_, key, nullptr);
  }
  void ApplyRitual(uint64_t n_bar) override {
    tracker_.ReplayCrashRitual(site_, n_bar);
  }
  bool SnapshotReady() const override {
    return tracker_.SiteSnapshotReady(site_);
  }
  void Serialize(std::vector<uint64_t>* out) const override {
    tracker_.SerializeSiteState(site_, out);
  }
  void Restore(const std::vector<uint64_t>& blob) override {
    tracker_.RestoreSiteState(site_, blob);
  }

 private:
  Tracker tracker_;
  int site_;
};

}  // namespace

std::unique_ptr<SiteHalf> SiteHalf::Create(const ServiceOptions& options,
                                           int site) {
  switch (options.tracker) {
    case TrackerKind::kCount:
      return std::make_unique<TrackerSite<count::RandomizedCountTracker>>(
          options.CountOptions(), site);
    case TrackerKind::kFrequency:
      return std::make_unique<
          TrackerSite<frequency::RandomizedFrequencyTracker>>(
          options.FrequencyOptions(), site);
    case TrackerKind::kRank:
      return std::make_unique<TrackerSite<rank::RandomizedRankTracker>>(
          options.RankOptions(), site);
  }
  return nullptr;
}

}  // namespace service
}  // namespace disttrack
