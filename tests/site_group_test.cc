// Differential tests for the site-grouped delivery layer
// (common/site_group.h): the permutation must be a stable counting sort
// (per-site stream order preserved), its histogram must match a direct
// tally, pooled scratch must survive reuse across calls of different
// shapes, and the broadcast-safety gate and the cut must agree with a
// replayed CoarseTracker on whether, and where, a chunk broadcasts.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/sim/comm_meter.h"
#include "disttrack/stream/workload.h"
#include "test_util.h"

namespace disttrack {
namespace {

using stream::MakeFrequencyWorkload;
using stream::SiteSchedule;

// Reference grouping: per-site vectors in arrival order.
std::vector<std::vector<uint64_t>> ReferenceGroups(const sim::Workload& w,
                                                   size_t begin, size_t end,
                                                   int k) {
  std::vector<std::vector<uint64_t>> out(static_cast<size_t>(k));
  for (size_t i = begin; i < end; ++i) {
    out[static_cast<size_t>(w[i].site)].push_back(w[i].key);
  }
  return out;
}

void ExpectMatchesReference(const SiteGrouper& grouper, const sim::Workload& w,
                            size_t begin, size_t end, int k) {
  auto ref = ReferenceGroups(w, begin, end, k);
  size_t spans_seen = 0;
  int last_site = -1;
  for (const SiteGrouper::Span& span : grouper.spans()) {
    ASSERT_GT(span.site, last_site) << "spans must ascend by site";
    last_site = span.site;
    const auto& expect = ref[static_cast<size_t>(span.site)];
    ASSERT_EQ(span.length, expect.size());
    ASSERT_EQ(grouper.histogram()[span.site], expect.size());
    for (uint32_t j = 0; j < span.length; ++j) {
      ASSERT_EQ(span.data[j], expect[j])
          << "site " << span.site << " position " << j
          << " — stability violated";
    }
    ++spans_seen;
  }
  size_t nonempty = 0;
  for (const auto& g : ref) {
    if (!g.empty()) ++nonempty;
  }
  EXPECT_EQ(spans_seen, nonempty) << "empty sites must produce no span";
}

TEST(SiteGroupTest, ScatterIsAStableCountingSortAcrossSchedules) {
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite,
                     SiteSchedule::kSkewedGeometric, SiteSchedule::kBursty}) {
    const int k = 13;
    auto w = MakeFrequencyWorkload(k, 20000, sched, 1000, 1.1, 99);
    SiteGrouper grouper;
    grouper.ScatterBySite(w.data(), w.size(), k);
    ExpectMatchesReference(grouper, w, 0, w.size(), k);
  }
}

TEST(SiteGroupTest, PooledScratchSurvivesReuseAcrossShapes) {
  // One grouper instance over chunks of wildly different sizes and site
  // counts — buffers are pooled, so later results must not be polluted
  // by earlier calls.
  SiteGrouper grouper;
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    int k = 1 + static_cast<int>(rng.UniformU64(40));
    size_t n = 1 + static_cast<size_t>(rng.UniformU64(5000));
    auto w = MakeFrequencyWorkload(k, n, SiteSchedule::kUniformRandom, 500,
                                   0.0, 1000 + static_cast<uint64_t>(round));
    size_t begin = static_cast<size_t>(rng.UniformU64(w.size()));
    grouper.ScatterBySite(w.data() + begin, w.size() - begin, k);
    ExpectMatchesReference(grouper, w, begin, w.size(), k);
  }
}

TEST(SiteGroupTest, SingleSiteAndMaxSiteEdges) {
  // k = 1: the whole batch is one span.
  sim::Workload w;
  for (uint64_t i = 0; i < 100; ++i) w.push_back(sim::Arrival{0, i * 3});
  SiteGrouper grouper;
  grouper.ScatterBySite(w.data(), w.size(), 1);
  ASSERT_EQ(grouper.spans().size(), 1u);
  EXPECT_EQ(grouper.spans()[0].site, 0);
  EXPECT_EQ(grouper.spans()[0].length, 100u);
  // Highest valid site id only.
  const int k = 1000;
  sim::Workload top;
  for (uint64_t i = 0; i < 17; ++i) top.push_back(sim::Arrival{k - 1, i});
  grouper.ScatterBySite(top.data(), top.size(), k);
  ASSERT_EQ(grouper.spans().size(), 1u);
  EXPECT_EQ(grouper.spans()[0].site, k - 1);
  EXPECT_EQ(grouper.spans()[0].length, 17u);
  for (uint32_t j = 0; j < 17; ++j) EXPECT_EQ(grouper.spans()[0].data[j], j);
}

TEST(SiteGroupTest, CountPassesMatchScatterHistogram) {
  const int k = 9;
  auto w = MakeFrequencyWorkload(k, 5000, SiteSchedule::kSkewedGeometric, 100,
                                 1.1, 5);
  sim::SiteStream sites(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    sites[i] = static_cast<uint16_t>(w[i].site);
  }
  SiteGrouper a, b, c;
  a.ScatterBySite(w.data(), w.size(), k);
  b.CountArrivals(w.data(), w.size(), k);
  c.CountSites(sites.data(), sites.size(), k);
  for (int s = 0; s < k; ++s) {
    EXPECT_EQ(b.histogram()[s], a.histogram()[s]);
    EXPECT_EQ(c.histogram()[s], a.histogram()[s]);
  }
  ASSERT_EQ(b.spans().size(), a.spans().size());
  for (size_t i = 0; i < a.spans().size(); ++i) {
    EXPECT_EQ(b.spans()[i].site, a.spans()[i].site);
    EXPECT_EQ(b.spans()[i].length, a.spans()[i].length);
    EXPECT_EQ(b.spans()[i].data, nullptr);
  }
}

TEST(SiteGroupDeathTest, OutOfRangeSiteAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Workload w{sim::Arrival{0, 1}, sim::Arrival{3, 2}};
  SiteGrouper grouper;
  EXPECT_DEATH(grouper.ScatterBySite(w.data(), w.size(), 3),
               "out of range");
  EXPECT_DEATH(grouper.CountArrivals(w.data(), w.size(), 3),
               "out of range");
}

// The broadcast-safety gate and the cut are exact: for any chunking of a
// real workload, BatchCannotBroadcast must return true exactly when
// replaying the chunk through the CoarseTracker produces no broadcast, and
// BroadcastFreePrefix must return the index of the chunk's first
// broadcasting arrival, or the chunk length when none broadcasts. Chunks
// are cut three ways besides at random: to open on a broadcasting
// arrival, to close on one, and with carry (arrivals already delivered to
// a site but not yet advanced through its half, which the replay advances
// before the chunk).
TEST(SiteGroupTest, BatchCannotBroadcastIsExactAgainstReplay) {
  const int k = 11;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite,
                     SiteSchedule::kBursty}) {
    auto w = MakeFrequencyWorkload(k, 60000, sched, 100, 0.0, 17);
    sim::CommMeter meter(k);
    count::CoarseTracker coarse(&meter);
    std::vector<count::CoarseSite> sites(static_cast<size_t>(k));
    SiteGrouper grouper;
    Rng rng(23);
    size_t pos = 0;
    int safe_chunks = 0;
    int unsafe_chunks = 0;
    int opens_on_broadcast = 0;
    int closes_on_broadcast = 0;
    int carry_cuts = 0;
    // Predicts, replays and checks the chunk [pos, pos + len).
    auto check_chunk = [&](size_t len, const std::vector<uint64_t>* carry) {
      const uint64_t* c = carry != nullptr ? carry->data() : nullptr;
      grouper.CountArrivals(w.data() + pos, len, k);
      bool predicted_safe =
          coarse.BatchCannotBroadcast(sites, grouper.histogram(), c);
      size_t predicted_cut =
          coarse.BroadcastFreePrefix(sites, w.data() + pos, len, c);
      for (size_t i = 0; c != nullptr && i < sites.size(); ++i) {
        sites[i].AdvanceNoReport(c[i]);
      }
      uint64_t round_before = coarse.round();
      size_t cut = len;
      for (size_t i = 0; i < len; ++i) {
        int site = w[pos + i].site;
        coarse.Arrive(site, &sites[static_cast<size_t>(site)]);
        if (cut == len && coarse.round() != round_before) cut = i;
      }
      EXPECT_EQ(predicted_safe, cut == len) << "chunk at " << pos << " len "
                                            << len;
      EXPECT_EQ(predicted_cut, cut) << "chunk at " << pos << " len " << len;
      (cut == len ? safe_chunks : unsafe_chunks) += 1;
      if (cut == 0) ++opens_on_broadcast;
      if (len > 1 && cut == len - 1) ++closes_on_broadcast;
      if (c != nullptr && cut < len) ++carry_cuts;
      pos += len;
    };
    // Distance from pos to the next broadcasting arrival, found on copies
    // (w.size() when there is none within reach).
    auto next_broadcast = [&]() {
      count::CoarseTracker ahead = coarse;
      std::vector<count::CoarseSite> ahead_sites = sites;
      uint64_t round_before = ahead.round();
      for (size_t i = pos; i < w.size() && i < pos + 4096; ++i) {
        int site = w[i].site;
        ahead.Arrive(site, &ahead_sites[static_cast<size_t>(site)]);
        if (ahead.round() != round_before) return i - pos;
      }
      return w.size();
    };
    for (int chunk = 0; pos < w.size() && !HasFailure(); ++chunk) {
      size_t random_len =
          std::min<size_t>(1 + rng.UniformU64(4096), w.size() - pos);
      size_t to_broadcast = next_broadcast();
      if (chunk % 3 == 0 && to_broadcast < w.size()) {
        // Open a chunk on the broadcasting arrival.
        if (to_broadcast > 0) check_chunk(to_broadcast, nullptr);
        check_chunk(std::min(random_len, w.size() - pos), nullptr);
      } else if (chunk % 3 == 1 && to_broadcast < w.size()) {
        // Close a chunk on it.
        check_chunk(to_broadcast + 1, nullptr);
      } else if (chunk % 3 == 2) {
        std::vector<uint64_t> carry(sites.size());
        for (size_t i = 0; i < sites.size(); ++i) {
          carry[i] = rng.UniformU64(sites[i].arrivals_until_report());
        }
        check_chunk(random_len, &carry);
      } else {
        check_chunk(random_len, nullptr);
      }
    }
    EXPECT_GT(safe_chunks, 0);
    EXPECT_GT(unsafe_chunks, 0) << "workload must exercise both outcomes";
    EXPECT_GT(opens_on_broadcast, 0);
    EXPECT_GT(closes_on_broadcast, 0);
    EXPECT_GT(carry_cuts, 0);
  }
}

}  // namespace
}  // namespace disttrack
