// Tests for the frequency-summary substrate: Misra–Gries [20], the
// deterministic frequency baseline, including its formal error guarantee.

#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/stream/zipf.h"
#include "disttrack/summaries/misra_gries.h"

namespace disttrack {
namespace summaries {
namespace {

TEST(MisraGriesTest, ExactWhenUnderCapacity) {
  MisraGries mg(10);
  for (int i = 0; i < 5; ++i) {
    mg.Insert(7);
    mg.Insert(9);
  }
  EXPECT_EQ(mg.Estimate(7), 5u);
  EXPECT_EQ(mg.Estimate(9), 5u);
  EXPECT_EQ(mg.Estimate(1), 0u);
  EXPECT_EQ(mg.UndercountBound(), 0u);
}

TEST(MisraGriesTest, NeverOverestimates) {
  MisraGries mg(4);
  std::unordered_map<uint64_t, uint64_t> truth;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    uint64_t item = rng.UniformU64(40);
    mg.Insert(item);
    ++truth[item];
  }
  for (const auto& [item, f] : truth) {
    EXPECT_LE(mg.Estimate(item), f);
  }
}

TEST(MisraGriesTest, UndercountWithinGuarantee) {
  const size_t kCapacity = 9;  // error <= n / (capacity + 1) = n / 10
  MisraGries mg(kCapacity);
  std::unordered_map<uint64_t, uint64_t> truth;
  Rng rng(19);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    uint64_t item = rng.UniformU64(100);
    mg.Insert(item);
    ++truth[item];
  }
  uint64_t bound = kN / (kCapacity + 1);
  for (const auto& [item, f] : truth) {
    EXPECT_GE(mg.Estimate(item) + bound, f) << "item " << item;
  }
  EXPECT_LE(mg.UndercountBound(), bound);
}

TEST(MisraGriesTest, HeavyHitterSurvives) {
  MisraGries mg(10);
  stream::ZipfGenerator zipf(1000, 1.3, 23);
  uint64_t f0 = 0;
  for (int i = 0; i < 50000; ++i) {
    uint64_t item = zipf.Next();
    mg.Insert(item);
    if (item == 0) ++f0;
  }
  // Item 0 carries >> n/11 mass under Zipf(1.3): it must be tracked.
  EXPECT_GT(mg.Estimate(0), 0u);
  EXPECT_LE(mg.Estimate(0), f0);
  EXPECT_GE(mg.Estimate(0) + mg.n() / 11, f0);
}

TEST(MisraGriesTest, CapacityIsRespected) {
  MisraGries mg(5);
  for (uint64_t i = 0; i < 1000; ++i) mg.Insert(i);
  EXPECT_LE(mg.NumCounters(), 5u);
  EXPECT_LE(mg.SpaceWords(), 2 * 5 + 2u);
}

TEST(MisraGriesTest, ItemsEnumeratesCounters) {
  MisraGries mg(4);
  mg.Insert(1);
  mg.Insert(1);
  mg.Insert(2);
  auto items = mg.Items();
  EXPECT_EQ(items.size(), 2u);
}

TEST(MisraGriesTest, ClearResets) {
  MisraGries mg(4);
  mg.Insert(1);
  mg.Clear();
  EXPECT_EQ(mg.n(), 0u);
  EXPECT_EQ(mg.Estimate(1), 0u);
  EXPECT_EQ(mg.NumCounters(), 0u);
}

TEST(MisraGriesTest, AllDistinctStreamDecrements) {
  MisraGries mg(3);
  for (uint64_t i = 0; i < 12; ++i) mg.Insert(i);
  // After many distinct inserts over capacity 3, counters churn but the
  // guarantee f - n/4 <= est holds trivially (all f = 1, n/4 = 3).
  EXPECT_LE(mg.NumCounters(), 3u);
  EXPECT_GT(mg.UndercountBound(), 0u);
}

}  // namespace
}  // namespace summaries
}  // namespace disttrack
