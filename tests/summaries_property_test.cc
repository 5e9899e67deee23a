// Parameterized property sweeps for the summary substrate: the formal
// guarantee of each sketch is asserted across an epsilon grid and several
// stream shapes — the "property tests on invariants" layer of the suite.

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/stream/zipf.h"
#include "disttrack/summaries/compactor_summary.h"
#include "disttrack/summaries/misra_gries.h"
#include "test_util.h"

namespace disttrack {
namespace summaries {
namespace {

enum class StreamShape { kUniform, kZipf, kSorted, kTwoHeavy };

std::vector<uint64_t> MakeStream(StreamShape shape, size_t n, uint64_t seed) {
  std::vector<uint64_t> out(n);
  switch (shape) {
    case StreamShape::kUniform: {
      Rng rng(seed);
      for (auto& v : out) v = rng.UniformU64(997);
      break;
    }
    case StreamShape::kZipf: {
      stream::ZipfGenerator zipf(5000, 1.2, seed);
      for (auto& v : out) v = zipf.Next();
      break;
    }
    case StreamShape::kSorted: {
      for (size_t i = 0; i < n; ++i) out[i] = i;
      break;
    }
    case StreamShape::kTwoHeavy: {
      Rng rng(seed);
      for (auto& v : out) {
        double u = rng.NextDouble();
        v = u < 0.4 ? 1 : (u < 0.7 ? 2 : 100 + rng.UniformU64(500));
      }
      break;
    }
  }
  return out;
}

std::string ShapeName(StreamShape shape) {
  switch (shape) {
    case StreamShape::kUniform:
      return "uniform";
    case StreamShape::kZipf:
      return "zipf";
    case StreamShape::kSorted:
      return "sorted";
    case StreamShape::kTwoHeavy:
      return "twoheavy";
  }
  return "?";
}

struct SketchParam {
  double eps;
  StreamShape shape;
};

std::string SketchParamName(const ::testing::TestParamInfo<SketchParam>& i) {
  return "eps" + std::to_string(static_cast<int>(i.param.eps * 1000)) + "_" +
         ShapeName(i.param.shape);
}

class FrequencySketchSweep : public ::testing::TestWithParam<SketchParam> {};

TEST_P(FrequencySketchSweep, MisraGriesGuarantee) {
  const auto& p = GetParam();
  auto data = MakeStream(p.shape, 30000, 7);
  MisraGries mg(static_cast<size_t>(std::ceil(1.0 / p.eps)));
  std::unordered_map<uint64_t, uint64_t> truth;
  for (uint64_t v : data) {
    mg.Insert(v);
    ++truth[v];
  }
  double bound = p.eps * static_cast<double>(data.size());
  for (const auto& [item, f] : truth) {
    ASSERT_LE(mg.Estimate(item), f);
    ASSERT_GE(static_cast<double>(mg.Estimate(item)) + bound + 1,
              static_cast<double>(f));
  }
  ASSERT_LE(mg.NumCounters(), static_cast<size_t>(std::ceil(1.0 / p.eps)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrequencySketchSweep,
    ::testing::Values(SketchParam{0.1, StreamShape::kUniform},
                      SketchParam{0.1, StreamShape::kZipf},
                      SketchParam{0.1, StreamShape::kTwoHeavy},
                      SketchParam{0.02, StreamShape::kUniform},
                      SketchParam{0.02, StreamShape::kZipf},
                      SketchParam{0.02, StreamShape::kSorted},
                      SketchParam{0.005, StreamShape::kZipf},
                      SketchParam{0.005, StreamShape::kTwoHeavy}),
    SketchParamName);

class RankSketchSweep : public ::testing::TestWithParam<SketchParam> {};

TEST_P(RankSketchSweep, CompactorVarianceAcrossQueries) {
  const auto& p = GetParam();
  auto data = MakeStream(p.shape, 8192, 19);
  std::vector<uint64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  // Probe the median.
  uint64_t x = sorted[sorted.size() / 2] + 1;
  uint64_t truth = static_cast<uint64_t>(
      std::upper_bound(sorted.begin(), sorted.end(), x - 1) - sorted.begin());
  auto errors = testing_util::CollectErrors(300, [&](uint64_t seed) {
    CompactorSummary c(p.eps, seed * 31 + 5);
    for (uint64_t v : data) c.Insert(v);
    return c.EstimateRank(x) - static_cast<double>(truth);
  });
  double bound = p.eps * static_cast<double>(data.size());
  EXPECT_LE(testing_util::VarianceOf(errors), bound * bound * 1.15);
  EXPECT_NEAR(testing_util::MeanOf(errors), 0.0,
              3 * bound / std::sqrt(300.0) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RankSketchSweep,
    ::testing::Values(SketchParam{0.1, StreamShape::kUniform},
                      SketchParam{0.1, StreamShape::kSorted},
                      SketchParam{0.05, StreamShape::kUniform},
                      SketchParam{0.05, StreamShape::kZipf},
                      SketchParam{0.02, StreamShape::kUniform},
                      SketchParam{0.02, StreamShape::kSorted}),
    SketchParamName);

// Compactor merge: merging in different orders preserves the guarantee
// (the mergeable-summaries property of [1] that §4 relies on).
TEST(CompactorMergeProperty, MergeOrderInvariantGuarantee) {
  const double eps = 0.05;
  std::vector<std::vector<uint64_t>> parts;
  Rng rng(23);
  std::vector<uint64_t> all;
  for (int i = 0; i < 4; ++i) {
    parts.emplace_back();
    for (int j = 0; j < 5000; ++j) {
      parts.back().push_back(rng.UniformU64(1 << 16));
      all.push_back(parts.back().back());
    }
  }
  std::sort(all.begin(), all.end());
  uint64_t x = 1 << 15;
  double truth = static_cast<double>(
      std::lower_bound(all.begin(), all.end(), x) - all.begin());

  // Left fold and balanced merge orders.
  for (int order = 0; order < 2; ++order) {
    auto errors = testing_util::CollectErrors(150, [&](uint64_t seed) {
      std::vector<std::unique_ptr<CompactorSummary>> s;
      for (int i = 0; i < 4; ++i) {
        s.push_back(std::make_unique<CompactorSummary>(
            eps, seed * 7 + static_cast<uint64_t>(i)));
        for (uint64_t v : parts[static_cast<size_t>(i)]) s.back()->Insert(v);
      }
      if (order == 0) {
        s[0]->MergeFrom(*s[1]);
        s[0]->MergeFrom(*s[2]);
        s[0]->MergeFrom(*s[3]);
      } else {
        s[0]->MergeFrom(*s[1]);
        s[2]->MergeFrom(*s[3]);
        s[0]->MergeFrom(*s[2]);
      }
      EXPECT_EQ(s[0]->WeightTotal(), all.size());
      return s[0]->EstimateRank(x) - truth;
    });
    double bound = 2 * eps * static_cast<double>(all.size());
    EXPECT_LE(testing_util::VarianceOf(errors), bound * bound)
        << "order " << order;
    EXPECT_NEAR(testing_util::MeanOf(errors), 0.0, 250.0) << "order " << order;
  }
}

}  // namespace
}  // namespace summaries
}  // namespace disttrack
