// Table 1, rank-tracking rows.
//
//   [29]: space O(1/ε · log n),   comm O(k/ε · logN · log²(1/ε))
//   new:  space O(1/(ε√k)·log^1.5), comm O(√k/ε · logN · log^1.5(1/(ε√k)))
//
// The deterministic baseline is the [29] dyadic reduction (universe_bits
// levels in place of log(1/ε)); the randomized protocol is §4's algorithm C
// over compactor summaries. Identical uniform-value workloads, k sweep.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "disttrack/common/stats.h"

namespace {

using disttrack::LogLogSlope;
using disttrack::bench::PrintHeader;
using disttrack::bench::PrintRow;
using disttrack::bench::Rule;
using disttrack::bench::RunRank;
using disttrack::core::Algorithm;
using disttrack::core::TrackerOptions;
using disttrack::stream::MakeRankWorkload;
using disttrack::stream::SiteSchedule;
using disttrack::stream::ValueOrder;

}  // namespace

int main() {
  const double kEps = 0.05;
  const uint64_t kN = 1ull << 17;
  const int kUniverseBits = 10;
  std::printf("== Table 1 / rank-tracking ==  (N = %llu, eps = %.3f, "
              "uniform values in [0, 2^%d))\n",
              static_cast<unsigned long long>(kN), kEps, kUniverseBits);
  std::printf("   deterministic [29] = dyadic reduction with L = %d levels "
              "(stands in for log(1/eps); see docs/REPRODUCTION.md)\n\n",
              kUniverseBits);
  PrintHeader();

  std::vector<double> ks, det_words, rand_words;
  for (int k : {4, 16, 64}) {
    auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                              ValueOrder::kUniformRandom, kUniverseBits,
                              555 + static_cast<uint64_t>(k));
    TrackerOptions o;
    o.num_sites = k;
    o.epsilon = kEps;
    o.seed = 7;
    o.universe_bits = kUniverseBits;
    const uint64_t query = 1ull << (kUniverseBits - 1);  // median
    auto det = RunRank(Algorithm::kDeterministic, o, w, query);
    auto rnd = RunRank(Algorithm::kRandomized, o, w, query);
    PrintRow("deterministic [29]  k=" + std::to_string(k), det, kEps);
    PrintRow("randomized (new)    k=" + std::to_string(k), rnd, kEps);
    std::printf("%-34s ratio det/rand (words) = %.2f\n", "",
                static_cast<double>(det.words) /
                    static_cast<double>(rnd.words));
    Rule();
    ks.push_back(k);
    det_words.push_back(static_cast<double>(det.words));
    rand_words.push_back(static_cast<double>(rnd.words));
  }

  std::printf("\nGrowth exponents in k (log-log slope, words):\n");
  std::printf("  deterministic [29] : %.2f  (theory 1.0 asymptotically; at "
              "bench scale its per-level drift threshold saturates at 1, "
              "so it forwards ~L words/element regardless of k — the "
              "det/rand word ratios above are the meaningful signal)\n",
              LogLogSlope(ks, det_words));
  std::printf("  randomized (new)   : %.2f  (theory 0.5)\n",
              LogLogSlope(ks, rand_words));
  std::printf("\nBoth protocols answer any rank within eps*n; worst-rel "
              "column reports the observed worst checkpoint error for the "
              "median query.\n");
  return 0;
}
