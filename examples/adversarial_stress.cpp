// Scenario: stress the trackers with the paper's own lower-bound
// adversaries — the distribution µ of Theorem 2.2 (all mass at one random
// site, or perfectly balanced) and the s = k/2 ± √k subround schedule of
// Theorem 2.4 — then batter the fault-tolerant runtime with seeded fault
// storms (drops, duplicates, reorders, site crashes, coordinator
// restarts) and demand bit-identical convergence to the fault-free run.
//
//   $ ./examples/adversarial_stress              # full stress + 32 storms
//   $ ./examples/adversarial_stress <seed>       # replay one storm seed
//
// On any divergence the program prints the failing FaultPlan seed and
// exits nonzero, so every failure is one command to reproduce.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>

#include "disttrack/core/tracking.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/sim/robust_cluster.h"
#include "disttrack/stream/hard_instances.h"
#include "disttrack/stream/workload.h"

using disttrack::core::Algorithm;
using disttrack::core::TrackerOptions;

namespace {

struct Outcome {
  uint64_t messages = 0;
  double worst_rel = 0;
};

Outcome RunOn(const disttrack::sim::Workload& workload, Algorithm algorithm,
              uint64_t seed) {
  TrackerOptions options;
  options.num_sites = 128;
  options.epsilon = 0.02;
  options.seed = seed;
  std::unique_ptr<disttrack::sim::CountTrackerInterface> tracker;
  if (!disttrack::core::MakeCountTracker(algorithm, options, &tracker).ok()) {
    return Outcome{};
  }
  auto checkpoints = disttrack::sim::ReplayCount(tracker.get(), workload, 1.3);
  Outcome out;
  out.messages = tracker->meter().TotalMessages();
  for (const auto& c : checkpoints) {
    if (c.n < 1000) continue;
    out.worst_rel = std::max(
        out.worst_rel,
        std::fabs(c.estimate - c.truth) / static_cast<double>(c.n));
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One fault storm: replays all three trackers under FaultPlan::FromSeed
/// and compares every checkpoint bitwise against the fault-free baseline.
/// Returns false (after printing the reproduction command) on divergence.
bool RunStorm(uint64_t storm_seed, bool verbose) {
  const int k = 6;
  const uint64_t n = 4000;

  struct Leg {
    const char* name;
    std::function<disttrack::sim::RobustReport(
        const disttrack::sim::FaultPlan&)>
        run;
  };

  disttrack::count::RandomizedCountOptions count_opt;
  count_opt.num_sites = k;
  count_opt.epsilon = 0.05;
  count_opt.seed = 101;
  auto count_w = disttrack::stream::MakeCountWorkload(
      k, n, disttrack::stream::SiteSchedule::kUniformRandom, 11);

  disttrack::frequency::RandomizedFrequencyOptions freq_opt;
  freq_opt.num_sites = k;
  freq_opt.epsilon = 0.1;
  freq_opt.seed = 103;
  auto freq_w = disttrack::stream::MakeFrequencyWorkload(
      k, n, disttrack::stream::SiteSchedule::kUniformRandom, 64, 1.1, 13);

  disttrack::rank::RandomizedRankOptions rank_opt;
  rank_opt.num_sites = k;
  rank_opt.epsilon = 0.1;
  rank_opt.seed = 107;
  auto rank_w = disttrack::stream::MakeRankWorkload(
      k, n, disttrack::stream::SiteSchedule::kUniformRandom,
      disttrack::stream::ValueOrder::kUniformRandom, 24, 17);

  const Leg legs[] = {
      {"count",
       [&](const disttrack::sim::FaultPlan& plan) {
         return disttrack::sim::RobustReplayCount(count_opt, count_w, plan);
       }},
      {"frequency",
       [&](const disttrack::sim::FaultPlan& plan) {
         return disttrack::sim::RobustReplayFrequency(freq_opt, freq_w, 2, plan);
       }},
      {"rank",
       [&](const disttrack::sim::FaultPlan& plan) {
         return disttrack::sim::RobustReplayRank(rank_opt, rank_w, 1ull << 23,
                                                 plan);
       }},
  };

  for (const Leg& leg : legs) {
    auto base = leg.run(disttrack::sim::FaultPlan());
    auto faulty =
        leg.run(disttrack::sim::FaultPlan::FromSeed(storm_seed, n, k));

    const char* what = nullptr;
    if (!base.ok) what = base.error.c_str();
    if (!what && !faulty.ok) what = faulty.error.c_str();
    if (!what && faulty.checkpoints.size() != base.checkpoints.size()) {
      what = "checkpoint count mismatch";
    }
    if (!what) {
      for (size_t i = 0; i < base.checkpoints.size(); ++i) {
        if (!SameBits(faulty.checkpoints[i].estimate,
                      base.checkpoints[i].estimate) ||
            !SameBits(faulty.checkpoints[i].replica_estimate,
                      faulty.checkpoints[i].estimate)) {
          what = "estimate diverged from the fault-free run";
          break;
        }
      }
    }
    if (!what && faulty.paper_words != base.paper_words) {
      what = "paper-model word count changed under faults";
    }
    if (what) {
      std::printf(
          "FAIL %-9s storm seed %llu: %s\n"
          "  reproduce with: ./examples/adversarial_stress %llu\n",
          leg.name, static_cast<unsigned long long>(storm_seed), what,
          static_cast<unsigned long long>(storm_seed));
      return false;
    }
    if (verbose) {
      std::printf(
          "  %-9s seed %-6llu ok  (delivered %llu, deduped %llu, "
          "retransmits %llu, crashes %llu, restarts %llu)\n",
          leg.name, static_cast<unsigned long long>(storm_seed),
          static_cast<unsigned long long>(faulty.frames_delivered),
          static_cast<unsigned long long>(faulty.frames_deduped),
          static_cast<unsigned long long>(faulty.retransmissions),
          static_cast<unsigned long long>(faulty.site_recoveries),
          static_cast<unsigned long long>(faulty.coordinator_restarts));
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    // Reproduction mode: one storm seed, verbose.
    uint64_t seed = std::strtoull(argv[1], nullptr, 10);
    std::printf("Replaying fault storm seed %llu\n",
                static_cast<unsigned long long>(seed));
    return RunStorm(seed, /*verbose=*/true) ? 0 : 1;
  }

  const int kSites = 128;
  std::printf("Adversarial stress (k = %d, eps = 0.02)\n\n", kSites);

  std::printf("-- Theorem 2.2 distribution mu --\n");
  std::printf("%-10s %-16s %12s %12s\n", "case", "algorithm", "messages",
              "worst err/n");
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto mu = disttrack::stream::MakeMuInstance(kSites, 1u << 18, seed);
    const char* label = mu.single_site_case ? "single" : "balanced";
    for (auto algorithm :
         {Algorithm::kDeterministic, Algorithm::kRandomized}) {
      auto out = RunOn(mu.workload, algorithm, 33 + seed);
      std::printf("%-10s %-16s %12llu %12.4f\n", label,
                  disttrack::core::AlgorithmName(algorithm).c_str(),
                  static_cast<unsigned long long>(out.messages),
                  out.worst_rel);
    }
  }

  std::printf("\n-- Theorem 2.4 subround schedule (s = k/2 +- sqrt k) --\n");
  auto hard = disttrack::stream::MakeTheorem24Workload(kSites, 0.02, 12, 5);
  std::printf("(%llu elements over %llu rounds x %llu subrounds)\n",
              static_cast<unsigned long long>(hard.workload.size()),
              static_cast<unsigned long long>(hard.rounds),
              static_cast<unsigned long long>(hard.subrounds_per_round));
  std::printf("%-16s %12s %12s\n", "algorithm", "messages", "worst err/n");
  for (auto algorithm : {Algorithm::kDeterministic, Algorithm::kRandomized}) {
    auto out = RunOn(hard.workload, algorithm, 77);
    std::printf("%-16s %12llu %12.4f\n",
                disttrack::core::AlgorithmName(algorithm).c_str(),
                static_cast<unsigned long long>(out.messages),
                out.worst_rel);
  }

  std::printf("\nBoth protocols hold the 2%% error bound on every "
              "adversary. On the balanced cases the randomized protocol's "
              "sqrt(k) message advantage survives the adversary; on the "
              "all-at-one-site draw the one-way protocol is cheap for that "
              "single instance, but mu as a *distribution* is exactly what "
              "forces every one-way protocol to pay Omega(k/eps logN) in "
              "expectation (Theorem 2.2) — it cannot know in advance which "
              "case it is in. Theorem 2.4's schedule shows no correct "
              "protocol, however clever, beats Omega(sqrt(k)/eps logN).\n");

  std::printf("\n-- Fault storms (robust runtime, k = 6) --\n");
  const uint64_t kStorms = 32;
  for (uint64_t seed = 1; seed <= kStorms; ++seed) {
    if (!RunStorm(seed, /*verbose=*/false)) return 1;
  }
  std::printf(
      "%llu seeded storms (drops, duplicates, reorders, site crashes, "
      "coordinator restarts): every run bit-identical to the fault-free "
      "baseline for count, frequency, and rank.\n",
      static_cast<unsigned long long>(kStorms));
  return 0;
}
