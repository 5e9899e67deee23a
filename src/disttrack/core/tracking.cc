#include "disttrack/core/tracking.h"

#include <vector>

#include "disttrack/core/median_booster.h"
#include "disttrack/count/deterministic_count.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/deterministic_frequency.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/deterministic_rank.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sampling/distributed_sampler.h"

namespace disttrack {
namespace core {

namespace {

constexpr double kDefaultCountConfidence = 2.0;
constexpr double kDefaultFrequencyConfidence = 4.0;
constexpr double kDefaultRankConfidence = 4.0;

double ConfidenceOr(const TrackerOptions& options, double fallback) {
  return options.confidence_factor > 0 ? options.confidence_factor : fallback;
}

// Derives a distinct seed for booster copy `i`.
uint64_t CopySeed(uint64_t seed, int i) {
  return seed + 0x51ED2701FB1CD9A1ull * static_cast<uint64_t>(i + 1);
}

}  // namespace

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kDeterministic:
      return "deterministic";
    case Algorithm::kRandomized:
      return "randomized";
    case Algorithm::kSampling:
      return "sampling";
  }
  return "unknown";
}

Status TrackerOptions::Validate() const {
  if (num_sites < 1) {
    return Status::InvalidArgument("num_sites must be >= 1");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (median_copies < 1) {
    return Status::InvalidArgument("median_copies must be >= 1");
  }
  if (median_copies > 1 && median_copies % 2 == 0) {
    return Status::InvalidArgument("median_copies must be odd when > 1");
  }
  if (universe_bits < 1 || universe_bits > 48) {
    return Status::InvalidArgument("universe_bits must be in [1, 48]");
  }
  if (!(sample_boost >= 1.0)) {
    return Status::InvalidArgument("sample_boost must be >= 1");
  }
  return Status::OK();
}

namespace {

// One-copy constructors, shared by the direct and boosted paths.

Status MakeOneCount(Algorithm algorithm, const TrackerOptions& options,
                    uint64_t seed,
                    std::unique_ptr<sim::CountTrackerInterface>* out) {
  switch (algorithm) {
    case Algorithm::kDeterministic: {
      count::DeterministicCountOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<count::DeterministicCountTracker>(o);
      return Status::OK();
    }
    case Algorithm::kRandomized: {
      count::RandomizedCountOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      o.seed = seed;
      o.confidence_factor = ConfidenceOr(options, kDefaultCountConfidence);
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<count::RandomizedCountTracker>(o);
      return Status::OK();
    }
    case Algorithm::kSampling: {
      sampling::DistributedSamplerOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      o.seed = seed;
      o.sample_boost = options.sample_boost;
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<sampling::SamplingCountTracker>(o);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

Status MakeOneFrequency(Algorithm algorithm, const TrackerOptions& options,
                        uint64_t seed,
                        std::unique_ptr<sim::FrequencyTrackerInterface>* out) {
  switch (algorithm) {
    case Algorithm::kDeterministic: {
      frequency::DeterministicFrequencyOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<frequency::DeterministicFrequencyTracker>(o);
      return Status::OK();
    }
    case Algorithm::kRandomized: {
      frequency::RandomizedFrequencyOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      o.seed = seed;
      o.confidence_factor =
          ConfidenceOr(options, kDefaultFrequencyConfidence);
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<frequency::RandomizedFrequencyTracker>(o);
      return Status::OK();
    }
    case Algorithm::kSampling: {
      sampling::DistributedSamplerOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      o.seed = seed;
      o.sample_boost = options.sample_boost;
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<sampling::SamplingFrequencyTracker>(o);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

Status MakeOneRank(Algorithm algorithm, const TrackerOptions& options,
                   uint64_t seed,
                   std::unique_ptr<sim::RankTrackerInterface>* out) {
  switch (algorithm) {
    case Algorithm::kDeterministic: {
      rank::DeterministicRankOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      o.universe_bits = options.universe_bits;
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<rank::DeterministicRankTracker>(o);
      return Status::OK();
    }
    case Algorithm::kRandomized: {
      rank::RandomizedRankOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      o.seed = seed;
      o.confidence_factor = ConfidenceOr(options, kDefaultRankConfidence);
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<rank::RandomizedRankTracker>(o);
      return Status::OK();
    }
    case Algorithm::kSampling: {
      sampling::DistributedSamplerOptions o;
      o.num_sites = options.num_sites;
      o.epsilon = options.epsilon;
      o.seed = seed;
      o.sample_boost = options.sample_boost;
      if (Status s = o.Validate(); !s.ok()) return s;
      *out = std::make_unique<sampling::SamplingRankTracker>(o);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace

Status MakeCountTracker(Algorithm algorithm, const TrackerOptions& options,
                        std::unique_ptr<sim::CountTrackerInterface>* out) {
  if (Status s = options.Validate(); !s.ok()) return s;
  if (options.median_copies == 1) {
    return MakeOneCount(algorithm, options, options.seed, out);
  }
  std::vector<std::unique_ptr<sim::CountTrackerInterface>> copies;
  for (int i = 0; i < options.median_copies; ++i) {
    std::unique_ptr<sim::CountTrackerInterface> copy;
    if (Status s =
            MakeOneCount(algorithm, options, CopySeed(options.seed, i), &copy);
        !s.ok()) {
      return s;
    }
    copies.push_back(std::move(copy));
  }
  *out = std::make_unique<BoostedCountTracker>(std::move(copies));
  return Status::OK();
}

Status MakeFrequencyTracker(
    Algorithm algorithm, const TrackerOptions& options,
    std::unique_ptr<sim::FrequencyTrackerInterface>* out) {
  if (Status s = options.Validate(); !s.ok()) return s;
  if (options.median_copies == 1) {
    return MakeOneFrequency(algorithm, options, options.seed, out);
  }
  std::vector<std::unique_ptr<sim::FrequencyTrackerInterface>> copies;
  for (int i = 0; i < options.median_copies; ++i) {
    std::unique_ptr<sim::FrequencyTrackerInterface> copy;
    if (Status s = MakeOneFrequency(algorithm, options,
                                    CopySeed(options.seed, i), &copy);
        !s.ok()) {
      return s;
    }
    copies.push_back(std::move(copy));
  }
  *out = std::make_unique<BoostedFrequencyTracker>(std::move(copies));
  return Status::OK();
}

Status MakeRankTracker(Algorithm algorithm, const TrackerOptions& options,
                       std::unique_ptr<sim::RankTrackerInterface>* out) {
  if (Status s = options.Validate(); !s.ok()) return s;
  if (options.median_copies == 1) {
    return MakeOneRank(algorithm, options, options.seed, out);
  }
  std::vector<std::unique_ptr<sim::RankTrackerInterface>> copies;
  for (int i = 0; i < options.median_copies; ++i) {
    std::unique_ptr<sim::RankTrackerInterface> copy;
    if (Status s =
            MakeOneRank(algorithm, options, CopySeed(options.seed, i), &copy);
        !s.ok()) {
      return s;
    }
    copies.push_back(std::move(copy));
  }
  *out = std::make_unique<BoostedRankTracker>(std::move(copies));
  return Status::OK();
}

}  // namespace core
}  // namespace disttrack
