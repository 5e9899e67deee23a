// Geometric skip sampling (Vitter-style) for per-arrival Bernoulli(p)
// coins: instead of flipping one coin per arrival, draw the gap to the
// next success once and count arrivals down, so the expected per-arrival
// cost drops from one full RNG draw to one decrement.
//
// Exactness. For an i.i.d. Bernoulli(p) coin sequence, the number of
// failures before the first success is Geometric(p) (counting failures),
// and by independence the gaps between consecutive successes are i.i.d.
// Geometric(p). A SkipSampler therefore reproduces the success/failure
// process of per-arrival coins *exactly in distribution*: Next() returns
// true on arrival t iff t is a success index of such a sequence.
//
// Changing p mid-stream. The skip counter only encodes coins that have
// not been consumed yet, and future coins are independent of everything
// already observed. Discarding the outstanding skip and redrawing at the
// new p (Reset/ResetPow2) therefore yields a process identical in
// distribution to flipping per-arrival coins whose probability switches
// at the same point — this is what the trackers do on every p-halving
// broadcast (§2.1 / §3.1 / §4 round transitions). The alternative,
// thinning the old skip, is also exact but costs the same RNG work for
// more code; we redraw.
//
// The skip counter is itself drawn by O(1) inversion, so re-arming on a
// broadcast is cheap. The sampler caches 1/log(1-p) at Reset time, so a
// redraw costs one uniform, one log, and one multiply — the same
// inversion Rng::GeometricFailures performs, minus its per-draw log1p
// and division (identical in distribution; the ulp-level floor
// difference between a/b and a*(1/b) is far below any observable bias).

#ifndef DISTTRACK_COMMON_SKIP_SAMPLER_H_
#define DISTTRACK_COMMON_SKIP_SAMPLER_H_

#include <cmath>
#include <cstdint>
#include <cstring>

#include "disttrack/common/random.h"

namespace disttrack {

/// Counts down the gap to the next Bernoulli(p) success. Not thread-safe;
/// one instance per (site, coin channel), matching the per-site private
/// randomness of the model.
class SkipSampler {
 public:
  /// Arms the sampler for success probability 2^-log2_inv_p (the paper's
  /// p = 1/⌊·⌋₂ coins). Discards any outstanding skip.
  void ResetPow2(int log2_inv_p, Rng* rng) {
    if (log2_inv_p <= 0) {
      inv_log_ = 0.0;  // p = 1: every draw is an immediate success
    } else if (log2_inv_p >= 64) {
      inv_log_ = 1.0 / std::log1p(-std::ldexp(1.0, -log2_inv_p));
    } else {
      inv_log_ = InvLog1mPow2Table()[log2_inv_p];
    }
    skip_ = Draw(rng);
  }

  /// Arms the sampler for a general success probability p in (0, 1].
  /// Discards any outstanding skip.
  void Reset(double p, Rng* rng) {
    inv_log_ = p >= 1.0 ? 0.0 : 1.0 / std::log1p(-p);
    skip_ = Draw(rng);
  }

  /// Consumes one arrival's coin: true iff this arrival is a success.
  /// On success the gap to the following success is redrawn.
  bool Next(Rng* rng) {
    if (skip_ > 0) {
      --skip_;
      return false;
    }
    skip_ = Draw(rng);
    return true;
  }

  /// Consumes `count` arrivals known to be failures in one step; requires
  /// count <= pending_skips(). The batch engine uses this to retire a run
  /// of eventless arrivals without per-element Next() calls.
  void ConsumeFailures(uint64_t count) { skip_ -= count; }

  /// Arrivals that will fail before the next success (diagnostics/tests).
  uint64_t pending_skips() const { return skip_; }

  /// Crash-snapshot state as two words: the skip and the bit pattern of
  /// 1/log(1-p). The latter must round-trip bit-exactly, because the Draw
  /// inversion multiplies by it: an ulp of drift could flip a floor and
  /// desynchronize the replayed coin stream.
  void Save(uint64_t out[2]) const {
    out[0] = skip_;
    std::memcpy(&out[1], &inv_log_, sizeof(inv_log_));
  }
  void Restore(const uint64_t in[2]) {
    skip_ = in[0];
    std::memcpy(&inv_log_, &in[1], sizeof(inv_log_));
  }

 private:
  // Geometric(p) failures-before-success by inversion:
  // floor(log(U) / log(1-p)) for U ~ Uniform(0, 1].
  uint64_t Draw(Rng* rng) {
    if (inv_log_ == 0.0) return 0;  // p = 1
    double u = 1.0 - rng->NextDouble();  // in (0, 1]
    double draw = std::floor(std::log(u) * inv_log_);
    return draw < 0 ? 0 : static_cast<uint64_t>(draw);
  }

  // 1 / log(1 - 2^-j) for j in [0, 64]; entry 0 is unused (p = 1).
  static const double* InvLog1mPow2Table() {
    static const double* table = [] {
      static double t[65];
      t[0] = 0.0;
      for (int j = 1; j <= 64; ++j) {
        t[j] = 1.0 / std::log1p(-std::ldexp(1.0, -j));
      }
      return t;
    }();
    return table;
  }

  uint64_t skip_ = 0;
  double inv_log_ = 0.0;  // 1/log(1-p); 0 encodes p = 1
};

}  // namespace disttrack

#endif  // DISTTRACK_COMMON_SKIP_SAMPLER_H_
