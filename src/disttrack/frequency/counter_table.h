// Flat open-addressing counter store for the sticky counter lists L_i of
// §3.1: a power-of-two-capacity linear-probing table of (item, count)
// pairs with a one-byte control mirror.
//
// The frequency hot path does one lookup per arrival (tracked items
// increment their counter; untracked items miss), inserts only on a
// counter-creation coin success (probability p), and bulk-clears at every
// round boundary and virtual-site split — it never erases an individual
// key. That access mix makes the classic tombstone problem of open
// addressing disappear: Clear() re-zeroes the one-byte control mirror
// with a memset, which empties every slot at once, and the linear-probe
// invariant ("a live chain is never interrupted by an empty slot") holds
// within each epoch because nothing is ever deleted inside one.
//
// Probes are served by the control mirror: ctrl_[i] is 0 when slot i is
// empty, else a 7-bit fingerprint of the occupant's hash (high bit set so
// it is never 0). A miss — the overwhelmingly common case, since only
// ~c/(ε√k) items are tracked per site — costs a multiply and one byte
// load instead of a 16-byte slot inspection; the payload slot is read
// only on a fingerprint match. Because the mirror is the single source
// of liveness, a fingerprint match already implies the slot was written
// after the last Clear(): slots carry no epoch tag, stay a cache-aligned
// 16 bytes, and the n̄/k split threshold amortizes the memset to well
// under a byte per arrival. (An epoch counter survives for diagnostics
// only.)
//
// Slots carry the full 64-bit key, so 0 and UINT64_MAX are ordinary keys
// (occupancy is decided by the control byte, not a sentinel key). Probing
// starts from a Fibonacci hash of the key (multiply by the 64-bit golden
// ratio, keep the top bits), which scatters adjacent item ids — the
// common case in Zipf workloads — across the table.

// SIMD probing (PR 10): the control mirror carries a mirrored tail of
// kCtrlGroupWidth bytes past the capacity (ctrl_[cap + j] == ctrl_[j mod
// cap]), so a whole probe group can be inspected with one unaligned
// 32-byte load — simd::MatchCtrlGroup answers "which positions match the
// fingerprint / which are empty" as bitmasks, and the probe visits match
// bits below the first empty bit: the exact scalar visit order, ~32 probe
// positions per load instead of one. Group probes are used ONLY on the
// bulk run path (GroupRun), which is compiled as one per-function
// target("avx2") region so the group matcher inlines and the SSE<->AVX
// transition (vzeroupper) is paid once per run. Single-key Find() stays
// scalar always: at 1/2 load the miss chain is ~1.5 one-byte control
// loads, which an out-of-line vector call cannot beat (measured 0.75x).
// The grouped path is runtime-dispatched (simd::Avx2Active(), cached per
// table); the scalar walk below remains the reference and the non-AVX2
// fallback. Counters are exact integers either way, so probe strategy
// can never shift an estimate, a coin, or a meter total (tier A).

#ifndef DISTTRACK_FREQUENCY_COUNTER_TABLE_H_
#define DISTTRACK_FREQUENCY_COUNTER_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "disttrack/common/simd.h"

namespace disttrack {
namespace frequency {

/// Open-addressing uint64 -> uint64 counter map with bulk Clear().
/// Grows at 1/2 load (linear-probe miss chains stay ~1.5 probes); never
/// shrinks (the per-round population is capped near p * n_bar / k by the
/// virtual-site split, so capacity stabilizes).
class CounterTable {
 public:
  CounterTable() { Rebuild(kMinCapacity); }

  /// Pointer to the live counter of `key`, or nullptr if untracked.
  /// The pointer is valid until the next Insert() or Clear().
  /// Always the scalar probe — see the header comment for why a lone
  /// lookup never goes through the vector group matcher.
  uint64_t* Find(uint64_t key) { return FindScalar(key); }

  const uint64_t* Find(uint64_t key) const {
    return const_cast<CounterTable*>(this)->Find(key);
  }

  /// ++counter of `key` iff it is tracked — the eventless-arrival path.
  void IncrementIfTracked(uint64_t key) {
    if (uint64_t* value = Find(key)) ++*value;
  }

  /// IncrementIfTracked over a whole eventless run (the site-grouped hot
  /// loop). The table invariants (mask, control base) are hoisted out of
  /// the loop, the run is walked in four independent lanes so the
  /// hash → control-byte → slot dependency chains of four keys overlap
  /// in the pipeline, and a run of equal adjacent keys — bursty
  /// workloads delivered site-contiguously — is hashed once per lane and
  /// served from the previous probe's counter pointer. No inserts happen
  /// inside an eventless run, so counter pointers stay valid across it.
  void IncrementTrackedRun(const uint64_t* keys, size_t count) {
#if DISTTRACK_SIMD_ENABLED
    if (simd_) {
      GroupRun(keys, count);
      return;
    }
#endif
    size_t quarter = count / 4;
    if (quarter >= 8) {
      LaneRun(keys, keys + quarter, keys + 2 * quarter, keys + 3 * quarter,
              quarter);
      keys += 4 * quarter;
      count -= 4 * quarter;
    }
    uint64_t last_key = 0;
    uint64_t* last_value = nullptr;
    bool have_last = false;
    for (size_t i = 0; i < count; ++i) {
      uint64_t key = keys[i];
      if (have_last && key == last_key) {
        if (last_value != nullptr) ++*last_value;
        continue;
      }
      last_value = Find(key);
      if (last_value != nullptr) ++*last_value;
      last_key = key;
      have_last = true;
    }
  }

  /// Starts tracking `key` at `value` and returns its counter (valid like
  /// Find()'s). `key` must not be live (callers only insert after a
  /// Find() miss).
  uint64_t* Insert(uint64_t key, uint64_t value) {
    if (size_ + 1 > slots_.size() / 2) Grow();
    uint64_t h = Mix(key);
    size_t idx = h >> shift_;
    while (ctrl_[idx] != 0) idx = (idx + 1) & mask_;
    SetCtrl(idx, Fingerprint(h));
    slots_[idx] = Slot{key, value};
    ++size_;
    return &slots_[idx].value;
  }

  /// Starts loading the control byte and slot a probe for `key` reads
  /// first, so a later Find()/Insert() of a cold key does not stall.
  void Prefetch(uint64_t key) const {
    size_t idx = Mix(key) >> shift_;
    __builtin_prefetch(ctrl_.data() + idx);
    __builtin_prefetch(slots_.data() + idx, 1);
  }

  /// Drops every counter (round boundary / virtual-site split): the
  /// control mirror is re-zeroed at a byte per slot, which empties every
  /// payload slot at once. Capacity is retained.
  void Clear() {
    ++epoch_;
    std::memset(ctrl_.data(), 0, ctrl_.size());
    size_ = 0;
  }

  /// Invokes fn(key, value) for every live counter, in table (probe)
  /// order. The order is deterministic for a fixed insertion history but
  /// not meaningful; snapshot serialization is the intended caller, and
  /// restoring via Insert() in any order rebuilds an observably identical
  /// table (lookups and increments do not depend on physical layout).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (ctrl_[i] != 0) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Live counters in the current epoch.
  size_t size() const { return size_; }

  size_t capacity() const { return slots_.size(); }

  /// Current epoch (diagnostics/tests; advances on every Clear()).
  uint64_t epoch() const { return epoch_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t value = 0;
  };

  static constexpr size_t kMinCapacity = 16;

  static uint64_t Mix(uint64_t key) {
    return key * 0x9E3779B97F4A7C15ull;
  }

  // 7 hash bits immediately below the index bits currently in use (the
  // index keeps the top 64 - shift_ bits), high bit set so occupied != 0.
  // Taking them relative to shift_ keeps the fingerprint independent of
  // the home bucket at every capacity — same-bucket key collisions stay
  // rejectable by the one-byte mirror.
  uint8_t Fingerprint(uint64_t h) const {
    return static_cast<uint8_t>((h >> (shift_ - 8)) | 0x80u);
  }

  // Scalar reference probe: one control byte per step, first fingerprint
  // match with a key hit before the first empty wins.
  uint64_t* FindScalar(uint64_t key) {
    uint64_t h = Mix(key);
    size_t idx = h >> shift_;
    uint8_t fp = Fingerprint(h);
    for (;;) {
      uint8_t c = ctrl_[idx];
      if (c == 0) return nullptr;
      if (c == fp) {
        Slot& slot = slots_[idx];
        if (slot.key == key) return &slot.value;
      }
      idx = (idx + 1) & mask_;
    }
  }

#if DISTTRACK_SIMD_ENABLED
  // Grouped probe: 32 control bytes per load via the mirrored tail.
  // Match bits below the first empty bit are visited in ascending
  // position order — the scalar probe's visit order exactly — so both
  // probes return the same slot. When the group width exceeds the
  // capacity (cap 16), positions past it alias earlier slots through the
  // index mask; harmless, because a half-loaded table always has an
  // empty within the first `capacity` positions.
  //
  // Compiled target("avx2") so the group matcher inlines here (no
  // per-probe call or ISA transition); only GroupRun — itself an avx2
  // region, entered only when Avx2Active() — may call it.
  DISTTRACK_TARGET_AVX2 uint64_t* FindGrouped(uint64_t key) {
    uint64_t h = Mix(key);
    size_t idx = h >> shift_;
    uint8_t fp = Fingerprint(h);
    for (;;) {
      simd::CtrlGroup g = simd::MatchCtrlGroupAvx2(ctrl_.data() + idx, fp);
      uint32_t candidates = g.match;
      if (g.empty != 0) {
        candidates &= g.empty ^ (g.empty - 1);  // bits below first empty
      }
      while (candidates != 0) {
        size_t slot =
            (idx + static_cast<unsigned>(__builtin_ctz(candidates))) & mask_;
        if (slots_[slot].key == key) return &slots_[slot].value;
        candidates &= candidates - 1;
      }
      if (g.empty != 0) return nullptr;
      idx = (idx + simd::kCtrlGroupWidth) & mask_;
    }
  }

  // Grouped-probe eventless run: key hashes are precomputed a fixed
  // distance ahead so the control and slot cache lines are in flight
  // before their probe issues, and a burst of equal adjacent keys is
  // served from the previous probe's counter pointer (same dedup as the
  // scalar walk — no inserts happen inside an eventless run). The whole
  // run is one avx2 region: vzeroupper once at exit, not per key.
  DISTTRACK_TARGET_AVX2 void GroupRun(const uint64_t* keys, size_t count) {
    constexpr size_t kPrefetchAhead = 8;
    uint64_t last_key = 0;
    uint64_t* last_value = nullptr;
    bool have_last = false;
    for (size_t i = 0; i < count; ++i) {
      if (i + kPrefetchAhead < count) {
        size_t pidx = Mix(keys[i + kPrefetchAhead]) >> shift_;
        __builtin_prefetch(ctrl_.data() + pidx, 0, 1);
        __builtin_prefetch(slots_.data() + pidx, 0, 1);
      }
      uint64_t key = keys[i];
      if (have_last && key == last_key) {
        if (last_value != nullptr) ++*last_value;
        continue;
      }
      last_value = FindGrouped(key);
      if (last_value != nullptr) ++*last_value;
      last_key = key;
      have_last = true;
    }
  }
#endif  // DISTTRACK_SIMD_ENABLED

  // Writes a control byte and keeps the mirrored tail in lockstep (for
  // capacity < group width the mirror wraps more than once).
  void SetCtrl(size_t idx, uint8_t fp) {
    ctrl_[idx] = fp;
    size_t capacity = slots_.size();
    for (size_t m = capacity + idx; m < capacity + simd::kCtrlGroupWidth;
         m += capacity) {
      ctrl_[m] = fp;
    }
  }

  // Four-lane walk over [a, a+n) ∪ [b, b+n) ∪ [c, c+n) ∪ [d, d+n): the
  // loop body carries four independent probe chains, which is what lets
  // the out-of-order core overlap their latencies. Each lane keeps the
  // key-run dedup of the scalar loop.
  void LaneRun(const uint64_t* a, const uint64_t* b, const uint64_t* c,
               const uint64_t* d, size_t n) {
    uint64_t lk0 = 0, lk1 = 0, lk2 = 0, lk3 = 0;
    uint64_t *lv0 = nullptr, *lv1 = nullptr, *lv2 = nullptr, *lv3 = nullptr;
    bool h0 = false, h1 = false, h2 = false, h3 = false;
    for (size_t i = 0; i < n; ++i) {
      uint64_t k0 = a[i], k1 = b[i], k2 = c[i], k3 = d[i];
      if (h0 && k0 == lk0) {
        if (lv0 != nullptr) ++*lv0;
      } else {
        lv0 = Find(k0);
        if (lv0 != nullptr) ++*lv0;
        lk0 = k0;
        h0 = true;
      }
      if (h1 && k1 == lk1) {
        if (lv1 != nullptr) ++*lv1;
      } else {
        lv1 = Find(k1);
        if (lv1 != nullptr) ++*lv1;
        lk1 = k1;
        h1 = true;
      }
      if (h2 && k2 == lk2) {
        if (lv2 != nullptr) ++*lv2;
      } else {
        lv2 = Find(k2);
        if (lv2 != nullptr) ++*lv2;
        lk2 = k2;
        h2 = true;
      }
      if (h3 && k3 == lk3) {
        if (lv3 != nullptr) ++*lv3;
      } else {
        lv3 = Find(k3);
        if (lv3 != nullptr) ++*lv3;
        lk3 = k3;
        h3 = true;
      }
    }
  }

  void Rebuild(size_t capacity) {
    slots_.assign(capacity, Slot{});
    // The group-probe tail mirrors the first bytes past the capacity so a
    // group load never wraps; zeros are self-consistent.
    ctrl_.assign(capacity + simd::kCtrlGroupWidth, 0);
    mask_ = capacity - 1;
    shift_ = 64;
    while ((size_t{1} << (64 - shift_)) < capacity) --shift_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    Rebuild(old.size() * 2);
    for (size_t i = 0; i < old.size(); ++i) {
      if (old_ctrl[i] == 0) continue;  // empty this epoch
      const Slot& slot = old[i];
      uint64_t h = Mix(slot.key);
      size_t idx = h >> shift_;
      while (ctrl_[idx] != 0) idx = (idx + 1) & mask_;
      SetCtrl(idx, Fingerprint(h));
      slots_[idx] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> ctrl_;  // 0 = empty, else fingerprint (liveness);
                               // capacity + kCtrlGroupWidth bytes, tail
                               // mirroring the head (SetCtrl)
  size_t mask_ = 0;
  int shift_ = 64;       // IndexFor keeps the top log2(capacity) bits
  size_t size_ = 0;      // live slots in the current epoch
  uint64_t epoch_ = 1;   // diagnostics: number of bulk clears + 1
#if DISTTRACK_SIMD_ENABLED
  // Run-path dispatch, cached at construction (tables are rebuilt per
  // tracker / per bench rep, so mode flips take effect at the next one).
  bool simd_ = simd::Avx2Active();
#endif
};

}  // namespace frequency
}  // namespace disttrack

#endif  // DISTTRACK_FREQUENCY_COUNTER_TABLE_H_
