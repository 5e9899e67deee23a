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

#ifndef DISTTRACK_FREQUENCY_COUNTER_TABLE_H_
#define DISTTRACK_FREQUENCY_COUNTER_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

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
  /// One control byte per probe step; the first fingerprint match with a
  /// key hit before the first empty wins.
  uint64_t* Find(uint64_t key) {
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
    ctrl_[idx] = Fingerprint(h);
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
    ctrl_.assign(capacity, 0);
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
      ctrl_[idx] = Fingerprint(h);
      slots_[idx] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> ctrl_;  // 0 = empty, else fingerprint (liveness)
  size_t mask_ = 0;
  int shift_ = 64;       // IndexFor keeps the top log2(capacity) bits
  size_t size_ = 0;      // live slots in the current epoch
  uint64_t epoch_ = 1;   // diagnostics: number of bulk clears + 1
};

}  // namespace frequency
}  // namespace disttrack

#endif  // DISTTRACK_FREQUENCY_COUNTER_TABLE_H_
