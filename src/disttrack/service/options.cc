#include "disttrack/service/options.h"

#include <cstdio>
#include <cstring>

namespace disttrack {
namespace service {

namespace {

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// SplitMix64: the repo's standard stateless mixer.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool ParseU64(const std::string& value, uint64_t* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  unsigned long long v = strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

uint64_t ServiceOptions::Hash() const {
  uint64_t h = 0xCBF29CE484222325ull;
  h = Fnv1a(h, static_cast<uint64_t>(tracker));
  h = Fnv1a(h, static_cast<uint64_t>(mode));
  h = Fnv1a(h, static_cast<uint64_t>(num_sites));
  h = Fnv1a(h, DoubleBits(epsilon));
  h = Fnv1a(h, seed);
  h = Fnv1a(h, total_arrivals);
  h = Fnv1a(h, universe);
  h = Fnv1a(h, grant_max);
  return h;
}

count::RandomizedCountOptions ServiceOptions::CountOptions() const {
  count::RandomizedCountOptions o;
  o.num_sites = num_sites;
  o.epsilon = epsilon;
  o.seed = seed;
  return o;
}

frequency::RandomizedFrequencyOptions ServiceOptions::FrequencyOptions()
    const {
  frequency::RandomizedFrequencyOptions o;
  o.num_sites = num_sites;
  o.epsilon = epsilon;
  o.seed = seed;
  return o;
}

rank::RandomizedRankOptions ServiceOptions::RankOptions() const {
  rank::RandomizedRankOptions o;
  o.num_sites = num_sites;
  o.epsilon = epsilon;
  o.seed = seed;
  return o;
}

bool ServiceOptions::ParseFlag(const std::string& arg, std::string* error) {
  size_t eq = arg.find('=');
  if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
  std::string name = arg.substr(2, eq - 2);
  std::string value = arg.substr(eq + 1);
  uint64_t u = 0;
  if (name == "tracker") {
    if (value == "count") tracker = TrackerKind::kCount;
    else if (value == "frequency") tracker = TrackerKind::kFrequency;
    else if (value == "rank") tracker = TrackerKind::kRank;
    else { *error = "unknown --tracker: " + value; return false; }
    return true;
  }
  if (name == "mode") {
    if (value == "lockstep") mode = RunMode::kLockstep;
    else if (value == "freerun") mode = RunMode::kFreerun;
    else { *error = "unknown --mode: " + value; return false; }
    return true;
  }
  if (name == "sites") {
    if (!ParseU64(value, &u) || u == 0 || u > 4096) {
      *error = "bad --sites: " + value;
      return false;
    }
    num_sites = static_cast<int>(u);
    return true;
  }
  if (name == "epsilon") {
    epsilon = strtod(value.c_str(), nullptr);
    if (epsilon <= 0 || epsilon >= 1) { *error = "bad --epsilon"; return false; }
    return true;
  }
  if (name == "seed") { return ParseU64(value, &seed) || ((*error = "bad --seed"), false); }
  if (name == "n") {
    return ParseU64(value, &total_arrivals) || ((*error = "bad --n"), false);
  }
  if (name == "universe") {
    if (!ParseU64(value, &universe) || universe == 0) {
      *error = "bad --universe";
      return false;
    }
    return true;
  }
  if (name == "grant") {
    if (!ParseU64(value, &grant_max) || grant_max == 0) {
      *error = "bad --grant";
      return false;
    }
    return true;
  }
  if (name == "snapshot-every") {
    return ParseU64(value, &snapshot_every) ||
           ((*error = "bad --snapshot-every"), false);
  }
  return false;
}

const char* TrackerKindName(TrackerKind kind) {
  switch (kind) {
    case TrackerKind::kCount: return "count";
    case TrackerKind::kFrequency: return "frequency";
    case TrackerKind::kRank: return "rank";
  }
  return "?";
}

const char* RunModeName(RunMode mode) {
  return mode == RunMode::kLockstep ? "lockstep" : "freerun";
}

uint64_t ShardSize(const ServiceOptions& options, int site) {
  uint64_t k = static_cast<uint64_t>(options.num_sites);
  uint64_t base = options.total_arrivals / k;
  uint64_t rem = options.total_arrivals % k;
  return base + (static_cast<uint64_t>(site) < rem ? 1 : 0);
}

uint64_t WorkloadKey(const ServiceOptions& options, int site, uint64_t index) {
  uint64_t r = Mix(options.seed ^ Mix(static_cast<uint64_t>(site) * 0x9E37ull +
                                      1) ^ (index * 0xA24BAED4963EE407ull));
  if (options.tracker == TrackerKind::kFrequency) {
    // Skewed: 3/4 of arrivals on a 16-item hot set, the rest uniform.
    if ((r >> 32) % 4 != 0) return (r & 0xF);
    return r % options.universe;
  }
  return r % options.universe;
}

// --- Snapshot files -------------------------------------------------------

namespace {
constexpr uint64_t kSnapshotMagic = 0x44545353ull;  // "DTSS"
// Version 2: rank's blob lost its instance-index word. A version-1 file
// reads as no snapshot, so its site starts fresh.
constexpr uint64_t kSnapshotVersion = 2;

uint64_t SnapshotChecksum(const std::vector<uint64_t>& words) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (uint64_t w : words) h = Fnv1a(h, w);
  return h;
}
}  // namespace

std::string SnapshotPath(const std::string& dir, int site) {
  return dir + "/site_" + std::to_string(site) + ".snap";
}

bool WriteSnapshotFile(const std::string& path, const SiteSnapshot& snapshot,
                       std::string* error) {
  std::vector<uint64_t> words;
  words.push_back(kSnapshotMagic);
  words.push_back(kSnapshotVersion);
  words.push_back(snapshot.options_hash);
  words.push_back(static_cast<uint64_t>(snapshot.site));
  words.push_back(snapshot.site_arrivals);
  words.push_back(snapshot.up_next_seq);
  words.push_back(snapshot.down_watermark);
  words.push_back(snapshot.blob.size());
  words.insert(words.end(), snapshot.blob.begin(), snapshot.blob.end());
  words.push_back(SnapshotChecksum(
      std::vector<uint64_t>(words.begin(), words.end())));

  std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) { *error = "open " + tmp + " failed"; return false; }
  size_t wrote = fwrite(words.data(), sizeof(uint64_t), words.size(), f);
  bool ok = wrote == words.size() && fflush(f) == 0;
  ok = (fclose(f) == 0) && ok;
  if (!ok || rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "write/rename " + path + " failed";
    remove(tmp.c_str());
    return false;
  }
  return true;
}

bool ReadSnapshotFile(const std::string& path, uint64_t expected_hash,
                      SiteSnapshot* out) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<uint64_t> words;
  uint64_t w = 0;
  while (fread(&w, sizeof(w), 1, f) == 1) words.push_back(w);
  fclose(f);
  if (words.size() < 9) return false;
  uint64_t check = words.back();
  words.pop_back();
  if (SnapshotChecksum(words) != check) return false;
  if (words[0] != kSnapshotMagic || words[1] != kSnapshotVersion) return false;
  if (words[2] != expected_hash) return false;
  uint64_t blob_len = words[7];
  if (words.size() != 8 + blob_len) return false;
  out->options_hash = words[2];
  out->site = static_cast<int>(words[3]);
  out->site_arrivals = words[4];
  out->up_next_seq = words[5];
  out->down_watermark = words[6];
  out->blob.assign(words.begin() + 8, words.end());
  return true;
}

}  // namespace service
}  // namespace disttrack
