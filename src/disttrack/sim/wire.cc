#include "disttrack/sim/wire.h"

#include <algorithm>
#include <cstring>

namespace disttrack {
namespace sim {
namespace wire {
namespace {

// CRC-32 (reflected, polynomial 0xEDB88320), table-driven.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int j = 0; j < 8; ++j) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (uint16_t{p[1]} << 8));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{p[i]} << (8 * i);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{p[i]} << (8 * i);
  return v;
}

// The three per-type dispatch functions below (HasVectors, KnownType,
// PaperWordCharge) each switch over every MsgType enumerator with no
// default label: adding a type to wire.h without deciding its payload
// shape, validity range, and §1.1 charge is a -Wswitch/-Werror compile
// error here, and scripts/check_invariants.py additionally requires
// every enumerator to appear in all three switches (rule wire-switch).

bool HasVectors(MsgType type) {
  switch (type) {
    case MsgType::kRankSummary:
    case MsgType::kQueryResult:
      return true;
    case MsgType::kCoarseReport:
    case MsgType::kCoinReport:
    case MsgType::kCorrection:
    case MsgType::kBroadcast:
    case MsgType::kSplitNotice:
    case MsgType::kCounterReport:
    case MsgType::kSampleForward:
    case MsgType::kRankResidual:
    case MsgType::kRankForward:
    case MsgType::kAck:
    case MsgType::kHello:
    case MsgType::kJoin:
    case MsgType::kJoinAck:
    case MsgType::kGrantRequest:
    case MsgType::kGrant:
    case MsgType::kGrantDone:
    case MsgType::kNoBroadcast:
    case MsgType::kRitualAck:
    case MsgType::kQuery:
    case MsgType::kShutdown:
      return false;
  }
  return false;  // unreachable for in-range types; decode rejects the rest
}

bool KnownType(uint8_t raw_type) {
  switch (static_cast<MsgType>(raw_type)) {
    case MsgType::kCoarseReport:
    case MsgType::kCoinReport:
    case MsgType::kCorrection:
    case MsgType::kBroadcast:
    case MsgType::kSplitNotice:
    case MsgType::kCounterReport:
    case MsgType::kSampleForward:
    case MsgType::kRankSummary:
    case MsgType::kRankResidual:
    case MsgType::kRankForward:
    case MsgType::kAck:
    case MsgType::kHello:
    case MsgType::kJoin:
    case MsgType::kJoinAck:
    case MsgType::kGrantRequest:
    case MsgType::kGrant:
    case MsgType::kGrantDone:
    case MsgType::kNoBroadcast:
    case MsgType::kRitualAck:
    case MsgType::kQuery:
    case MsgType::kQueryResult:
    case MsgType::kShutdown:
      return true;
  }
  return false;  // any byte value not naming an enumerator
}

size_t PayloadBytes(const Message& msg) {
  size_t bytes = 3 * 8;  // a, b, c
  if (HasVectors(msg.type)) {
    bytes += 4 + msg.values.size() * 8;
    bytes += 4 + msg.segments.size() * (8 + 4);
  }
  return bytes;
}

}  // namespace

uint64_t PaperWordCharge(const Message& msg, int num_sites) {
  uint64_t per_message = std::max<uint64_t>(1, msg.paper_words);
  switch (msg.type) {
    case MsgType::kAck:
    case MsgType::kHello:
    case MsgType::kJoin:
    case MsgType::kJoinAck:
    case MsgType::kGrantRequest:
    case MsgType::kGrant:
    case MsgType::kGrantDone:
    case MsgType::kNoBroadcast:
    case MsgType::kRitualAck:
    case MsgType::kQuery:
    case MsgType::kQueryResult:
    case MsgType::kShutdown:
      return 0;  // transport / service plane: outside the §1.1 model
    case MsgType::kBroadcast:
      // One broadcast reaches all k sites; the paper charges k words.
      return per_message * static_cast<uint64_t>(num_sites);
    case MsgType::kCoarseReport:
    case MsgType::kCoinReport:
    case MsgType::kCorrection:
    case MsgType::kSplitNotice:
    case MsgType::kCounterReport:
    case MsgType::kSampleForward:
    case MsgType::kRankSummary:
    case MsgType::kRankResidual:
    case MsgType::kRankForward:
      return per_message;
  }
  return per_message;  // unreachable for in-range types
}

size_t EncodedSize(const Message& msg) {
  return kHeaderBytes + PayloadBytes(msg) + kCrcBytes;
}

void EncodeFrame(const Message& msg, uint64_t seq, std::vector<uint8_t>* out) {
  size_t start = out->size();
  PutU32(out, kMagic);
  PutU16(out, kVersion);
  out->push_back(static_cast<uint8_t>(msg.type));
  out->push_back(0);  // flags (reserved)
  PutU32(out, static_cast<uint32_t>(msg.site));
  PutU64(out, seq);
  PutU64(out, msg.epoch);
  PutU32(out, static_cast<uint32_t>(msg.paper_words));
  PutU32(out, static_cast<uint32_t>(PayloadBytes(msg)));
  PutU64(out, msg.a);
  PutU64(out, msg.b);
  PutU64(out, msg.c);
  if (HasVectors(msg.type)) {
    PutU32(out, static_cast<uint32_t>(msg.values.size()));
    for (uint64_t v : msg.values) PutU64(out, v);
    PutU32(out, static_cast<uint32_t>(msg.segments.size()));
    for (const auto& seg : msg.segments) {
      PutU64(out, seg.first);
      PutU32(out, seg.second);
    }
  }
  uint32_t crc = Crc32(out->data() + start, out->size() - start);
  PutU32(out, crc);
}

bool DecodeFrame(const uint8_t* data, size_t size, Message* msg,
                 uint64_t* seq) {
  if (size < kHeaderBytes + kCrcBytes) return false;
  if (GetU32(data) != kMagic) return false;
  if (GetU16(data + 4) != kVersion) return false;
  uint8_t raw_type = data[6];
  if (!KnownType(raw_type)) return false;
  uint32_t payload_bytes = GetU32(data + kHeaderBytes - 4);
  if (size != kHeaderBytes + payload_bytes + kCrcBytes) return false;
  uint32_t want_crc = GetU32(data + size - kCrcBytes);
  if (Crc32(data, size - kCrcBytes) != want_crc) return false;

  Message decoded;
  decoded.type = static_cast<MsgType>(raw_type);
  decoded.site = static_cast<int32_t>(GetU32(data + 8));
  uint64_t decoded_seq = GetU64(data + 12);
  decoded.epoch = GetU64(data + 20);
  decoded.paper_words = GetU32(data + 28);

  const uint8_t* p = data + kHeaderBytes;
  const uint8_t* end = data + size - kCrcBytes;
  if (end - p < 3 * 8) return false;
  decoded.a = GetU64(p);
  decoded.b = GetU64(p + 8);
  decoded.c = GetU64(p + 16);
  p += 3 * 8;
  if (HasVectors(decoded.type)) {
    if (end - p < 4) return false;
    uint32_t nvalues = GetU32(p);
    p += 4;
    if (static_cast<size_t>(end - p) < nvalues * 8ull + 4) return false;
    decoded.values.reserve(nvalues);
    for (uint32_t i = 0; i < nvalues; ++i, p += 8) {
      decoded.values.push_back(GetU64(p));
    }
    uint32_t nsegs = GetU32(p);
    p += 4;
    if (static_cast<size_t>(end - p) < nsegs * 12ull) return false;
    decoded.segments.reserve(nsegs);
    for (uint32_t i = 0; i < nsegs; ++i, p += 12) {
      decoded.segments.emplace_back(GetU64(p), GetU32(p + 8));
    }
  }
  if (p != end) return false;

  *msg = std::move(decoded);
  *seq = decoded_seq;
  return true;
}

size_t PeekFrameSize(const uint8_t* data, size_t size) {
  if (size < kHeaderBytes) return 0;
  if (GetU32(data) != kMagic) return 0;
  if (GetU16(data + 4) != kVersion) return 0;
  if (!KnownType(data[6])) return 0;
  uint32_t payload_bytes = GetU32(data + kHeaderBytes - 4);
  return kHeaderBytes + payload_bytes + kCrcBytes;
}

void Emit(WireTap* tap, MsgType type, int site, uint64_t epoch, uint64_t a,
          uint64_t b, uint64_t c, uint64_t words) {
  if (tap == nullptr) return;
  Message msg;
  msg.type = type;
  msg.site = site;
  msg.epoch = epoch;
  msg.a = a;
  msg.b = b;
  msg.c = c;
  msg.paper_words = words;
  tap->OnMessage(std::move(msg));
}

}  // namespace wire
}  // namespace sim
}  // namespace disttrack
