// Versioned binary framing for every protocol message the trackers
// exchange (tentpole of the robustness PR).
//
// The serial sim delivers coordinator traffic as direct calls; the paper
// only meters it (CommMeter). This header gives each of those implicit
// messages an explicit, versioned wire form:
//
//   site -> coordinator   kCoarseReport   local-count doubling report (§2.1)
//                         kCoinReport     randomized count coin report (§2.2)
//                         kCorrection     p-halving thinning correction (§2.2)
//                         kCounterReport  sticky counter report (§3.1)
//                         kSampleForward  sampled element forward (§3.1)
//                         kRankSummary    StoredSummary export (§4, alg C)
//                         kRankResidual   tail-channel residual sample (§4)
//                         kRankForward    forwarded arrival of a forward
//                                         round (§4)
//                         kSplitNotice    virtual-site split notice (§3.2)
//   coordinator -> site   kBroadcast      n̄ broadcast / p-halving notice
//   control (either way)  kAck            cumulative ack (transport layer)
//                         kHello          reconnect handshake (watermark)
//
// The multi-process service (service/) adds a session / control / query
// plane on the same frame format (types 12..21, all charged zero paper
// words — they are operational traffic outside the §1.1 model, like
// kAck). kQueryResult is the second vector-bearing type after
// kRankSummary, which is the payload-format change behind the kVersion
// 1 -> 2 bump; the frame layout itself is unchanged.
//
// Frames are length-prefixed little-endian records with a magic, a format
// version, a per-link sequence number, an epoch tag (the coordinator
// round at emission), and a trailing CRC-32. Versioning rule: the header
// layout up to and including `payload_bytes` is frozen forever; any
// payload change bumps kVersion, and decoders reject versions they do not
// know (no silent forward parsing). Sequence numbers are per directed
// link and assigned by the transport, not by the tracker.
//
// Byte accounting: EncodedSize() is exact, so the fault-injected replay
// can count link bytes to the byte and asserts
//   link bytes == first-transmission + retransmit + ack overhead
// with equality (tests/fault_tolerance_test.cc).

#ifndef DISTTRACK_SIM_WIRE_H_
#define DISTTRACK_SIM_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace disttrack {
namespace sim {
namespace wire {

/// Frame magic ("DTW1") and the current payload-format version.
/// History: v1 = robustness PR (types 1..11); v2 = service plane (types
/// 12..21, kQueryResult carries vectors); v3 = rank sites ship no node of
/// a skipped level; v4 = type 22, kRankForward: a rank round whose tree
/// cannot compress (rank::RoundParams::forward) forwards every arrival,
/// skipped levels are gone, and the coordinator refuses a rank frame of
/// the wrong kind for the round its epoch names.
constexpr uint32_t kMagic = 0x44545731u;
constexpr uint16_t kVersion = 4;

/// Frozen header prefix:
///   magic u32 | version u16 | type u8 | flags u8 | site i32 | seq u64 |
///   epoch u64 | paper_words u32 | payload_bytes u32
/// `payload_bytes` sits in the last 4 header bytes, so kHeaderBytes of a
/// stream are always enough to learn the full frame length (see
/// PeekFrameSize) — the property the socket reassembly layer builds on.
constexpr size_t kHeaderBytes = 4 + 2 + 1 + 1 + 4 + 8 + 8 + 4 + 4;
constexpr size_t kCrcBytes = 4;

enum class MsgType : uint8_t {
  kCoarseReport = 1,
  kCoinReport = 2,
  kCorrection = 3,
  kBroadcast = 4,
  kSplitNotice = 5,
  kCounterReport = 6,
  kSampleForward = 7,
  kRankSummary = 8,
  kRankResidual = 9,
  kAck = 10,
  kHello = 11,

  // Service plane (daemon <-> site process / query client). Zero paper
  // words by definition: session management, flow control, and queries
  // are outside the §1.1 communication model.
  kJoin = 12,          ///< site->coord session open (flags, options hash)
  kJoinAck = 13,       ///< coord->site session accept / reject
  kGrantRequest = 14,  ///< site->coord: ask to run arrivals (0 = stream end)
  kGrant = 15,         ///< coord->site: lockstep run grant
  kGrantDone = 16,     ///< site->coord: granted run finished
  kNoBroadcast = 17,   ///< coord->site: coarse report judged quiet
  kRitualAck = 18,     ///< site->coord: broadcast ritual applied
  kQuery = 19,         ///< client->coord snapshot query
  kQueryResult = 20,   ///< coord->client query answer (vector payload)
  kShutdown = 21,      ///< orderly teardown (client->coord->sites)

  kRankForward = 22,  ///< site->coord: one arrival of a forward round
};

/// One protocol message, independent of its frame encoding. The scalar
/// payload slots a/b/c are interpreted per type:
///
///   kCoarseReport   a = Δ (un-reported local count)           1 word
///   kCoinReport     a = new reported value                    1 word
///   kCorrection     a = thinned report value (may be 0)       1 word
///   kBroadcast      a = round, b = n̄                          1 word/site
///   kSplitNotice    —                                         1 word
///   kCounterReport  a = item, b = instance id, c = c̄          2 words
///   kSampleForward  a = item, b = instance id                 1 word
///   kRankSummary    a = first_leaf, b = end_leaf, + vectors   charged words
///   kRankResidual   a = leaf, b = value                       2 words
///   kRankForward    a = value                                 1 word
///   kAck            a = cumulative sequence number            transport-only
///   kHello          a = downlink delivery watermark           transport-only
///
/// Service plane (service/, all zero paper words):
///
///   kJoin           a = flags (bit0: resume), b = options hash,
///                   c = site position (arrivals already absorbed)
///   kJoinAck        a = status (0 = ok), b = coordinator's uplink
///                   watermark for the site, c = downlink resend count
///   kGrantRequest   a = requested arrivals (0 = end of stream)
///   kGrant          a = granted arrivals, b = grant ordinal
///   kGrantDone      a = site position after the run
///   kBroadcast (as decision) c = uplink seq of the triggering coarse
///                   report on the trigger site's copy, 0 otherwise
///   kNoBroadcast    a = uplink seq of the coarse report judged quiet
///   kRitualAck      a = downlink seq of the broadcast applied,
///                   b = site position at application
///   kQuery          a = QueryKind, b / c = kind-specific parameters
///   kQueryResult    a = QueryKind, b = echo of b, c = entry count;
///                   values = kind-specific payload (doubles bit-cast)
///   kShutdown       a = reason code (0 = orderly)
struct Message {
  MsgType type = MsgType::kCoarseReport;
  int32_t site = -1;  ///< originating (uplink) or target (downlink) site;
                      ///< -1 = coordinator broadcast
  uint64_t epoch = 0;  ///< coordinator round at emission
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  std::vector<uint64_t> values;  ///< kRankSummary / kQueryResult only
  std::vector<std::pair<uint64_t, uint32_t>> segments;  ///< kRankSummary only

  /// §1.1 word charge of this message as metered by the tracker at
  /// emission (before the max(1, words) floor and before broadcast
  /// fan-out). Carried in the frame so decode round-trips it; the word
  /// charge of a rank summary depends on its compaction path and cannot
  /// be recomputed from the stored content alone.
  uint64_t paper_words = 0;
};

/// The §1.1 charge of `msg` as CommMeter applies it: max(1, paper_words)
/// per message, times the fan-out (num_sites) for a broadcast. Control
/// frames (kAck, kHello) are transport overhead and charge zero paper
/// words — the paper's model has no retransmissions to acknowledge.
uint64_t PaperWordCharge(const Message& msg, int num_sites);

/// Exact encoded frame size in bytes.
size_t EncodedSize(const Message& msg);

/// Appends the frame for (msg, seq) to `*out` (not cleared). The frame is
/// self-delimiting and CRC-protected.
void EncodeFrame(const Message& msg, uint64_t seq, std::vector<uint8_t>* out);

/// Decodes one frame. Returns false (without touching outputs) on short
/// input, bad magic, unknown version, malformed payload, or CRC mismatch.
bool DecodeFrame(const uint8_t* data, size_t size, Message* msg,
                 uint64_t* seq);

/// Stream-reassembly probe: given at least kHeaderBytes of a byte stream,
/// returns the total length of the frame starting at `data` (header +
/// payload + CRC), or 0 if the prefix cannot open a valid frame (bad
/// magic, unknown version, type outside the table, size < kHeaderBytes).
/// A nonzero return only promises the length — DecodeFrame still
/// validates payload shape and CRC once that many bytes have arrived.
size_t PeekFrameSize(const uint8_t* data, size_t size);

/// Tracker-side emission hook. A tracker with a tap installed emits every
/// protocol message it meters through OnMessage, exactly once, at the
/// moment the §1.1 model would send it. A sim::SiteCore installs itself
/// as the tap of the site it hosts and sends each message on its uplink;
/// with no tap installed the trackers behave exactly as before
/// (direct-call sim).
class WireTap {
 public:
  virtual ~WireTap() = default;
  virtual void OnMessage(Message&& msg) = 0;
};

/// Sends one protocol message of `site` (-1: the coordinator), stamped
/// `epoch`, to `tap`; a no-op when `tap` is null.
void Emit(WireTap* tap, MsgType type, int site, uint64_t epoch, uint64_t a,
          uint64_t b = 0, uint64_t c = 0, uint64_t words = 1);

}  // namespace wire
}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_WIRE_H_
