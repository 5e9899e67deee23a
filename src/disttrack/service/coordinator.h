// The coordinator daemon: k tracker site-halves behind sockets, one
// non-blocking poll() event loop.
//
// The protocol itself is sim::CoordinatorCore (sim/coordinator_core.h),
// the same core the fault-injected replay drives: per-site reliable
// channels with downlink journals for reconnect catch-up, the estimator
// replica (rebuilt from delivered frames alone, bit-identical to the
// serial tracker's coordinator half), the §1.1 paper ledger, and the
// broadcast decisions. This class puts sockets around it, validates
// joins, runs the lockstep admission scheduler with its grant order
// journal, and answers queries (current count / heavy hitters /
// quantiles / stats / order journal) from the core's replica at any
// time, including mid-stream.
//
// Event loop contract: the loop never blocks on any one connection —
// reads are non-blocking and framed by FrameReader, writes buffer and
// drain on POLLOUT, and a site whose output buffer exceeds the
// backpressure cap simply stops being read until it drains. A site
// parked on a broadcast decision is unblocked by the ordinary write
// path; the coordinator never needs to wait for it.
//
// A site is done once it has sent its end-of-stream request and
// ritual-acked the last broadcast staged to it: its kRitualAck follows
// the corrections that ritual emitted on the same ordered channel, so a
// fleet whose sites are all done has nothing left in flight.
//
// Fault model (docs/OPERATIONS.md): a site connection dying mid-grant
// stalls the lockstep scheduler — no other site is granted until the
// crashed site resumes and completes its run at its original journal
// position. That trades availability for the tier-A bit-identity
// guarantee; freerun mode keeps granting and settles for ε-accuracy.

#ifndef DISTTRACK_SERVICE_COORDINATOR_H_
#define DISTTRACK_SERVICE_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/service/socket.h"
#include "disttrack/sim/coordinator_core.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

/// kQuery.a values (parameters in kQuery.b; doubles bit-cast to u64).
enum QueryKind : uint64_t {
  kQueryCount = 0,         ///< -> [est bits, n', round]
  kQueryPoint = 1,         ///< b = item -> [est bits]       (frequency)
  kQueryHeavyHitters = 2,  ///< b = phi bits -> item/est-bit pairs with
                           ///< est >= phi * n', by item; phi <= 0
                           ///< lists est == 0 items too     (frequency)
  kQueryRank = 3,          ///< b = value -> [est bits]       (rank)
  kQueryQuantile = 4,      ///< b = phi bits -> [value, est bits]  (rank)
  kQueryStats = 5,         ///< -> fixed stats vector (see Stats::ToValues)
  kQueryJournal = 6,       ///< -> grant order journal as site/len pairs
};

class Coordinator : public sim::DownlinkSink {
 public:
  /// Wire/paper ledgers. The paper channel is the core's Ledger, which
  /// mirrors CommMeter §1.1 semantics exactly: one message + max(1, words)
  /// words per delivered uplink data frame, k messages + k words per
  /// derived broadcast; duplicates (crash replays) and service-plane
  /// frames charge nothing.
  struct Stats : sim::CoordinatorCore::Ledger {
    uint64_t frames_in = 0, frames_out = 0;
    uint64_t bytes_in = 0, bytes_out = 0;      ///< socket read()/write()
    uint64_t encoded_in = 0, encoded_out = 0;  ///< Σ wire::EncodedSize
    uint64_t resend_frames = 0, resend_bytes = 0;  ///< rejoin re-blasts
    uint64_t rejoins = 0, rituals_acked = 0;
  };

  explicit Coordinator(const ServiceOptions& options);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  bool AddListener(const Endpoint& endpoint, std::string* error);

  /// Takes ownership of an already-connected socket (tests connect a
  /// socketpair end; the daemon main only uses listeners).
  void AdoptConnection(int fd);

  /// One poll() round: accept, read, frame, handle, write. Returns the
  /// number of frames handled, or -1 on poll failure.
  int PollOnce(int timeout_ms);

  /// Daemon main loop: poll until a client kShutdown has been fanned out
  /// and every site connection has drained and closed.
  int RunUntilShutdown();

  bool ShutdownComplete() const;
  bool AllSitesDone() const;
  Stats stats() const;
  uint64_t site_position(int site) const;

  /// Answers a query in-process (same code path as the wire API).
  sim::wire::Message Query(const sim::wire::Message& query) const;

 private:
  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    int site = -1;  ///< joined site id, -1 until kJoin completes
    bool has_join = false;
    sim::wire::Message join;
    bool close_after_drain = false;
    bool closed = false;
    size_t pending() const { return out.size() - out_off; }
  };

  struct Session {
    Conn* conn = nullptr;  ///< non-null iff the core has the site attached
    uint64_t position = 0;
    uint64_t ritual_acked = 0;  ///< downlink seq of the last ritual acked
    bool ever_joined = false;
    bool stream_ended = false;  ///< sent its end-of-stream request
  };

  struct GrantEntry {
    int site = 0;
    uint64_t length = 0;
  };

  void HandleFrame(Conn* conn, sim::wire::Message msg, uint64_t seq);
  void HandleSiteFrame(Conn* conn, sim::wire::Message msg, uint64_t seq);
  // The service-plane half of a frame the core applied.
  void HandleControl(int site, const sim::wire::Message& msg);
  // Sites that have sent their end-of-stream request and ritual-acked the
  // last broadcast staged to them.
  uint64_t SitesDone() const;
  void FinishJoin(Conn* conn, const sim::wire::Message& join,
                  const sim::wire::Message& hello);
  void TrySchedule();
  void Grant(int site, uint64_t want);
  void BeginShutdown();

  // sim::DownlinkSink: the core's frames for an attached site.
  void Send(int site, const std::vector<uint8_t>& frame, bool resend) override;
  void AppendOut(Conn* conn, const std::vector<uint8_t>& bytes);
  void AppendUnseq(Conn* conn, const sim::wire::Message& msg);
  void TryWrite(Conn* conn);
  void CloseConn(Conn* conn);
  uint64_t PendingOutBytes() const;

  ServiceOptions options_;
  uint64_t options_hash_ = 0;

  std::vector<int> listeners_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Session> sessions_;
  sim::CoordinatorCore core_;

  // Lockstep admission: FIFO of pending wants, at most one grant in
  // flight fleet-wide. active_site_ == -1 means the floor is free.
  std::deque<GrantEntry> want_queue_;
  int active_site_ = -1;
  uint64_t grant_ordinal_ = 0;
  std::vector<GrantEntry> order_journal_;

  bool shutting_down_ = false;
  int handled_in_round_ = 0;
  Stats stats_;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_COORDINATOR_H_
