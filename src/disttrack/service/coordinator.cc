#include "disttrack/service/coordinator.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "disttrack/core/quantile.h"

namespace disttrack {
namespace service {

namespace {

using sim::wire::Message;
using sim::wire::MsgType;

/// Stop reading a connection whose unsent output exceeds this.
constexpr size_t kBackpressureBytes = 4u << 20;

uint64_t Bits(double d) {
  uint64_t bits = 0;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

sim::CoordinatorCore MakeCore(const ServiceOptions& o,
                              sim::DownlinkSink* sink) {
  switch (o.tracker) {
    case TrackerKind::kCount:
      return sim::CoordinatorCore(o.CountOptions(), sink);
    case TrackerKind::kFrequency:
      return sim::CoordinatorCore(o.FrequencyOptions(), sink);
    case TrackerKind::kRank:
      break;
  }
  return sim::CoordinatorCore(o.RankOptions(), sink);
}

}  // namespace

Coordinator::Coordinator(const ServiceOptions& options)
    : options_(options),
      options_hash_(options.Hash()),
      sessions_(static_cast<size_t>(options.num_sites)),
      core_(MakeCore(options, this)) {}

Coordinator::~Coordinator() {
  for (int fd : listeners_) close(fd);
  for (auto& conn : conns_) {
    if (!conn->closed) close(conn->fd);
  }
}

bool Coordinator::AddListener(const Endpoint& endpoint, std::string* error) {
  int fd = Listen(endpoint, error);
  if (fd < 0) return false;
  SetNonBlocking(fd, true);
  listeners_.push_back(fd);
  return true;
}

void Coordinator::AdoptConnection(int fd) {
  SetNonBlocking(fd, true);
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conns_.push_back(std::move(conn));
}

uint64_t Coordinator::site_position(int site) const {
  return sessions_[static_cast<size_t>(site)].position;
}

uint64_t Coordinator::SitesDone() const {
  uint64_t done = 0;
  for (int site = 0; site < options_.num_sites; ++site) {
    const Session& s = sessions_[static_cast<size_t>(site)];
    if (s.stream_ended && s.ritual_acked >= core_.last_broadcast(site)) ++done;
  }
  return done;
}

bool Coordinator::AllSitesDone() const {
  return SitesDone() == static_cast<uint64_t>(options_.num_sites);
}

Coordinator::Stats Coordinator::stats() const {
  Stats stats = stats_;
  static_cast<sim::CoordinatorCore::Ledger&>(stats) = core_.ledger();
  return stats;
}

bool Coordinator::ShutdownComplete() const {
  if (!shutting_down_) return false;
  for (const Session& s : sessions_) {
    if (s.conn != nullptr) return false;
  }
  return true;
}

uint64_t Coordinator::PendingOutBytes() const {
  uint64_t total = 0;
  for (const auto& conn : conns_) {
    if (!conn->closed) total += conn->pending();
  }
  return total;
}

// --- Output path ----------------------------------------------------------

void Coordinator::AppendOut(Conn* conn, const std::vector<uint8_t>& bytes) {
  conn->out.insert(conn->out.end(), bytes.begin(), bytes.end());
  stats_.frames_out += 1;
  stats_.encoded_out += bytes.size();
}

void Coordinator::AppendUnseq(Conn* conn, const Message& msg) {
  std::vector<uint8_t> frame;
  sim::wire::EncodeFrame(msg, 0, &frame);
  AppendOut(conn, frame);
}

void Coordinator::Send(int site, const std::vector<uint8_t>& frame,
                       bool resend) {
  if (resend) {
    stats_.resend_frames += 1;
    stats_.resend_bytes += frame.size();
  }
  AppendOut(sessions_[static_cast<size_t>(site)].conn, frame);
}

void Coordinator::TryWrite(Conn* conn) {
  while (conn->pending() > 0) {
    ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                     conn->pending(), MSG_NOSIGNAL);
    if (n > 0) {
      stats_.bytes_out += static_cast<uint64_t>(n);
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConn(conn);
    return;
  }
  conn->out.clear();
  conn->out_off = 0;
  if (conn->close_after_drain) CloseConn(conn);
}

void Coordinator::CloseConn(Conn* conn) {
  if (conn->closed) return;
  close(conn->fd);
  conn->closed = true;
  stats_.discarded_out += conn->pending();
  if (conn->site >= 0) {
    Session& s = sessions_[static_cast<size_t>(conn->site)];
    if (s.conn == conn) {
      s.conn = nullptr;
      core_.Detach(conn->site);
    }
  }
}

// --- Session establishment ------------------------------------------------

void Coordinator::FinishJoin(Conn* conn, const Message& join,
                             const Message& hello) {
  uint64_t status = 0;
  int site = join.site;
  Session* s = nullptr;
  if (site < 0 || site >= options_.num_sites) {
    status = 2;  // site id out of range
  } else {
    s = &sessions_[static_cast<size_t>(site)];
    if (join.b != options_hash_) {
      status = 1;  // fleet options mismatch
    } else if (s->conn != nullptr) {
      status = 3;  // duplicate live connection for this site
    } else if (hello.b > core_.journal_size(site)) {
      status = 4;  // watermark from the future: corrupt snapshot
    }
    // A fresh (non-resume) join for a site the coordinator has already
    // counted frames from is fine: deterministic replay from position 0
    // regenerates the identical frames at the identical sequence numbers,
    // and the dedup watermark swallows every one the coordinator already
    // applied — a snapshot only shortens the replay, it isn't needed for
    // correctness (docs/OPERATIONS.md, recovery matrix).
  }

  Message ack;
  ack.type = MsgType::kJoinAck;
  ack.site = site;
  ack.a = status;
  ack.b = (s != nullptr) ? core_.up_watermark(site) : 0;
  ack.c = status == 0 ? core_.journal_size(site) - hello.b : 0;
  AppendUnseq(conn, ack);
  if (status != 0) {
    conn->close_after_drain = true;
    TryWrite(conn);
    return;
  }

  conn->site = site;
  s->conn = conn;
  if (s->ever_joined) stats_.rejoins += 1;
  s->ever_joined = true;

  // Catch-up re-blast of every journaled grant and decision the site has
  // not applied (counted as resends by Send).
  core_.Attach(site, hello.b);
  TryWrite(conn);
}

// --- Scheduler ------------------------------------------------------------

void Coordinator::Grant(int site, uint64_t want) {
  order_journal_.push_back(GrantEntry{site, want});
  Message grant;
  grant.type = MsgType::kGrant;
  grant.site = site;
  grant.a = want;
  grant.b = ++grant_ordinal_;
  core_.Stage(site, grant);
}

void Coordinator::TrySchedule() {
  if (options_.mode == RunMode::kFreerun) return;  // granted at request
  // Lockstep: one grant in flight fleet-wide. If the grantee's connection
  // died mid-run, the floor stays held until it resumes and finishes at
  // its original journal position (consistency over availability).
  while (active_site_ == -1 && !want_queue_.empty()) {
    GrantEntry next = want_queue_.front();
    want_queue_.pop_front();
    active_site_ = next.site;
    Grant(next.site, next.length);
  }
}

// --- Delivered uplink frames ----------------------------------------------

void Coordinator::HandleControl(int site, const Message& msg) {
  Session& s = sessions_[static_cast<size_t>(site)];
  switch (msg.type) {
    case MsgType::kGrantRequest:
      if (msg.a == 0) {
        s.stream_ended = true;
      } else if (options_.mode == RunMode::kFreerun) {
        Grant(site, msg.a);
      } else {
        want_queue_.push_back(GrantEntry{site, msg.a});
        TrySchedule();
      }
      break;
    case MsgType::kGrantDone:
      s.position = msg.a;
      if (active_site_ == site) {
        active_site_ = -1;
        TrySchedule();
      }
      break;
    case MsgType::kRitualAck:
      s.ritual_acked = msg.a;
      stats_.rituals_acked += 1;
      break;
    default:
      break;  // estimator frames: the core's replica apply was the job
  }
}

void Coordinator::HandleSiteFrame(Conn* conn, Message msg, uint64_t seq) {
  int site = conn->site;
  if (msg.type == MsgType::kAck) {
    core_.Ack(site, msg.a);
    return;
  }
  if (msg.type == MsgType::kJoin || msg.type == MsgType::kHello) return;
  // The replica indexes per-site state by msg.site: a peer speaking for
  // any site but the one it joined as is refused before anything
  // applies its frame. So is a frame the replica refuses.
  if (msg.site != site) {
    CloseConn(conn);
    return;
  }
  std::vector<Message> applied;
  bool ok = core_.Receive(site, seq, std::move(msg), &applied);
  for (const Message& m : applied) HandleControl(site, m);
  if (!ok) CloseConn(conn);
}

// --- Queries --------------------------------------------------------------

sim::wire::Message Coordinator::Query(const Message& query) const {
  Message result;
  result.type = MsgType::kQueryResult;
  result.site = -1;
  result.a = query.a;
  result.b = query.b;
  const sim::CoarseMirror& coarse = core_.coarse();
  uint64_t n_prime = coarse.n_prime;
  switch (query.a) {
    case kQueryCount: {
      double est = 0;
      if (options_.tracker == TrackerKind::kCount) est = core_.Estimate(0);
      result.values = {Bits(est), n_prime, coarse.round};
      break;
    }
    case kQueryPoint:
      if (core_.frequency() != nullptr) {
        result.values = {Bits(core_.Estimate(query.b))};
      }
      break;
    case kQueryHeavyHitters:
      if (core_.frequency() != nullptr) {
        double phi = 0;
        uint64_t bits = query.b;
        memcpy(&phi, &bits, sizeof(phi));
        double threshold = phi * static_cast<double>(n_prime);
        for (const auto& [item, est] :
             core_.frequency()->HeavyHitters(threshold)) {
          result.values.push_back(item);
          result.values.push_back(Bits(est));
        }
      }
      break;
    case kQueryRank:
      if (core_.rank() != nullptr) {
        result.values = {Bits(core_.Estimate(query.b))};
      }
      break;
    case kQueryQuantile:
      if (core_.rank() != nullptr) {
        double phi = 0;
        uint64_t bits = query.b;
        memcpy(&phi, &bits, sizeof(phi));
        const auto& replica = *core_.rank();
        uint64_t x = core::QuantileSearch(
            options_.universe, phi * static_cast<double>(n_prime),
            [&replica](uint64_t value) { return replica.Estimate(value); });
        result.values = {x, Bits(replica.Estimate(x))};
      }
      break;
    case kQueryStats: {
      const Stats totals = stats();
      uint64_t pending_out = PendingOutBytes();
      uint64_t ledger_ok =
          (totals.bytes_in == totals.encoded_in &&
           totals.bytes_out + pending_out + totals.discarded_out ==
               totals.encoded_out)
              ? 1
              : 0;
      result.values = {SitesDone(),
                       static_cast<uint64_t>(options_.num_sites),
                       totals.frames_in,
                       totals.frames_out,
                       totals.bytes_in,
                       totals.bytes_out,
                       totals.encoded_in,
                       totals.encoded_out,
                       pending_out,
                       totals.resend_frames,
                       totals.resend_bytes,
                       core_.duplicates(),
                       totals.paper_messages,
                       totals.paper_words,
                       totals.broadcasts,
                       totals.rejoins,
                       totals.decisions,
                       ledger_ok,
                       totals.discarded_out};
      break;
    }
    case kQueryJournal:
      for (const GrantEntry& entry : order_journal_) {
        result.values.push_back(static_cast<uint64_t>(entry.site));
        result.values.push_back(entry.length);
      }
      break;
    default:
      break;  // unknown kind: empty result, c = 0
  }
  result.c = result.values.size();
  return result;
}

void Coordinator::BeginShutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  for (int site = 0; site < options_.num_sites; ++site) {
    Message bye;
    bye.type = MsgType::kShutdown;
    bye.site = site;
    core_.Stage(site, bye);
  }
}

// --- Frame dispatch -------------------------------------------------------

void Coordinator::HandleFrame(Conn* conn, Message msg, uint64_t seq) {
  ++handled_in_round_;
  stats_.frames_in += 1;
  stats_.encoded_in += sim::wire::EncodedSize(msg);

  if (conn->site >= 0) {
    HandleSiteFrame(conn, std::move(msg), seq);
    return;
  }
  // Unidentified connection: the first frame decides what it is.
  switch (msg.type) {
    case MsgType::kJoin:
      conn->join = msg;
      conn->has_join = true;
      break;
    case MsgType::kHello:
      if (conn->has_join) FinishJoin(conn, conn->join, msg);
      break;
    case MsgType::kQuery:
      AppendUnseq(conn, Query(msg));
      TryWrite(conn);
      break;
    case MsgType::kShutdown:
      BeginShutdown();
      break;
    case MsgType::kAck:
      break;
    default:
      CloseConn(conn);
      break;
  }
}

// --- Event loop -----------------------------------------------------------

int Coordinator::PollOnce(int timeout_ms) {
  handled_in_round_ = 0;

  std::vector<pollfd> fds;
  fds.reserve(listeners_.size() + conns_.size());
  for (int fd : listeners_) fds.push_back(pollfd{fd, POLLIN, 0});
  std::vector<Conn*> polled;
  for (auto& conn : conns_) {
    if (conn->closed) continue;
    short events = 0;
    if (conn->pending() < kBackpressureBytes) events |= POLLIN;
    if (conn->pending() > 0) events |= POLLOUT;
    fds.push_back(pollfd{conn->fd, events, 0});
    polled.push_back(conn.get());
  }

  int ready = poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0 && errno != EINTR) return -1;

  for (size_t i = 0; i < listeners_.size(); ++i) {
    if ((fds[i].revents & POLLIN) == 0) continue;
    for (;;) {
      int fd = accept(listeners_[i], nullptr, nullptr);
      if (fd < 0) break;
      AdoptConnection(fd);
    }
  }

  uint8_t buf[65536];
  for (size_t i = 0; i < polled.size(); ++i) {
    Conn* conn = polled[i];
    short revents = fds[listeners_.size() + i].revents;
    if (conn->closed || revents == 0) continue;
    if (revents & (POLLOUT | POLLERR | POLLHUP)) TryWrite(conn);
    if (conn->closed || (revents & POLLIN) == 0) continue;

    bool eof = false;
    for (;;) {
      long n = ReadSome(conn->fd, buf, sizeof(buf));
      if (n == -2) break;  // drained
      if (n <= 0) {
        eof = true;
        break;
      }
      stats_.bytes_in += static_cast<uint64_t>(n);
      conn->reader.Append(buf, static_cast<size_t>(n));
    }
    for (;;) {
      Message msg;
      uint64_t seq = 0;
      FrameReader::Result r = conn->reader.Next(&msg, &seq);
      if (r == FrameReader::Result::kNeed) break;
      if (r == FrameReader::Result::kError) {
        eof = true;
        break;
      }
      HandleFrame(conn, std::move(msg), seq);
      if (conn->closed) break;
    }
    if (conn->closed) continue;
    if (eof) {
      CloseConn(conn);
      continue;
    }
    // Ack whatever the reads advanced, then push responses out now —
    // a site may be parked on one of these frames.
    if (conn->site >= 0) {
      Message ack;
      ack.type = MsgType::kAck;
      ack.site = conn->site;
      ack.a = core_.up_watermark(conn->site);
      AppendUnseq(conn, ack);
    }
    TryWrite(conn);
  }

  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::unique_ptr<Conn>& c) {
                                return c->closed;
                              }),
               conns_.end());
  return handled_in_round_;
}

int Coordinator::RunUntilShutdown() {
  while (!ShutdownComplete()) {
    if (PollOnce(100) < 0) return 1;
  }
  return 0;
}

}  // namespace service
}  // namespace disttrack
