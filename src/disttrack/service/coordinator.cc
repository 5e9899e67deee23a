#include "disttrack/service/coordinator.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

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

}  // namespace

Coordinator::Coordinator(const ServiceOptions& options)
    : options_(options),
      options_hash_(options.Hash()),
      sessions_(static_cast<size_t>(options.num_sites)) {
  switch (options_.tracker) {
    case TrackerKind::kCount:
      count_replica_ =
          std::make_unique<sim::CountReplica>(options_.CountOptions());
      break;
    case TrackerKind::kFrequency:
      frequency_replica_ = std::make_unique<sim::FrequencyReplica>(
          options_.FrequencyOptions());
      break;
    case TrackerKind::kRank:
      rank_replica_ =
          std::make_unique<sim::RankReplica>(options_.RankOptions());
      break;
  }
}

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

bool Coordinator::AllSitesDone() const {
  for (const Session& s : sessions_) {
    if (!s.done) return false;
  }
  return true;
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

void Coordinator::StageDown(int site, Message msg) {
  Session& s = sessions_[static_cast<size_t>(site)];
  s.down_journal.push_back(msg);
  std::vector<uint8_t> frame;
  s.down.Stage(msg, 0, &frame);
  if (s.conn != nullptr) AppendOut(s.conn, frame);
  // Disconnected: the journal keeps the frame; FinishJoin re-stages the
  // suffix past the site's watermark when it comes back.
}

void Coordinator::TryWrite(Conn* conn) {
  while (conn->pending() > 0) {
    ssize_t n = write(conn->fd, conn->out.data() + conn->out_off,
                      conn->pending());
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
  if (conn->site >= 0) {
    Session& s = sessions_[static_cast<size_t>(conn->site)];
    if (s.conn == conn) {
      s.conn = nullptr;
      // TCP delivered in order, so nothing can be parked in the reorder
      // buffer; clear it anyway so a replayed prefix starts clean.
      s.up.Reset(s.up.watermark());
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
    } else if (hello.b > s->down_journal.size()) {
      status = 4;  // watermark from the future: corrupt snapshot
    }
    // A fresh (non-resume) join for a site the coordinator has already
    // counted frames from is fine: deterministic replay from position 0
    // regenerates the identical frames at the identical sequence numbers,
    // and the dedup watermark swallows every one the coordinator already
    // applied — a snapshot only shortens the replay, it isn't needed for
    // correctness (docs/OPERATIONS.md, recovery matrix).
  }

  uint64_t resend_count =
      (status == 0 && s != nullptr) ? s->down_journal.size() - hello.b : 0;
  Message ack;
  ack.type = MsgType::kJoinAck;
  ack.site = site;
  ack.a = status;
  ack.b = (s != nullptr) ? s->up.watermark() : 0;
  ack.c = resend_count;
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

  // Catch-up re-blast: every journaled downlink frame the site has not
  // applied, re-staged in order at its original sequence number. This
  // necessarily includes every grant and broadcast decision the resumed
  // replay will block on — decisions are emitted after the reports that
  // trigger them, so their seqs all exceed the snapshot's watermark.
  s->down.Reset(hello.b + 1);
  for (size_t j = hello.b; j < s->down_journal.size(); ++j) {
    std::vector<uint8_t> frame;
    s->down.Stage(s->down_journal[j], 0, &frame);
    stats_.resend_frames += 1;
    stats_.resend_bytes += frame.size();
    AppendOut(conn, frame);
  }
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
  StageDown(site, grant);
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

void Coordinator::DecideCoarse(int site, const Message& report,
                               uint64_t up_seq) {
  stats_.decisions += 1;
  if (decider_.ApplyReport(report.a)) {
    Message broadcast;
    broadcast.type = MsgType::kBroadcast;
    broadcast.site = -1;
    broadcast.epoch = decider_.round;
    broadcast.a = decider_.round;
    broadcast.b = decider_.n_bar;
    broadcast.paper_words = 1;
    stats_.broadcasts += 1;
    stats_.paper_messages += static_cast<uint64_t>(options_.num_sites);
    stats_.paper_words +=
        sim::wire::PaperWordCharge(broadcast, options_.num_sites);
    for (int target = 0; target < options_.num_sites; ++target) {
      Message copy = broadcast;
      copy.c = (target == site) ? up_seq : 0;
      StageDown(target, copy);
    }
  } else {
    Message quiet;
    quiet.type = MsgType::kNoBroadcast;
    quiet.site = site;
    quiet.a = up_seq;
    StageDown(site, quiet);
  }
}

void Coordinator::ApplyDelivered(int site, Message msg, uint64_t up_seq) {
  uint64_t charge = sim::wire::PaperWordCharge(msg, options_.num_sites);
  if (charge > 0) {
    // A delivered data-plane frame is exactly one §1.1 upload; replays
    // of journaled frames never reach here (sequence dedup).
    stats_.paper_messages += 1;
    stats_.paper_words += charge;
  }
  if (count_replica_) count_replica_->Apply(msg);
  if (frequency_replica_) frequency_replica_->Apply(msg);
  if (rank_replica_) rank_replica_->Apply(msg);

  Session& s = sessions_[static_cast<size_t>(site)];
  switch (msg.type) {
    case MsgType::kCoarseReport:
      DecideCoarse(site, msg, up_seq);
      break;
    case MsgType::kGrantRequest:
      if (msg.a == 0) {
        s.done = true;
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
      stats_.rituals_acked += 1;
      break;
    default:
      break;  // estimator frames: replica apply above was the whole job
  }
}

void Coordinator::HandleSiteFrame(Conn* conn, Message msg, uint64_t seq) {
  Session& s = sessions_[static_cast<size_t>(conn->site)];
  if (msg.type == MsgType::kAck) {
    s.down.Ack(msg.a);
    return;
  }
  if (msg.type == MsgType::kJoin || msg.type == MsgType::kHello) return;
  // The replicas index per-site state by msg.site: a peer speaking for
  // any site but the one it joined as is refused before anything
  // applies its frame.
  if (msg.site != conn->site) {
    CloseConn(conn);
    return;
  }
  uint64_t before = s.up.watermark();
  std::vector<Message> delivered;
  s.up.Accept(seq, std::move(msg), &delivered);
  for (size_t i = 0; i < delivered.size(); ++i) {
    ApplyDelivered(conn->site, std::move(delivered[i]), before + 1 + i);
  }
}

// --- Queries --------------------------------------------------------------

sim::wire::Message Coordinator::Query(const Message& query) const {
  Message result;
  result.type = MsgType::kQueryResult;
  result.site = -1;
  result.a = query.a;
  result.b = query.b;
  uint64_t n_prime = decider_.n_prime;
  switch (query.a) {
    case kQueryCount: {
      double est = 0;
      if (count_replica_) est = count_replica_->Estimate(0);
      result.values = {Bits(est), n_prime, decider_.round};
      break;
    }
    case kQueryPoint:
      if (frequency_replica_) {
        result.values = {Bits(frequency_replica_->Estimate(query.b))};
      }
      break;
    case kQueryHeavyHitters:
      if (frequency_replica_) {
        double phi = 0;
        uint64_t bits = query.b;
        memcpy(&phi, &bits, sizeof(phi));
        double threshold = phi * static_cast<double>(n_prime);
        for (const auto& [item, est] : frequency_replica_->ItemEstimates()) {
          if (est >= threshold) {
            result.values.push_back(item);
            result.values.push_back(Bits(est));
          }
        }
      }
      break;
    case kQueryRank:
      if (rank_replica_) {
        result.values = {Bits(rank_replica_->Estimate(query.b))};
      }
      break;
    case kQueryQuantile:
      if (rank_replica_) {
        double phi = 0;
        uint64_t bits = query.b;
        memcpy(&phi, &bits, sizeof(phi));
        double target = phi * static_cast<double>(n_prime);
        uint64_t lo = 0, hi = options_.universe;
        while (lo < hi) {
          uint64_t mid = lo + (hi - lo) / 2;
          if (rank_replica_->Estimate(mid) < target) lo = mid + 1;
          else hi = mid;
        }
        result.values = {lo, Bits(rank_replica_->Estimate(lo))};
      }
      break;
    case kQueryStats: {
      uint64_t sites_done = 0, dup_frames = 0;
      for (const Session& s : sessions_) {
        if (s.done) ++sites_done;
        dup_frames += s.up.duplicates();
      }
      uint64_t pending_out = PendingOutBytes();
      uint64_t ledger_ok =
          (stats_.bytes_in == stats_.encoded_in &&
           stats_.bytes_out + pending_out == stats_.encoded_out)
              ? 1
              : 0;
      result.values = {sites_done,
                       static_cast<uint64_t>(options_.num_sites),
                       stats_.frames_in,
                       stats_.frames_out,
                       stats_.bytes_in,
                       stats_.bytes_out,
                       stats_.encoded_in,
                       stats_.encoded_out,
                       pending_out,
                       stats_.resend_frames,
                       stats_.resend_bytes,
                       dup_frames,
                       stats_.paper_messages,
                       stats_.paper_words,
                       stats_.broadcasts,
                       stats_.rejoins,
                       stats_.decisions,
                       ledger_ok};
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

void Coordinator::AnswerQuery(Conn* conn, const Message& query) {
  AppendUnseq(conn, Query(query));
  TryWrite(conn);
}

void Coordinator::BeginShutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  for (int site = 0; site < options_.num_sites; ++site) {
    Message bye;
    bye.type = MsgType::kShutdown;
    bye.site = site;
    bye.a = 0;
    StageDown(site, bye);
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
      conn->is_client = true;
      AnswerQuery(conn, msg);
      break;
    case MsgType::kShutdown:
      conn->is_client = true;
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
      Session& s = sessions_[static_cast<size_t>(conn->site)];
      Message ack;
      ack.type = MsgType::kAck;
      ack.site = conn->site;
      ack.a = s.up.watermark();
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
