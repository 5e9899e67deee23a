#include "disttrack/service/site_runtime.h"

#include <unistd.h>

#include <cstdio>

#include "disttrack/service/site_half.h"

namespace disttrack {
namespace service {

namespace {
using sim::wire::Message;
using sim::wire::MsgType;
}  // namespace

SiteRuntime::SiteRuntime(const Config& config)
    : config_(config),
      options_hash_(config.options.Hash()),
      core_(config.site, SiteHalf::Create(config.options, config.site),
            this) {}

void SiteRuntime::Request(uint64_t want) {
  Message request;
  request.type = MsgType::kGrantRequest;
  request.a = want;
  core_.Stage(std::move(request));
}

void SiteRuntime::SendUnseq(const Message& msg) {
  sim::wire::EncodeFrame(msg, 0, &outbuf_);
}

bool SiteRuntime::Flush() {
  if (core_.failed()) return false;
  if (core_.down_watermark() != last_acked_) {
    Message ack;
    ack.type = MsgType::kAck;
    ack.site = config_.site;
    ack.a = core_.down_watermark();
    SendUnseq(ack);
    last_acked_ = core_.down_watermark();
  }
  if (outbuf_.empty()) return true;
  if (!WriteAll(fd_, outbuf_.data(), outbuf_.size())) {
    core_.Fail("write to coordinator failed");
    return false;
  }
  outbuf_.clear();
  return true;
}

bool SiteRuntime::ReadFrame(Message* msg, uint64_t* seq) {
  uint8_t buf[65536];
  for (;;) {
    switch (reader_.Next(msg, seq)) {
      case FrameReader::Result::kFrame:
        return true;
      case FrameReader::Result::kError:
        core_.Fail("downlink " + reader_.error());
        return false;
      case FrameReader::Result::kNeed:
        break;
    }
    long n = ReadSome(fd_, buf, sizeof(buf));
    if (n == 0) {
      core_.Fail("coordinator closed the connection");
      return false;
    }
    if (n < 0) {
      core_.Fail("read from coordinator failed");
      return false;
    }
    reader_.Append(buf, static_cast<size_t>(n));
  }
}

bool SiteRuntime::ReadOne() {
  Message msg;
  uint64_t seq = 0;
  if (!ReadFrame(&msg, &seq)) return false;
  core_.Receive(seq, std::move(msg));
  return true;
}

void SiteRuntime::MaybeSnapshot() {
  if (config_.snapshot_dir.empty() || config_.options.snapshot_every == 0) {
    return;
  }
  if (core_.position() - last_snapshot_pos_ < config_.options.snapshot_every) {
    return;
  }
  if (!core_.SnapshotReady()) return;  // retry at the next run boundary
  SiteSnapshot snap;
  static_cast<sim::SiteCore::Snapshot&>(snap) = core_.TakeSnapshot();
  snap.options_hash = options_hash_;
  snap.site = config_.site;
  std::string error;
  if (!WriteSnapshotFile(SnapshotPath(config_.snapshot_dir, config_.site),
                         snap, &error)) {
    fprintf(stderr, "site %d: snapshot failed: %s\n", config_.site,
            error.c_str());
    return;  // non-fatal: recovery just replays from the previous one
  }
  last_snapshot_pos_ = core_.position();
}

bool SiteRuntime::Join(std::string* error) {
  Message join;
  join.type = MsgType::kJoin;
  join.site = config_.site;
  join.a = resumed_ ? 1 : 0;
  join.b = options_hash_;
  join.c = core_.position();
  SendUnseq(join);

  Message hello;
  hello.type = MsgType::kHello;
  hello.site = config_.site;
  hello.a = core_.up_next_seq();
  hello.b = core_.down_watermark();
  SendUnseq(hello);
  if (!Flush()) {
    *error = core_.error();
    return false;
  }

  for (;;) {
    Message msg;
    uint64_t seq = 0;
    if (!ReadFrame(&msg, &seq)) {
      *error = core_.error();
      return false;
    }
    if (msg.type == MsgType::kAck) {
      core_.Receive(seq, std::move(msg));
      continue;
    }
    if (msg.type != MsgType::kJoinAck) {
      *error = "expected kJoinAck, got frame type " +
               std::to_string(static_cast<int>(msg.type));
      return false;
    }
    if (msg.a != 0) {
      *error = "coordinator rejected join, status " + std::to_string(msg.a);
      return false;
    }
    return true;
  }
}

int SiteRuntime::Run() {
  // Resume from the latest snapshot, if one matches this fleet's options.
  if (!config_.snapshot_dir.empty()) {
    SiteSnapshot snap;
    if (ReadSnapshotFile(SnapshotPath(config_.snapshot_dir, config_.site),
                         options_hash_, &snap) &&
        snap.site == config_.site) {
      core_.Restore(snap);
      last_acked_ = snap.down_watermark;
      last_snapshot_pos_ = snap.site_arrivals;
      resumed_ = true;
    }
  }

  std::string error;
  fd_ = config_.connected_fd >= 0 ? config_.connected_fd
                                  : Dial(config_.endpoint, 10000, &error);
  if (fd_ < 0) {
    fprintf(stderr, "site %d: %s\n", config_.site, error.c_str());
    return 3;
  }
  if (!Join(&error)) {
    fprintf(stderr, "site %d: %s\n", config_.site, error.c_str());
    close(fd_);
    return 2;
  }

  auto key = [this](uint64_t position) {
    if (config_.crash_after != 0 &&
        arrivals_in_process_ >= config_.crash_after) {
      _exit(7);  // hard crash: no flush, no snapshot, no goodbye
    }
    ++arrivals_in_process_;
    return WorkloadKey(config_.options, config_.site, position);
  };
  const uint64_t shard = ShardSize(config_.options, config_.site);
  while (core_.position() < shard && core_.live()) {
    MaybeSnapshot();
    uint64_t want = shard - core_.position();
    if (want > config_.options.grant_max) want = config_.options.grant_max;
    Request(want);
    // Ritual acks and corrections staged while waiting go out with the
    // next read.
    while (core_.live() && !core_.granted() && PumpDown()) {
    }
    if (!core_.live()) break;
    core_.RunGrant(key);
    if (!Flush()) break;
  }

  if (core_.live()) {
    MaybeSnapshot();
    // End of stream: tell the coordinator, then stay resident — rituals
    // triggered by other sites still need this site's thinning draws.
    Request(0);
    while (core_.live() && PumpDown()) {
    }
  }

  if (core_.failed()) {
    fprintf(stderr, "site %d: %s\n", config_.site, core_.error().c_str());
    close(fd_);
    return 3;
  }
  Flush();
  close(fd_);
  return 0;
}

}  // namespace service
}  // namespace disttrack
