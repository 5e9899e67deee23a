// The site process: one tracker site behind a socket.
//
// A SiteRuntime is a socket loop around the one site protocol,
// sim::SiteCore (sim/site_core.h), the same core the fault-injected
// replay hosts k of. The core holds the tracker's site half, the uplink
// and downlink channels, the decision wait and the snapshot cursors; this
// class dials, joins (or resumes) the session, writes the core's frames,
// feeds it the frames it reads, and runs its shard of the synthetic
// workload grant by grant. The socket is blocking: a site reads only
// while its core waits for something —
//
//   * a kGrant before it may run (lockstep admission),
//   * the kBroadcast / kNoBroadcast decision for a coarse report it just
//     sent (the core is parked at the exact program point the serial
//     tracker runs the ritual),
//   * after its stream ends, rituals triggered by other sites, until
//     kShutdown.
//
// Crash recovery: at run boundaries the site writes an atomic snapshot
// (the core's snapshot, tagged with the fleet and the site). On restart
// it restores the snapshot, rejoins with the resume flag, and replays
// forward: regenerated uplink frames carry their original sequence
// numbers (the coordinator drops them as duplicates — this is the
// no-double-counting mechanism), and the coordinator re-sends every
// downlink frame past the snapshot's watermark, which re-delivers every
// grant and decision the replay waits for, in the original order. The
// fault harness recovers its sites the same way. docs/OPERATIONS.md
// walks through the recovery matrix.

#ifndef DISTTRACK_SERVICE_SITE_RUNTIME_H_
#define DISTTRACK_SERVICE_SITE_RUNTIME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/service/socket.h"
#include "disttrack/sim/site_core.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

class SiteRuntime : private sim::SiteLink {
 public:
  struct Config {
    ServiceOptions options;
    int site = 0;
    Endpoint endpoint;
    std::string snapshot_dir;  ///< empty = snapshots off
    uint64_t crash_after = 0;  ///< _exit(7) after this many arrivals in
                               ///< this process (0 = never); simulates a
                               ///< hard crash for the recovery tests
    int connected_fd = -1;     ///< already-connected socket to use instead
                               ///< of dialing `endpoint` (fork-based tests)
  };

  explicit SiteRuntime(const Config& config);

  /// Runs the site to completion. Exit codes: 0 orderly shutdown,
  /// 2 join rejected by the coordinator, 3 transport failure.
  int Run();

 private:
  // sim::SiteLink: the core's frames are buffered until the next Flush;
  // a parked core flushes and reads one frame.
  void SendUp(const std::vector<uint8_t>& frame) override {
    outbuf_.insert(outbuf_.end(), frame.begin(), frame.end());
  }
  bool PumpDown() override { return Flush() && ReadOne(); }

  bool Join(std::string* error);
  /// Stages a kGrantRequest for `want` arrivals (0 = end of stream).
  void Request(uint64_t want);
  void SendUnseq(const sim::wire::Message& msg);
  bool Flush();
  bool ReadFrame(sim::wire::Message* msg, uint64_t* seq);
  /// Reads one frame and hands it to the core.
  bool ReadOne();
  void MaybeSnapshot();

  Config config_;
  uint64_t options_hash_ = 0;
  sim::SiteCore core_;

  int fd_ = -1;
  FrameReader reader_;
  std::vector<uint8_t> outbuf_;
  uint64_t last_acked_ = 0;  ///< downlink watermark last advertised

  uint64_t arrivals_in_process_ = 0;  ///< arrivals since this exec
  uint64_t last_snapshot_pos_ = 0;
  bool resumed_ = false;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SITE_RUNTIME_H_
