// Communication accounting for the distributed tracking model (paper §1.1).
//
// The model charges by messages and words: any integer < N or stream element
// is one word, and a broadcast from the coordinator to all k sites costs k
// messages. Every protocol routes its traffic through a CommMeter so that
// the experiment harnesses measure exactly the quantity the paper bounds.

#ifndef DISTTRACK_SIM_COMM_METER_H_
#define DISTTRACK_SIM_COMM_METER_H_

#include <cstdint>
#include <vector>

namespace disttrack {
namespace sim {

/// Tallies of one direction of traffic.
struct TrafficTally {
  uint64_t messages = 0;
  uint64_t words = 0;
};

/// Meters all traffic between the coordinator and the k sites.
///
/// Word counts follow §1.1: a counter value, an element, a probability
/// level, etc. each cost one word; a message carrying w payload words is
/// charged w words and one message (empty control messages charge one
/// message, zero words... we charge max(1, payload) words so that "pure
/// signal" messages are not free in word terms either).
class CommMeter {
 public:
  explicit CommMeter(int num_sites);

  /// Site -> coordinator message with `words` payload words.
  void RecordUpload(int site, uint64_t words);

  /// `messages` site -> coordinator messages carrying `words` charged
  /// words in total. Used by rank's batch engine to post a whole batch's
  /// deferred per-site charges in one call; the caller applies the
  /// max(1, payload)-per-message rule when accumulating.
  void RecordUploadBulk(int site, uint64_t messages, uint64_t words);

  /// Coordinator -> single site message with `words` payload words.
  void RecordDownload(int site, uint64_t words);

  /// Coordinator -> all sites. Charged `num_sites` messages and
  /// `num_sites * words` words, per §1.1 ("broadcasting a message costs k
  /// times the communication for a single message").
  void RecordBroadcast(uint64_t words);

  /// Total messages across both directions, including broadcast fan-out.
  uint64_t TotalMessages() const;

  /// Total words across both directions, including broadcast fan-out.
  uint64_t TotalWords() const;

  /// Direction-level tallies.
  const TrafficTally& uploads() const { return uploads_; }
  const TrafficTally& downloads() const { return downloads_; }

  /// Number of RecordBroadcast calls (before fan-out multiplication).
  uint64_t broadcast_count() const { return broadcast_count_; }

  /// Per-site upload message counts (used by skew experiments).
  uint64_t SiteUploadMessages(int site) const;

  int num_sites() const { return num_sites_; }

  /// Zeroes every tally.
  void Reset();

  /// Adds every tally of `other` into this meter (used by boosters that run
  /// several independent protocol copies and report combined traffic).
  void MergeFrom(const CommMeter& other);

 private:
  int num_sites_;
  TrafficTally uploads_;
  TrafficTally downloads_;
  uint64_t broadcast_count_ = 0;
  std::vector<uint64_t> site_upload_messages_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_COMM_METER_H_
