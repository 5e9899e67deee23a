#include "disttrack/sim/comm_meter.h"

#include <algorithm>

namespace disttrack {
namespace sim {

CommMeter::CommMeter(int num_sites)
    : num_sites_(num_sites),
      site_upload_messages_(static_cast<size_t>(std::max(num_sites, 0)), 0) {}

void CommMeter::RecordUpload(int site, uint64_t words) {
  uploads_.messages += 1;
  uploads_.words += std::max<uint64_t>(1, words);
  if (site >= 0 && site < num_sites_) {
    site_upload_messages_[static_cast<size_t>(site)] += 1;
  }
}

void CommMeter::RecordUploadBulk(int site, uint64_t messages,
                                 uint64_t words) {
  uploads_.messages += messages;
  uploads_.words += words;
  if (site >= 0 && site < num_sites_) {
    site_upload_messages_[static_cast<size_t>(site)] += messages;
  }
}

void CommMeter::RecordDownload(int /*site*/, uint64_t words) {
  downloads_.messages += 1;
  downloads_.words += std::max<uint64_t>(1, words);
}

void CommMeter::RecordBroadcast(uint64_t words) {
  broadcast_count_ += 1;
  downloads_.messages += static_cast<uint64_t>(num_sites_);
  downloads_.words +=
      static_cast<uint64_t>(num_sites_) * std::max<uint64_t>(1, words);
}

uint64_t CommMeter::TotalMessages() const {
  return uploads_.messages + downloads_.messages;
}

uint64_t CommMeter::TotalWords() const {
  return uploads_.words + downloads_.words;
}

uint64_t CommMeter::SiteUploadMessages(int site) const {
  if (site < 0 || site >= num_sites_) return 0;
  return site_upload_messages_[static_cast<size_t>(site)];
}

void CommMeter::MergeFrom(const CommMeter& other) {
  uploads_.messages += other.uploads_.messages;
  uploads_.words += other.uploads_.words;
  downloads_.messages += other.downloads_.messages;
  downloads_.words += other.downloads_.words;
  broadcast_count_ += other.broadcast_count_;
  size_t shared =
      std::min(site_upload_messages_.size(), other.site_upload_messages_.size());
  for (size_t i = 0; i < shared; ++i) {
    site_upload_messages_[i] += other.site_upload_messages_[i];
  }
}

void CommMeter::Reset() {
  uploads_ = TrafficTally{};
  downloads_ = TrafficTally{};
  broadcast_count_ = 0;
  std::fill(site_upload_messages_.begin(), site_upload_messages_.end(), 0);
}

}  // namespace sim
}  // namespace disttrack
