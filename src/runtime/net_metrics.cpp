#include "runtime/net_metrics.h"

#include <bit>
#include <sstream>

namespace ba {

void LatencyHistogram::record(std::uint64_t latency) {
  std::size_t bucket =
      latency == 0 ? 0 : static_cast<std::size_t>(std::bit_width(latency) - 1);
  bucket = std::min(bucket, kBuckets - 1);
  ++buckets[bucket];
  if (count == 0 || latency < min) min = latency;
  if (latency > max) max = latency;
  sum += latency;
  ++count;
}

std::uint64_t LatencyHistogram::quantile_upper_bound(double p) const {
  if (count == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      p * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen > target || seen == count) {
      // The last bucket is open-ended: its only sound bound is the max.
      if (i == kBuckets - 1) return max;
      return (std::uint64_t{1} << (i + 1)) - 1;
    }
  }
  return max;
}

void NetMetrics::reset(std::uint32_t system_size) {
  n = system_size;
  links.assign(static_cast<std::size_t>(n) * n, LinkStats{});
  sent_by.assign(n, 0);
  delivered_to.assign(n, 0);
  latency = LatencyHistogram{};
  deliveries = 0;
  reordered = 0;
}

std::uint64_t NetMetrics::total_delivered() const {
  std::uint64_t total = 0;
  for (const LinkStats& l : links) total += l.delivered;
  return total;
}

std::uint64_t NetMetrics::total_dropped() const {
  std::uint64_t total = 0;
  for (const LinkStats& l : links) total += l.dropped;
  return total;
}

std::uint64_t NetMetrics::total_late() const {
  std::uint64_t total = 0;
  for (const LinkStats& l : links) total += l.late;
  return total;
}

std::uint64_t NetMetrics::total_payload_bytes() const {
  std::uint64_t total = 0;
  for (const LinkStats& l : links) total += l.payload_bytes;
  return total;
}

std::string NetMetrics::summary() const {
  std::ostringstream os;
  os << "delivered " << total_delivered() << " (" << total_payload_bytes()
     << " payload bytes), dropped " << total_dropped() << ", late "
     << total_late() << ", reordered " << reordered;
  if (latency.count > 0) {
    os << "; latency ticks min " << latency.min << " p50<="
       << latency.quantile_upper_bound(0.5) << " p99<="
       << latency.quantile_upper_bound(0.99) << " max " << latency.max;
  }
  return os.str();
}

}  // namespace ba
