// Session-log persistence. Production tooling exchanges session data as
// tabular exports ("most existing web services log session metrics and
// device information", §3.2); this CSV codec lets FLINT's analysis tools
// consume such exports and snapshot synthetic logs for reproducibility.
//
// Columns: client_id,device_index,start_s,end_s,wifi,battery_pct,foreground
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "flint/device/session_generator.h"

namespace flint::device {

/// Write a session log as CSV (with header). The client->device map is
/// reconstructed on read from the sessions themselves.
void write_session_log_csv(const std::string& path, const SessionLog& log);

/// Read a CSV written by write_session_log_csv (or produced externally with
/// the same schema). Sessions are re-sorted by start time.
SessionLog read_session_log_csv(const std::string& path);

/// Spill chunks group their records by fine time bucket: bucket b holds the
/// sessions whose start lies in [b * kSpillBucketSeconds, (b + 1) *
/// kSpillBucketSeconds). The bucket is a non-decreasing function of start, so
/// sorting consecutive buckets batch by batch yields session_order overall.
inline constexpr double kSpillBucketSeconds = 60.0;

/// Number of fine buckets covering a trace horizon [0, horizon): at least 1.
std::size_t spill_buckets(double horizon);

/// The fine bucket of a session start, clamped to the last of `buckets`.
/// Throws CheckError for a negative or NaN start.
std::size_t spill_bucket(TraceTime start, std::size_t buckets);

/// Write `sessions` as one binary spill chunk, grouped by fine bucket with
/// one counting pass (input order within a bucket), and add each bucket's
/// session count to `bucket_totals`, whose size is the bucket count.
///
/// Layout, all u64 host-endian: magic, record count, bucket count B, then
/// B + 1 record offsets (offset[b] is bucket b's first record, offset[B] the
/// count), then one 41-byte packed record per session. Unlike the CSV codec
/// this is an internal scratch format — same-build write/read only, never
/// exchanged — so it favours exact double round-trips and sequential
/// throughput.
void write_session_chunk(const std::string& path, const std::vector<Session>& sessions,
                         std::vector<std::uint64_t>& bucket_totals);

/// Reads a spill chunk back bucket range by bucket range. The constructor
/// validates the header and the whole offset table against the file size;
/// only the file handle and a cursor stay resident, so many readers can be
/// open at once at O(1) memory each.
class SessionChunkReader {
 public:
  explicit SessionChunkReader(const std::string& path);

  std::size_t count() const { return count_; }
  std::size_t buckets() const { return buckets_; }

  /// Read the records of buckets [first, bucket_end), where `first` is the
  /// bucket the previous call stopped at (0 at first), storing each record
  /// of bucket b at out[slots[b - first]++]. `slots` must hold an entry per
  /// bucket; a slot that reaches out.size() throws CheckError instead of
  /// writing past the end.
  void read_until(std::size_t bucket_end, std::vector<Session>& out,
                  std::vector<std::size_t>& slots);

 private:
  std::string path_;
  std::ifstream in_;
  std::size_t count_ = 0;
  std::size_t buckets_ = 0;
  std::uint64_t records_begin_ = 0;  ///< byte position of the first record
  std::size_t next_bucket_ = 0;
  std::size_t next_record_ = 0;
};

}  // namespace flint::device
