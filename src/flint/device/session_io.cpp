#include "flint/device/session_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "flint/util/check.h"
#include "flint/util/csv.h"

namespace flint::device {

void write_session_log_csv(const std::string& path, const SessionLog& log) {
  util::CsvFile file(path);
  FLINT_CHECK_MSG(file.ok(), "cannot write " << path);
  file.write_row({"client_id", "device_index", "start_s", "end_s", "wifi", "battery_pct",
                  "foreground"});
  for (const auto& s : log.sessions) {
    file.write_row({std::to_string(s.client_id), std::to_string(s.device_index),
                    std::to_string(s.start), std::to_string(s.end), s.wifi ? "1" : "0",
                    std::to_string(s.battery_pct), s.foreground ? "1" : "0"});
  }
}

// The CSV format is keyed by the (verified) header row and parsed through
// indexed cells, not a positional walk; the reader also rebuilds
// client_device, which is derived state the writer never stores.
// flint-analyze: allow(save-load-symmetry): header-keyed CSV, not a positional walk
SessionLog read_session_log_csv(const std::string& path) {
  std::ifstream in(path);
  FLINT_CHECK_MSG(in.good(), "cannot read " << path);
  std::string line;
  FLINT_CHECK_MSG(static_cast<bool>(std::getline(in, line)), "empty session CSV " << path);
  auto header = util::parse_csv_line(line);
  FLINT_CHECK_MSG(header.size() == 7 && header[0] == "client_id",
                  "unexpected session CSV header in " << path);

  SessionLog log;
  std::uint64_t max_client = 0;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto cells = util::parse_csv_line(line);
    FLINT_CHECK_MSG(cells.size() == 7, "bad session row at " << path << ":" << lineno);
    Session s;
    s.client_id = std::stoull(cells[0]);
    s.device_index = std::stoul(cells[1]);
    s.start = std::stod(cells[2]);
    s.end = std::stod(cells[3]);
    s.wifi = cells[4] == "1";
    s.battery_pct = std::stod(cells[5]);
    s.foreground = cells[6] == "1";
    FLINT_CHECK_MSG(s.end > s.start, "non-positive session at " << path << ":" << lineno);
    max_client = std::max(max_client, s.client_id);
    log.sessions.push_back(s);
  }
  std::sort(log.sessions.begin(), log.sessions.end(), session_order);
  // Rebuild the client->device map from the observed sessions (last write
  // wins, matching how a device upgrade would appear in real logs).
  log.client_device.assign(max_client + 1, 0);
  for (const auto& s : log.sessions) log.client_device[s.client_id] = s.device_index;
  return log;
}

namespace {

constexpr std::uint64_t kChunkMagic = 0x464C534E424B54ull;  // "FLSNBKT"
constexpr std::uint64_t kHeaderBytes = 3 * 8;               // magic, count, buckets
constexpr std::size_t kRecordBytes = 8 + 8 + 8 + 8 + 8 + 1;
/// Records packed or unpacked per stream write/read: bounds the staging
/// buffer however large a chunk or bucket range is.
constexpr std::size_t kPieceRecords = 1024;

void pack_session(const Session& s, char* rec) {
  std::uint64_t client = s.client_id;
  std::uint64_t device = s.device_index;
  std::memcpy(rec, &client, 8);
  std::memcpy(rec + 8, &device, 8);
  std::memcpy(rec + 16, &s.start, 8);
  std::memcpy(rec + 24, &s.end, 8);
  std::memcpy(rec + 32, &s.battery_pct, 8);
  rec[40] = static_cast<char>((s.wifi ? 1 : 0) | (s.foreground ? 2 : 0));
}

Session unpack_session(const char* rec) {
  Session s;
  std::uint64_t client = 0;
  std::uint64_t device = 0;
  std::memcpy(&client, rec, 8);
  std::memcpy(&device, rec + 8, 8);
  std::memcpy(&s.start, rec + 16, 8);
  std::memcpy(&s.end, rec + 24, 8);
  std::memcpy(&s.battery_pct, rec + 32, 8);
  s.client_id = client;
  s.device_index = static_cast<std::size_t>(device);
  auto flags = static_cast<unsigned char>(rec[40]);
  s.wifi = (flags & 1u) != 0;
  s.foreground = (flags & 2u) != 0;
  return s;
}

void write_u64s(std::ofstream& out, const std::uint64_t* v, std::size_t n) {
  std::vector<char> buf(n * 8);
  std::memcpy(buf.data(), v, buf.size());
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// Read `n` u64s; false if the file ended first.
bool read_u64s(std::ifstream& in, std::uint64_t* v, std::size_t n) {
  std::vector<char> buf(n * 8);
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (in.gcount() != static_cast<std::streamsize>(buf.size())) return false;
  std::memcpy(v, buf.data(), buf.size());
  return true;
}

}  // namespace

std::size_t spill_buckets(double horizon) {
  // The upper bound keeps the bucket count in range of the cast below.
  FLINT_CHECK_MSG(horizon > 0.0 && horizon / kSpillBucketSeconds < 4294967296.0,
                  "spill horizon out of range: " << horizon);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(horizon / kSpillBucketSeconds)));
}

std::size_t spill_bucket(TraceTime start, std::size_t buckets) {
  FLINT_CHECK_MSG(start >= 0.0, "session start " << start << " before the trace epoch");
  const double b = start / kSpillBucketSeconds;
  return b < static_cast<double>(buckets) ? static_cast<std::size_t>(b) : buckets - 1;
}

void write_session_chunk(const std::string& path, const std::vector<Session>& sessions,
                         std::vector<std::uint64_t>& bucket_totals) {
  const std::size_t buckets = bucket_totals.size();
  FLINT_CHECK(buckets > 0);
  FLINT_CHECK_MSG(sessions.size() <= UINT32_MAX, "session chunk too large: " << sessions.size());

  // Counting pass: offsets[b + 1] counts bucket b, then a prefix sum turns
  // the counts into each bucket's first record.
  std::vector<std::uint64_t> offsets(buckets + 1, 0);
  for (const auto& s : sessions) ++offsets[spill_bucket(s.start, buckets) + 1];
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_totals[b] += offsets[b + 1];
    offsets[b + 1] += offsets[b];
  }
  // order[k] is the index of the session written k-th.
  std::vector<std::uint32_t> order(sessions.size());
  std::vector<std::uint64_t> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < sessions.size(); ++i)
    order[fill[spill_bucket(sessions[i].start, buckets)]++] = static_cast<std::uint32_t>(i);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FLINT_CHECK_MSG(out.good(), "cannot write session chunk " << path);
  const std::uint64_t header[3] = {kChunkMagic, sessions.size(), buckets};
  write_u64s(out, header, 3);
  write_u64s(out, offsets.data(), offsets.size());
  std::vector<char> piece(std::min(order.size(), kPieceRecords) * kRecordBytes);
  for (std::size_t k = 0; k < order.size(); k += kPieceRecords) {
    const std::size_t n = std::min(kPieceRecords, order.size() - k);
    for (std::size_t j = 0; j < n; ++j)
      pack_session(sessions[order[k + j]], piece.data() + j * kRecordBytes);
    out.write(piece.data(), static_cast<std::streamsize>(n * kRecordBytes));
  }
  out.flush();
  FLINT_CHECK_MSG(out.good(), "failed writing session chunk " << path);
}

SessionChunkReader::SessionChunkReader(const std::string& path) : path_(path) {
  // Unbuffered: every read is a whole offset or record range, and a merge
  // keeps one reader per chunk open, so a stream buffer each would only add
  // resident memory per chunk.
  in_.rdbuf()->pubsetbuf(nullptr, 0);
  in_.open(path, std::ios::binary);
  FLINT_CHECK_MSG(in_.is_open(), "cannot read session chunk " << path_);
  in_.seekg(0, std::ios::end);
  const std::streamoff end = in_.tellg();
  FLINT_CHECK_MSG(in_.good() && end >= 0, "cannot size session chunk " << path_);
  const auto size = static_cast<std::uint64_t>(end);
  in_.seekg(0);

  std::uint64_t header[3] = {};
  FLINT_CHECK_MSG(size >= kHeaderBytes && read_u64s(in_, header, 3) && header[0] == kChunkMagic,
                  "bad session chunk header in " << path_);
  const std::uint64_t count = header[1];
  const std::uint64_t buckets = header[2];
  // Every bound is checked by division first, so no product can wrap.
  FLINT_CHECK_MSG(buckets >= 1 && buckets < (size - kHeaderBytes) / 8,
                  "session chunk offset table runs past the end of " << path_);
  records_begin_ = kHeaderBytes + (buckets + 1) * 8;
  const std::uint64_t record_bytes = size - records_begin_;
  FLINT_CHECK_MSG(count <= record_bytes / kRecordBytes && count * kRecordBytes == record_bytes,
                  "session chunk " << path_ << " holds " << record_bytes << " record bytes, not "
                                   << count << " records");

  std::vector<std::uint64_t> offsets(buckets + 1);
  FLINT_CHECK_MSG(read_u64s(in_, offsets.data(), offsets.size()),
                  "truncated session chunk offset table in " << path_);
  FLINT_CHECK_MSG(offsets[0] == 0, "session chunk offsets do not start at 0 in " << path_);
  for (std::size_t b = 0; b < buckets; ++b)
    FLINT_CHECK_MSG(offsets[b] <= offsets[b + 1],
                    "non-monotone session chunk offsets at bucket " << b << " in " << path_);
  FLINT_CHECK_MSG(offsets[buckets] == count, "session chunk header count " << count
                                                 << " != offset-table total "
                                                 << offsets[buckets] << " in " << path_);
  count_ = static_cast<std::size_t>(count);
  buckets_ = static_cast<std::size_t>(buckets);
}

void SessionChunkReader::read_until(std::size_t bucket_end, std::vector<Session>& out,
                                    std::vector<std::size_t>& slots) {
  FLINT_CHECK_MSG(bucket_end >= next_bucket_ && bucket_end <= buckets_,
                  "bucket " << bucket_end << " out of range [" << next_bucket_ << ", " << buckets_
                            << "] in " << path_);
  const std::size_t n = bucket_end - next_bucket_;
  FLINT_CHECK_MSG(slots.size() >= n, "need " << n << " bucket slots, got " << slots.size());
  if (n == 0) return;
  // The offset table was validated when the chunk was opened; re-check the
  // entries read now so a file changed since cannot move a range out of
  // bounds.
  std::vector<std::uint64_t> offsets(n + 1);
  in_.seekg(static_cast<std::streamoff>(kHeaderBytes + next_bucket_ * 8));
  FLINT_CHECK_MSG(read_u64s(in_, offsets.data(), offsets.size()),
                  "truncated session chunk offset table in " << path_);
  FLINT_CHECK_MSG(offsets[0] == next_record_ && offsets[n] <= count_,
                  "bad bucket offsets in " << path_);
  for (std::size_t k = 0; k < n; ++k)
    FLINT_CHECK_MSG(offsets[k] <= offsets[k + 1], "non-monotone bucket offsets in " << path_);

  in_.seekg(static_cast<std::streamoff>(records_begin_ + next_record_ * kRecordBytes));
  std::vector<char> piece(std::min<std::uint64_t>(offsets[n] - next_record_, kPieceRecords) *
                          kRecordBytes);
  std::size_t k = 0;  // bucket of the next record, relative to the first
  while (next_record_ < offsets[n]) {
    const auto m = static_cast<std::size_t>(std::min<std::uint64_t>(offsets[n] - next_record_, kPieceRecords));
    in_.read(piece.data(), static_cast<std::streamsize>(m * kRecordBytes));
    FLINT_CHECK_MSG(in_.gcount() == static_cast<std::streamsize>(m * kRecordBytes),
                    "truncated session chunk " << path_);
    for (std::size_t j = 0; j < m; ++j, ++next_record_) {
      while (next_record_ >= offsets[k + 1]) ++k;  // stops below n: next_record_ < offsets[n]
      std::size_t& slot = slots[k];
      FLINT_CHECK_MSG(slot < out.size(), "session chunk " << path_ << " overfills its batch");
      out[slot++] = unpack_session(piece.data() + j * kRecordBytes);
    }
  }
  next_bucket_ = bucket_end;
}

}  // namespace flint::device
