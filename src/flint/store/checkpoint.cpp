#include "flint/store/checkpoint.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "flint/obs/telemetry.h"
#include "flint/util/bytes.h"
#include "flint/util/check.h"
#include "flint/util/crc32.h"
#include "flint/util/logging.h"
#include "flint/util/rng.h"

namespace flint::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'F', 'C', 'K', 'P'};
// v3: the server RNG state is four xoshiro256** words; v2 held the previous
// engine's ~5 KB text state. Older files are refused, not migrated: their
// RNG state cannot be carried over to the new engine.
constexpr std::uint32_t kFormatVersion = 3;
// magic + u32 version + u64 payload size + u32 payload CRC.
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;
constexpr std::size_t kRngStateWords = std::tuple_size_v<util::Rng::State>;
static_assert(std::endian::native == std::endian::little,
              "checkpoint fields are written in host byte order and read as little endian");

std::int64_t seq_of(const fs::path& path) {
  // "ckpt_<seq>" -> seq, or -1 if the name doesn't match. 64-bit: a
  // long-running job's sequence numbers overflow int.
  std::string stem = path.stem().string();
  if (stem.rfind("ckpt_", 0) != 0) return -1;
  try {
    std::size_t consumed = 0;
    std::int64_t seq = std::stoll(stem.substr(5), &consumed);
    if (consumed != stem.size() - 5) return -1;
    return seq;
  } catch (const std::exception&) {
    return -1;
  }
}

// --- payload field helpers --------------------------------------------------
// Fields are stored in host byte order, which the format pins to little
// endian. Every variable-length field is a u64 count followed by elements, and every
// count is validated with the division form `n <= remaining / elem_size` —
// the multiplied form overflows size_t for a corrupt huge n and bypasses the
// bound entirely.

template <typename T>
void append_numeric_vector(std::vector<char>& out, const std::vector<T>& v) {
  util::append_pod(out, static_cast<std::uint64_t>(v.size()));
  util::append_pod_array(out, v.data(), v.size());
}

/// Read a u64 element count for elements of `elem_size` bytes, guarded so a
/// corrupt count can neither wrap the bounds check nor drive a giant resize.
std::uint64_t read_count(const std::vector<char>& in, std::size_t& offset,
                         std::size_t elem_size) {
  auto n = util::read_pod<std::uint64_t>(in, offset);
  FLINT_CHECK_LE(offset, in.size());
  FLINT_CHECK_MSG(n <= (in.size() - offset) / elem_size,
                  "corrupt checkpoint: element count " << n << " exceeds remaining "
                                                       << (in.size() - offset) << " bytes");
  return n;
}

template <typename T>
std::vector<T> read_numeric_vector(const std::vector<char>& in, std::size_t& offset) {
  std::vector<T> v(read_count(in, offset, sizeof(T)));
  util::read_pod_array(in, offset, v.data(), v.size());
  return v;
}

void append_metrics(std::vector<char>& out, const CheckpointMetrics& m) {
  util::append_pod(out, m.tasks_started);
  util::append_pod(out, m.tasks_succeeded);
  util::append_pod(out, m.tasks_interrupted);
  util::append_pod(out, m.tasks_stale);
  util::append_pod(out, m.tasks_failed);
  util::append_pod(out, m.updates_aggregated);
  util::append_pod(out, m.client_compute_s);
  util::append_pod(out, static_cast<std::uint64_t>(m.rounds.size()));
  for (const auto& r : m.rounds) {
    util::append_pod(out, r.round);
    util::append_pod(out, r.start);
    util::append_pod(out, r.end);
    util::append_pod(out, r.updates_aggregated);
    util::append_pod(out, r.mean_staleness);
  }
  util::append_pod(out, static_cast<std::uint64_t>(m.checkpoints.size()));
  for (const auto& c : m.checkpoints) {
    util::append_pod(out, c.round);
    util::append_pod(out, c.time);
  }
}

CheckpointMetrics read_metrics(const std::vector<char>& in, std::size_t& offset) {
  CheckpointMetrics m;
  m.tasks_started = util::read_pod<std::uint64_t>(in, offset);
  m.tasks_succeeded = util::read_pod<std::uint64_t>(in, offset);
  m.tasks_interrupted = util::read_pod<std::uint64_t>(in, offset);
  m.tasks_stale = util::read_pod<std::uint64_t>(in, offset);
  m.tasks_failed = util::read_pod<std::uint64_t>(in, offset);
  m.updates_aggregated = util::read_pod<std::uint64_t>(in, offset);
  m.client_compute_s = util::read_pod<double>(in, offset);
  m.rounds.resize(read_count(in, offset, 5 * sizeof(std::uint64_t)));
  for (auto& r : m.rounds) {
    r.round = util::read_pod<std::uint64_t>(in, offset);
    r.start = util::read_pod<double>(in, offset);
    r.end = util::read_pod<double>(in, offset);
    r.updates_aggregated = util::read_pod<std::uint64_t>(in, offset);
    r.mean_staleness = util::read_pod<double>(in, offset);
  }
  m.checkpoints.resize(read_count(in, offset, 2 * sizeof(std::uint64_t)));
  for (auto& c : m.checkpoints) {
    c.round = util::read_pod<std::uint64_t>(in, offset);
    c.time = util::read_pod<double>(in, offset);
  }
  return m;
}

void append_fedbuff(std::vector<char>& out, const CheckpointFedBuff& fb) {
  append_numeric_vector(out, fb.accumulator_sum);
  util::append_pod(out, fb.accumulator_weight_sum);
  util::append_pod(out, fb.accumulator_count);
  util::append_pod(out, fb.staleness_sum);
  util::append_pod(out, fb.round_start);
  util::append_pod(out, fb.last_aggregation_time);
  util::append_pod(out, static_cast<std::uint8_t>(fb.pump_scheduled ? 1 : 0));
  util::append_pod(out, fb.pump_time);
  util::append_pod(out, fb.pump_stamp);
  util::append_pod(out, fb.next_stamp);
  util::append_pod(out, static_cast<std::uint64_t>(fb.in_flight.size()));
  for (const auto& t : fb.in_flight) {
    util::append_pod(out, t.task_id);
    util::append_pod(out, t.client_id);
    util::append_pod(out, t.device_index);
    util::append_pod(out, t.model_version);
    util::append_pod(out, t.dispatch_time);
    util::append_pod(out, t.compute_s);
    util::append_pod(out, t.comm_s);
    util::append_pod(out, t.examples);
    util::append_pod(out, t.update_bytes);
    util::append_pod(out, t.spent_compute_s);
    util::append_pod(out, t.window_end);
    util::append_pod(out, t.finish_time);
    util::append_pod(out, static_cast<std::uint8_t>(t.interrupted ? 1 : 0));
    util::append_pod(out, t.stamp);
    util::append_pod(out, t.update_weight);
    append_numeric_vector(out, t.update_delta);
  }
}

CheckpointFedBuff read_fedbuff(const std::vector<char>& in, std::size_t& offset) {
  CheckpointFedBuff fb;
  fb.accumulator_sum = read_numeric_vector<double>(in, offset);
  fb.accumulator_weight_sum = util::read_pod<double>(in, offset);
  fb.accumulator_count = util::read_pod<std::uint64_t>(in, offset);
  fb.staleness_sum = util::read_pod<double>(in, offset);
  fb.round_start = util::read_pod<double>(in, offset);
  fb.last_aggregation_time = util::read_pod<double>(in, offset);
  fb.pump_scheduled = util::read_pod<std::uint8_t>(in, offset) != 0;
  fb.pump_time = util::read_pod<double>(in, offset);
  fb.pump_stamp = util::read_pod<std::uint64_t>(in, offset);
  fb.next_stamp = util::read_pod<std::uint64_t>(in, offset);
  // Each in-flight record is >= 14 fixed 8-byte fields; the exact floor only
  // needs to make a corrupt count harmless before the per-record reads.
  fb.in_flight.resize(read_count(in, offset, 14 * sizeof(std::uint64_t)));
  for (auto& t : fb.in_flight) {
    t.task_id = util::read_pod<std::uint64_t>(in, offset);
    t.client_id = util::read_pod<std::uint64_t>(in, offset);
    t.device_index = util::read_pod<std::uint64_t>(in, offset);
    t.model_version = util::read_pod<std::uint64_t>(in, offset);
    t.dispatch_time = util::read_pod<double>(in, offset);
    t.compute_s = util::read_pod<double>(in, offset);
    t.comm_s = util::read_pod<double>(in, offset);
    t.examples = util::read_pod<std::uint64_t>(in, offset);
    t.update_bytes = util::read_pod<std::uint64_t>(in, offset);
    t.spent_compute_s = util::read_pod<double>(in, offset);
    t.window_end = util::read_pod<double>(in, offset);
    t.finish_time = util::read_pod<double>(in, offset);
    t.interrupted = util::read_pod<std::uint8_t>(in, offset) != 0;
    t.stamp = util::read_pod<std::uint64_t>(in, offset);
    t.update_weight = util::read_pod<double>(in, offset);
    t.update_delta = read_numeric_vector<float>(in, offset);
  }
  return fb;
}

}  // namespace

std::vector<char> serialize_checkpoint(const SimCheckpoint& c) {
  std::vector<char> payload;
  util::append_pod(payload, c.run_seed);
  util::append_pod(payload, c.algo);
  util::append_pod(payload, c.resume_count);
  util::append_pod(payload, c.checkpoints_written);
  util::append_pod(payload, c.virtual_time_s);
  util::append_pod(payload, c.round);
  util::append_pod(payload, c.tasks_completed);
  append_numeric_vector(payload, c.model_parameters);
  append_numeric_vector(payload, c.server_velocity);
  append_numeric_vector(payload, c.server_rng_state);
  util::append_pod(payload, c.next_task_id);
  util::append_pod(payload, c.arrival_cursor);
  util::append_pod(payload, static_cast<std::uint64_t>(c.requeued.size()));
  for (const auto& r : c.requeued) {
    util::append_pod(payload, r.time);
    util::append_pod(payload, r.client_id);
    util::append_pod(payload, r.device_index);
    util::append_pod(payload, r.window_end);
  }
  util::append_pod(payload, static_cast<std::uint64_t>(c.last_participation.size()));
  for (const auto& [client, time] : c.last_participation) {
    util::append_pod(payload, client);
    util::append_pod(payload, time);
  }
  append_metrics(payload, c.metrics);
  util::append_pod(payload, static_cast<std::uint64_t>(c.eval_curve.size()));
  for (const auto& e : c.eval_curve) {
    util::append_pod(payload, e.time);
    util::append_pod(payload, e.round);
    util::append_pod(payload, e.metric);
    util::append_pod(payload, e.train_loss);
  }
  util::append_pod(payload, static_cast<std::uint64_t>(c.client_accounts.size()));
  for (const auto& a : c.client_accounts) {
    util::append_pod(payload, a.client_id);
    util::append_pod(payload, a.tasks_succeeded);
    util::append_pod(payload, a.tasks_interrupted);
    util::append_pod(payload, a.tasks_stale);
    util::append_pod(payload, a.tasks_failed);
    util::append_pod(payload, a.compute_s);
    util::append_pod(payload, a.wasted_compute_s);
    util::append_pod(payload, a.bytes_down);
    util::append_pod(payload, a.bytes_up);
  }
  util::append_pod(payload, static_cast<std::uint8_t>(c.has_fedbuff ? 1 : 0));
  if (c.has_fedbuff) append_fedbuff(payload, c.fedbuff);

  std::vector<char> out;
  out.reserve(kHeaderSize + payload.size());
  out.insert(out.end(), kMagic, kMagic + 4);
  util::append_pod(out, kFormatVersion);
  util::append_pod(out, static_cast<std::uint64_t>(payload.size()));
  util::append_pod(out, util::crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

SimCheckpoint deserialize_checkpoint(const std::vector<char>& bytes) {
  FLINT_CHECK_MSG(bytes.size() >= kHeaderSize, "checkpoint blob truncated: " << bytes.size()
                                                                             << " bytes");
  FLINT_CHECK_MSG(std::memcmp(bytes.data(), kMagic, 4) == 0, "bad checkpoint magic");
  std::size_t offset = 4;
  auto version = util::read_pod<std::uint32_t>(bytes, offset);
  FLINT_CHECK_MSG(version == kFormatVersion,
                  "unsupported checkpoint format version " << version);
  auto payload_size = util::read_pod<std::uint64_t>(bytes, offset);
  FLINT_CHECK_MSG(payload_size == bytes.size() - kHeaderSize,
                  "checkpoint payload truncated: header says " << payload_size << ", have "
                                                               << bytes.size() - kHeaderSize);
  auto expected_crc = util::read_pod<std::uint32_t>(bytes, offset);
  std::uint32_t actual_crc = util::crc32(bytes.data() + kHeaderSize, payload_size);
  FLINT_CHECK_MSG(actual_crc == expected_crc, "checkpoint CRC mismatch: stored "
                                                  << expected_crc << ", computed " << actual_crc);

  SimCheckpoint c;
  c.run_seed = util::read_pod<std::uint64_t>(bytes, offset);
  c.algo = util::read_pod<std::uint8_t>(bytes, offset);
  c.resume_count = util::read_pod<std::uint64_t>(bytes, offset);
  c.checkpoints_written = util::read_pod<std::uint64_t>(bytes, offset);
  c.virtual_time_s = util::read_pod<double>(bytes, offset);
  c.round = util::read_pod<std::uint64_t>(bytes, offset);
  c.tasks_completed = util::read_pod<std::uint64_t>(bytes, offset);
  c.model_parameters = read_numeric_vector<float>(bytes, offset);
  c.server_velocity = read_numeric_vector<float>(bytes, offset);
  c.server_rng_state = read_numeric_vector<std::uint64_t>(bytes, offset);
  FLINT_CHECK_MSG(c.server_rng_state.empty() || c.server_rng_state.size() == kRngStateWords,
                  "corrupt checkpoint: rng state has " << c.server_rng_state.size()
                                                       << " words, expected " << kRngStateWords);
  c.next_task_id = util::read_pod<std::uint64_t>(bytes, offset);
  c.arrival_cursor = util::read_pod<std::uint64_t>(bytes, offset);
  c.requeued.resize(read_count(bytes, offset, 4 * sizeof(std::uint64_t)));
  for (auto& r : c.requeued) {
    r.time = util::read_pod<double>(bytes, offset);
    r.client_id = util::read_pod<std::uint64_t>(bytes, offset);
    r.device_index = util::read_pod<std::uint64_t>(bytes, offset);
    r.window_end = util::read_pod<double>(bytes, offset);
  }
  c.last_participation.resize(read_count(bytes, offset, 2 * sizeof(std::uint64_t)));
  for (auto& [client, time] : c.last_participation) {
    client = util::read_pod<std::uint64_t>(bytes, offset);
    time = util::read_pod<double>(bytes, offset);
  }
  c.metrics = read_metrics(bytes, offset);
  c.eval_curve.resize(read_count(bytes, offset, 4 * sizeof(std::uint64_t)));
  for (auto& e : c.eval_curve) {
    e.time = util::read_pod<double>(bytes, offset);
    e.round = util::read_pod<std::uint64_t>(bytes, offset);
    e.metric = util::read_pod<double>(bytes, offset);
    e.train_loss = util::read_pod<double>(bytes, offset);
  }
  c.client_accounts.resize(read_count(bytes, offset, 9 * sizeof(std::uint64_t)));
  for (auto& a : c.client_accounts) {
    a.client_id = util::read_pod<std::uint64_t>(bytes, offset);
    a.tasks_succeeded = util::read_pod<std::uint64_t>(bytes, offset);
    a.tasks_interrupted = util::read_pod<std::uint64_t>(bytes, offset);
    a.tasks_stale = util::read_pod<std::uint64_t>(bytes, offset);
    a.tasks_failed = util::read_pod<std::uint64_t>(bytes, offset);
    a.compute_s = util::read_pod<double>(bytes, offset);
    a.wasted_compute_s = util::read_pod<double>(bytes, offset);
    a.bytes_down = util::read_pod<std::uint64_t>(bytes, offset);
    a.bytes_up = util::read_pod<std::uint64_t>(bytes, offset);
  }
  c.has_fedbuff = util::read_pod<std::uint8_t>(bytes, offset) != 0;
  if (c.has_fedbuff) c.fedbuff = read_fedbuff(bytes, offset);
  FLINT_CHECK_MSG(offset == bytes.size(),
                  "checkpoint has " << bytes.size() - offset << " trailing bytes");
  FLINT_CHECK_FINITE(c.virtual_time_s);
  FLINT_CHECK_GE(c.virtual_time_s, 0.0);
  return c;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const fs::path& path = entry.path();
    if (path.extension() == ".tmp" && seq_of(path) >= 0) {
      // Leftover from a writer that died between open and rename; it was
      // never published, so it is garbage — and counting its stem toward
      // next_seq_ would inflate numbering forever.
      FLINT_LOG_WARN << "removing stale checkpoint temp file " << path.string();
      std::error_code ec;
      fs::remove(path, ec);
      continue;
    }
    if (path.extension() != ".bin") continue;
    std::int64_t seq = seq_of(path);
    if (seq >= next_seq_) next_seq_ = seq + 1;
  }
}

std::int64_t CheckpointStore::write(const SimCheckpoint& checkpoint) {
  // Cold, potentially multi-threaded path: use the per-call free functions
  // rather than cached handles (which are single-threaded by design).
  // flint-analyze: allow(nondet-source): wall-clock write latency feeds an
  // observability histogram only, never the simulated state.
  auto wall_start = std::chrono::steady_clock::now();
  std::int64_t seq;
  {
    util::MutexLock lock(seq_mutex_);
    seq = next_seq_++;
  }
  auto blob = serialize_checkpoint(checkpoint);
  fs::path final_path = fs::path(dir_) / ("ckpt_" + std::to_string(seq) + ".bin");
  fs::path tmp_path = fs::path(dir_) / ("ckpt_" + std::to_string(seq) + ".tmp");
  bool ok;
  {
    std::ofstream out(tmp_path, std::ios::binary);
    FLINT_CHECK_MSG(out.good(), "cannot write " << tmp_path.string());
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    ok = out.good();
    out.close();
    ok = ok && !out.fail();
  }
  if (!ok) {
    // Full disk or I/O error: never publish the truncated file.
    std::error_code ec;
    fs::remove(tmp_path, ec);
    FLINT_CHECK_MSG(false, "checkpoint write failed (disk full?): " << tmp_path.string());
  }
  fs::rename(tmp_path, final_path);  // atomic publish
  // flint-analyze: allow(nondet-source): same observability-only latency stamp.
  double wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  obs::record_histogram("store.checkpoint_write_us", wall_us, 0.0, 20'000.0, 40);
  obs::add_counter("store.checkpoint_bytes", blob.size());
  return seq;
}

std::optional<SimCheckpoint> CheckpointStore::latest() const {
  std::vector<std::pair<std::int64_t, fs::path>> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() != ".bin") continue;
    std::int64_t seq = seq_of(entry.path());
    if (seq >= 0) files.emplace_back(seq, entry.path());
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  // Newest first, falling back past anything unreadable or corrupt: a torn
  // newest file (crash mid-publish, disk fault) must cost at most one
  // checkpoint of progress, not abort the resume.
  for (const auto& [seq, path] : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      FLINT_LOG_WARN << "skipping unreadable checkpoint " << path.string();
      continue;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    try {
      return deserialize_checkpoint(bytes);
    } catch (const util::CheckError& e) {
      FLINT_LOG_WARN << "skipping corrupt checkpoint " << path.string() << ": " << e.what();
    }
  }
  return std::nullopt;
}

std::size_t CheckpointStore::checkpoint_count() const {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir_))
    if (entry.path().extension() == ".bin" && seq_of(entry.path()) >= 0) ++n;
  return n;
}

void CheckpointStore::prune(std::size_t keep) {
  std::vector<std::pair<std::int64_t, fs::path>> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() != ".bin") continue;
    std::int64_t seq = seq_of(entry.path());
    if (seq >= 0) files.emplace_back(seq, entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.size() <= keep) return;
  for (std::size_t i = 0; i + keep < files.size(); ++i) fs::remove(files[i].second);
}

}  // namespace flint::store
