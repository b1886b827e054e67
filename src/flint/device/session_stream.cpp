#include "flint/device/session_stream.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <vector>

#include "flint/device/session_io.h"
#include "flint/util/check.h"

namespace flint::device {

MaterializedSessionStream::MaterializedSessionStream(SessionLog log, double horizon)
    : log_(std::move(log)), horizon_(horizon) {
  FLINT_CHECK(std::is_sorted(log_.sessions.begin(), log_.sessions.end(), session_order));
}

std::optional<Session> MaterializedSessionStream::next() {
  if (cursor_ == log_.sessions.size()) return std::nullopt;
  return log_.sessions[cursor_++];
}

SpilledSessionMerge::SpilledSessionMerge(const std::vector<std::string>& chunk_paths,
                                         std::vector<std::uint64_t> bucket_totals,
                                         std::size_t budget)
    : bucket_totals_(std::move(bucket_totals)), budget_(budget) {
  readers_.reserve(chunk_paths.size());
  for (const auto& path : chunk_paths) {
    readers_.emplace_back(path);
    FLINT_CHECK_MSG(readers_.back().buckets() == bucket_totals_.size(),
                    "session chunk " << path << " has " << readers_.back().buckets()
                                     << " buckets, expected " << bucket_totals_.size());
  }
}

std::optional<Session> SpilledSessionMerge::next() {
  if (cursor_ == batch_.size() && !load_batch()) return std::nullopt;
  return batch_[cursor_++];
}

bool SpilledSessionMerge::load_batch() {
  while (next_bucket_ < bucket_totals_.size()) {
    const std::size_t first = next_bucket_;
    std::size_t end = first;
    std::uint64_t total = bucket_totals_[end++];
    while (end < bucket_totals_.size() && total + bucket_totals_[end] <= budget_)
      total += bucket_totals_[end++];
    next_bucket_ = end;

    // Lay the batch out by bucket: bucket first + k fills [start_k, start_k+1).
    // reserve() before resize() keeps the capacity at the largest batch
    // (resize alone may double it).
    batch_.clear();
    batch_.reserve(total);
    batch_.resize(total);
    slots_.resize(end - first);
    std::size_t start = 0;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      slots_[k] = start;
      start += bucket_totals_[first + k];
    }
    for (auto& reader : readers_) reader.read_until(end, batch_, slots_);
    // Each bucket's slot must now sit exactly at its region's end: a chunk
    // that disagrees with the totals (more or fewer sessions in a bucket)
    // cannot go unnoticed. Buckets are a non-decreasing function of start,
    // so sorting each region alone gives the global session_order.
    start = 0;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      const std::size_t region_end = start + bucket_totals_[first + k];
      FLINT_CHECK_MSG(slots_[k] == region_end, "spill chunks hold " << slots_[k] - start
                                                   << " sessions in bucket " << first + k
                                                   << ", expected " << region_end - start);
      std::sort(batch_.begin() + static_cast<std::ptrdiff_t>(start),
                batch_.begin() + static_cast<std::ptrdiff_t>(region_end), session_order);
      start = region_end;
    }
    if (batch_.empty()) continue;
    cursor_ = 0;
    ++batches_;
    peak_batch_ = std::max(peak_batch_, batch_.size());
    return true;
  }
  return false;
}

namespace {

/// A spill directory (`flint-sessions-<pid>-<n>`) that is removed, with
/// everything in it, when this object is destroyed.
class SpillDirectory {
 public:
  explicit SpillDirectory(const std::string& base_dir) {
    namespace fs = std::filesystem;
    static std::atomic<std::uint64_t> dir_counter{0};
    fs::path base = base_dir.empty() ? fs::temp_directory_path() : fs::path(base_dir);
    path_ = base / ("flint-sessions-" + std::to_string(::getpid()) + "-" +
                    std::to_string(dir_counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~SpillDirectory() {
    std::error_code ec;  // best-effort cleanup; never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  SpillDirectory(const SpillDirectory&) = delete;
  SpillDirectory& operator=(const SpillDirectory&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Large-population path: generate clients in chunks and spill each chunk,
/// grouped by fine time bucket, to a binary file; then merge the chunks back
/// batch by batch. Peak RSS is one chunk's sessions during generation and
/// one batch during the merge — independent of total clients.
class ChunkedSpillSessionStream : public SessionStream {
 public:
  ChunkedSpillSessionStream(const SessionStreamConfig& config, const DeviceCatalog& catalog,
                            std::uint64_t trace_seed)
      : sampler_(config.generator, catalog, trace_seed),
        spill_dir_(config.spill_dir),
        merge_(spill(config)) {}

  std::optional<Session> next() override { return merge_.next(); }
  std::size_t clients() const override { return sampler_.config().clients; }
  double horizon() const override { return sampler_.horizon(); }
  std::optional<std::size_t> device_of(std::uint64_t client) const override {
    if (client >= clients()) return std::nullopt;
    return sampler_.device_of(client);
  }

 private:
  SpilledSessionMerge spill(const SessionStreamConfig& config) {
    const std::size_t clients = config.generator.clients;
    std::vector<std::uint64_t> bucket_totals(spill_buckets(sampler_.horizon()), 0);
    std::vector<std::string> paths;
    const std::size_t per_chunk = std::max<std::size_t>(1, config.clients_per_chunk);
    // Reserve the read budget up front: the merge batches that follow are at
    // most that large, so once this buffer is freed the allocator can serve
    // them from the same region. Growing it by doubling instead left freed
    // blocks that raised bench_scale's 125k -> 1M peak-RSS growth from
    // 1.03x to 1.12x.
    std::vector<Session> chunk;
    chunk.reserve(config.read_buffer_sessions);
    for (std::size_t begin = 0; begin < clients; begin += per_chunk) {
      const std::size_t end = std::min(clients, begin + per_chunk);
      chunk.clear();
      for (std::size_t c = begin; c < end; ++c) sampler_.append_client(c, chunk);
      paths.push_back((spill_dir_.path() / ("chunk-" + std::to_string(paths.size()) + ".bin")).string());
      write_session_chunk(paths.back(), chunk, bucket_totals);
    }
    return SpilledSessionMerge(paths, std::move(bucket_totals), config.read_buffer_sessions);
  }

  SessionTraceSampler sampler_;
  SpillDirectory spill_dir_;    // declared before merge_: created first, removed last
  SpilledSessionMerge merge_;
};

}  // namespace

std::unique_ptr<SessionStream> make_session_stream(const SessionStreamConfig& config,
                                                   const DeviceCatalog& catalog, util::Rng& rng) {
  // Both paths take exactly one draw from `rng` to seed the trace (inside
  // generate_sessions on the in-memory path), and all per-client randomness
  // comes from derived substreams, so equal rng states give equal traces.
  if (config.generator.clients <= config.clients_per_chunk)
    return std::make_unique<MaterializedSessionStream>(
        generate_sessions(config.generator, catalog, rng),
        static_cast<double>(config.generator.days) * kSecondsPerDay);
  const std::uint64_t trace_seed = rng.next_u64();
  return std::make_unique<ChunkedSpillSessionStream>(config, catalog, trace_seed);
}

}  // namespace flint::device
