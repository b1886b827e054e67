// Streaming session traces (DESIGN.md §17). A SessionStream yields the same
// sessions as generate_sessions() — in exactly the same session_order — but
// lazily, so population size stops being a resident-memory quantity: the
// leader, scheduler, and availability layers consume an iterator instead of
// a materialized vector. Small populations stream from an in-memory sorted
// buffer; large ones are generated in client chunks, spilled to binary chunk
// files grouped by fine time bucket (session_io.h), and read back one batch
// of consecutive buckets at a time, sorting only the batches a run reads, so
// peak RSS is O(chunk) + O(read budget), independent of total clients.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flint/device/session_generator.h"
#include "flint/device/session_io.h"

namespace flint::device {

/// A lazily-produced, exhaust-once sequence of sessions, non-decreasing in
/// session_order(). Streams over the same seed/config are bit-identical to
/// generate_sessions()' sorted vector — that equivalence is CI-gated.
class SessionStream {
 public:
  virtual ~SessionStream() = default;

  /// The next session, or nullopt when the trace is exhausted.
  virtual std::optional<Session> next() = 0;

  /// Total clients in the population this stream draws from.
  virtual std::size_t clients() const = 0;

  /// Trace horizon in seconds (days * 86400).
  virtual double horizon() const = 0;

  /// Device of `client`, whether or not its sessions were pulled yet;
  /// nullopt when the stream cannot tell.
  virtual std::optional<std::size_t> device_of(std::uint64_t) const { return std::nullopt; }
};

/// Adapter streaming an already-materialized, session_order-sorted log.
class MaterializedSessionStream : public SessionStream {
 public:
  MaterializedSessionStream(SessionLog log, double horizon);

  std::optional<Session> next() override;
  std::size_t clients() const override { return log_.client_device.size(); }
  double horizon() const override { return horizon_; }
  std::optional<std::size_t> device_of(std::uint64_t client) const override {
    if (client >= log_.client_device.size()) return std::nullopt;
    return log_.client_device[client];
  }

 private:
  SessionLog log_;
  double horizon_;
  std::size_t cursor_ = 0;
};

/// Streaming generator parameters.
struct SessionStreamConfig {
  SessionGeneratorConfig generator;
  /// Populations up to this size stream from memory; larger ones generate in
  /// chunks of this many clients and spill each chunk to disk, grouped by
  /// fine time bucket.
  std::size_t clients_per_chunk = 8192;
  /// Read-back budget in sessions: each merge batch spans whole fine
  /// buckets and holds at most max(this, the largest bucket) sessions, so
  /// merge memory is a fixed budget rather than a per-chunk quantity.
  std::size_t read_buffer_sessions = 65'536;
  /// Directory for spill files; empty means the system temp directory.
  /// Files are removed when the stream is destroyed.
  std::string spill_dir;
};

/// The read side of the chunked spill: merges chunk files written by
/// write_session_chunk back into session_order. Each batch is the longest
/// run of consecutive fine buckets whose sessions fit in `budget` (at least
/// one bucket); it is read from every chunk straight into per-bucket
/// regions, each region is sorted, and the batch is served from a cursor.
/// A batch is loaded only when the previous one is used up, so a consumer
/// that stops early never reads or sorts the rest.
class SpilledSessionMerge {
 public:
  /// `bucket_totals[b]` is bucket b's session count summed over all chunks
  /// (what write_session_chunk accumulated); every chunk must have
  /// bucket_totals.size() buckets.
  SpilledSessionMerge(const std::vector<std::string>& chunk_paths,
                      std::vector<std::uint64_t> bucket_totals, std::size_t budget);

  std::optional<Session> next();

  /// Batches loaded so far, and the most sessions any of them held.
  std::size_t batches() const { return batches_; }
  std::size_t peak_batch_sessions() const { return peak_batch_; }

 private:
  bool load_batch();

  std::vector<SessionChunkReader> readers_;
  std::vector<std::uint64_t> bucket_totals_;
  std::size_t budget_;
  std::size_t next_bucket_ = 0;
  std::vector<Session> batch_;
  std::vector<std::size_t> slots_;  ///< per bucket of the batch: next free slot
  std::size_t cursor_ = 0;
  std::size_t batches_ = 0;
  std::size_t peak_batch_ = 0;
};

/// Build a session stream for `config.generator.clients` clients. Consumes
/// exactly one draw from `rng` (the trace seed), matching generate_sessions,
/// so a stream and a materialized log built from equal rng states yield
/// bit-identical sessions in identical order.
std::unique_ptr<SessionStream> make_session_stream(const SessionStreamConfig& config,
                                                   const DeviceCatalog& catalog, util::Rng& rng);

}  // namespace flint::device
