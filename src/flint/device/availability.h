// Device availability: participation criteria applied to session logs, and
// the resulting availability traces the simulator's client selection uses
// (paper §3.2 "User Device Availability" and Table 1).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "flint/device/device_catalog.h"
#include "flint/device/session_generator.h"
#include "flint/util/histogram.h"

namespace flint::device {

/// Participation criteria, matching the paper's three categories:
/// device state (WiFi, battery, foreground), compute capability (allowed
/// devices / OS version), and user attributes (min account reputation here
/// stands in for the reputation/age attributes the paper mentions).
struct AvailabilityCriteria {
  bool require_wifi = false;
  double min_battery_pct = 0.0;
  bool require_foreground = false;
  /// Minimum OS release as year*100+month; 0 disables the check.
  int min_os_release = 0;
  /// If non-empty, only these catalog device indices are compute-eligible.
  std::vector<std::size_t> allowed_devices;
  /// Minimum session length worth scheduling work in (seconds).
  double min_session_s = 0.0;

  bool accepts(const Session& session, const DeviceCatalog& catalog) const;
};

/// One availability window: the device can run FL work in [start, end).
struct AvailabilityWindow {
  std::uint64_t client_id = 0;
  std::size_t device_index = 0;
  TraceTime start = 0.0;
  TraceTime end = 0.0;

  TraceTime duration() const { return end - start; }
};

/// Canonical window ordering, mirroring session_order: (start, client_id,
/// end). The deterministic tie-break keeps materialized traces and streamed
/// windows in the same total order across standard libraries.
bool window_order(const AvailabilityWindow& a, const AvailabilityWindow& b);

/// Availability trace: criteria-passing windows sorted by start time, plus
/// per-client window indices for per-client queries.
class AvailabilityTrace {
 public:
  AvailabilityTrace() = default;
  explicit AvailabilityTrace(std::vector<AvailabilityWindow> windows);

  const std::vector<AvailabilityWindow>& windows() const { return windows_; }
  std::size_t window_count() const { return windows_.size(); }

  /// Distinct clients with at least one window.
  std::size_t client_count() const;

  /// Device of `client`'s first window; nullopt when it has none.
  std::optional<std::size_t> device_of(std::uint64_t client) const;

  /// Total length of `client`'s windows, summed in window order.
  TraceTime window_seconds(std::uint64_t client) const;

  /// End of the observation period (max window end; 0 when empty).
  TraceTime horizon() const;

  /// Hourly count of available devices across the trace (Figure 2's series).
  util::Histogram hourly_availability() const;

  /// Peak-to-trough ratio of the hourly availability curve, ignoring empty
  /// leading/trailing bins. The paper reports ~14x for its strict criteria.
  double peak_to_trough_ratio() const;

 private:
  std::vector<AvailabilityWindow> windows_;
  // CSR layout of client -> indices into windows_ (each run sorted by
  // start): client c's window indices are by_client_indices_[i] for i in
  // [by_client_offsets_[c], by_client_offsets_[c+1]). One flat allocation
  // instead of a vector-of-vectors keeps per-client overhead to 8 bytes at
  // million-client populations.
  std::vector<std::size_t> by_client_offsets_;
  std::vector<std::size_t> by_client_indices_;
};

class SessionStream;  // session_stream.h

/// A lazily-produced, exhaust-once sequence of availability windows,
/// non-decreasing in window_order. The streaming counterpart of
/// AvailabilityTrace::windows(): schedulers that consume one of these never
/// materialize the population's windows.
class WindowStream {
 public:
  virtual ~WindowStream() = default;

  /// The next window, or nullopt when the trace is exhausted.
  virtual std::optional<AvailabilityWindow> next() = 0;

  /// Device of `client` as a pure function of the stream's inputs, whether
  /// or not its windows were pulled yet; nullopt when the stream cannot tell.
  virtual std::optional<std::size_t> device_of(std::uint64_t) const { return std::nullopt; }
};

/// Streams an already-built AvailabilityTrace: how a run given a
/// materialized trace reaches the scheduler.
class TraceWindowStream : public WindowStream {
 public:
  explicit TraceWindowStream(const AvailabilityTrace& trace) : trace_(&trace) {}

  std::optional<AvailabilityWindow> next() override;
  std::optional<std::size_t> device_of(std::uint64_t client) const override {
    return trace_->device_of(client);
  }

 private:
  const AvailabilityTrace* trace_;
  std::size_t cursor_ = 0;
};

/// Applies participation criteria to a SessionStream on the fly — the
/// streaming build_availability. Checks every emitted window is finite,
/// non-empty, and non-decreasing in start (the stream contract schedulers
/// rely on).
class SessionWindowStream : public WindowStream {
 public:
  SessionWindowStream(SessionStream& sessions, const AvailabilityCriteria& criteria,
                      const DeviceCatalog& catalog)
      : sessions_(&sessions), criteria_(&criteria), catalog_(&catalog) {}

  std::optional<AvailabilityWindow> next() override;
  std::optional<std::size_t> device_of(std::uint64_t client) const override;

 private:
  SessionStream* sessions_;
  const AvailabilityCriteria* criteria_;
  const DeviceCatalog* catalog_;
  TraceTime last_start_ = 0.0;
};

/// Apply criteria to a session log, producing the availability trace.
AvailabilityTrace build_availability(const SessionLog& log, const AvailabilityCriteria& criteria,
                                     const DeviceCatalog& catalog);

/// Duration-weighted fraction of session time that passes the criteria
/// (the Table 1 "devices available" percentages).
double criteria_pass_fraction(const SessionLog& log, const AvailabilityCriteria& criteria,
                              const DeviceCatalog& catalog);

}  // namespace flint::device
