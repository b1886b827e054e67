#include "flint/device/session_generator.h"

#include <algorithm>
#include <cmath>

#include "flint/util/check.h"

namespace flint::device {

double diurnal_weight(double hour, double overnight_floor) {
  // Two Gaussian bumps: a lunchtime bump at 12:30 and the dominant evening
  // peak at 20:00, over a small overnight floor. Hours wrap modulo 24.
  auto bump = [&](double center, double width, double height) {
    double d = std::abs(hour - center);
    d = std::min(d, 24.0 - d);  // circular distance
    return height * std::exp(-d * d / (2.0 * width * width));
  };
  return overnight_floor + bump(12.5, 2.0, 0.45) + bump(20.0, 2.5, 1.0);
}

double SessionLog::total_duration() const {
  double total = 0.0;
  for (const auto& s : sessions) total += s.duration();
  return total;
}

bool session_order(const Session& a, const Session& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.client_id != b.client_id) return a.client_id < b.client_id;
  return a.end < b.end;
}

namespace {

/// Wrap a raw interval [raw_start, raw_start + duration) into the trace
/// horizon [0, H) and append it if at least one second survives. Starts wrap
/// circularly (matching diurnal_weight's modulo-24 local-time semantics, so
/// a tz = -8 client's 6pm session on "day 0" lands late on the last trace
/// day instead of before the epoch); ends truncate at the horizon rather
/// than wrapping, so no emitted session crosses the trace boundary.
void emit_wrapped(std::vector<Session>& out, Session base, double raw_start, double duration,
                  double horizon) {
  double start = std::fmod(raw_start, horizon);
  if (start < 0.0) start += horizon;
  // fmod of a tiny negative can round up to exactly `horizon`.
  if (start >= horizon) start = 0.0;
  double end = std::min(start + duration, horizon);
  if (end - start < 1.0) return;  // sub-second remnant: drop
  base.start = start;
  base.end = end;
  FLINT_CHECK_GE(base.start, 0.0);
  FLINT_CHECK_LT(base.start, horizon);
  FLINT_CHECK_LE(base.end, horizon);
  FLINT_CHECK_LT(base.start, base.end);
  out.push_back(base);
}

/// The diurnal shape at the 48 half-hour slot starts: the start-time
/// distribution SessionTraceSampler draws a slot from.
std::vector<double> diurnal_slot_weights(double overnight_floor) {
  constexpr std::size_t kSlots = 48;
  std::vector<double> weights(kSlots);
  for (std::size_t s = 0; s < kSlots; ++s)
    weights[s] = diurnal_weight(static_cast<double>(s) * 0.5, overnight_floor);
  return weights;
}

}  // namespace

SessionTraceSampler::SessionTraceSampler(const SessionGeneratorConfig& config,
                                         const DeviceCatalog& catalog, std::uint64_t trace_seed)
    : config_(config),
      catalog_(&catalog),
      trace_seed_(trace_seed),
      slots_(diurnal_slot_weights(config.overnight_floor)),
      timezones_(config.timezone_weights) {
  FLINT_CHECK(config_.clients > 0);
  FLINT_CHECK(config_.days > 0);
  FLINT_CHECK(config_.timezone_offsets_h.size() == config_.timezone_weights.size());

  duration_params_ =
      util::lognormal_from_moments(config_.mean_session_s, config_.mean_session_s * config_.session_cv);
}

double SessionTraceSampler::horizon() const {
  return static_cast<double>(config_.days) * kSecondsPerDay;
}

std::size_t SessionTraceSampler::device_of(std::uint64_t client_id) const {
  util::Rng rng = util::derive_stream(trace_seed_, kSessionTraceStreamId, client_id);
  return catalog_->sample_device(rng);
}

std::size_t SessionTraceSampler::append_client(std::uint64_t client_id,
                                               std::vector<Session>& out) const {
  util::Rng rng = util::derive_stream(trace_seed_, kSessionTraceStreamId, client_id);
  const double h = horizon();

  // The device is the substream's first draw; device_of() relies on it.
  const std::size_t device_index = catalog_->sample_device(rng);
  double tz = config_.timezone_offsets_h[timezones_.sample(rng)];
  for (int day = 0; day < config_.days; ++day) {
    int weekday = day % 7;
    bool weekend = weekday >= 5;
    double mean_sessions = config_.sessions_per_day * (weekend ? config_.weekend_factor : 1.0);
    auto n = static_cast<std::size_t>(rng.poisson(mean_sessions));
    for (std::size_t k = 0; k < n; ++k) {
      double local_hour =
          (static_cast<double>(slots_.sample(rng)) + rng.uniform(0.0, 1.0)) * 0.5;
      double start =
          static_cast<double>(day) * kSecondsPerDay + (local_hour + tz) * kSecondsPerHour;
      double duration = std::max(10.0, rng.lognormal(duration_params_.mu, duration_params_.sigma));

      Session base;
      base.client_id = client_id;
      base.device_index = device_index;
      base.wifi = rng.bernoulli(config_.wifi_probability);
      base.battery_pct = rng.bernoulli(config_.high_battery_probability)
                             ? rng.uniform(80.0, 100.0)
                             : rng.uniform(10.0, 79.9);
      base.foreground = true;

      if (duration > 120.0 && rng.bernoulli(config_.split_probability)) {
        // A long background gap splits the session into two (§4.1).
        double cut = rng.uniform(0.3, 0.7) * duration;
        double gap = rng.uniform(60.0, 600.0);
        emit_wrapped(out, base, start, cut, h);
        emit_wrapped(out, base, start + cut + gap, duration - cut, h);
      } else {
        emit_wrapped(out, base, start, duration, h);
      }
    }
  }
  return device_index;
}

SessionLog generate_sessions(const SessionGeneratorConfig& config, const DeviceCatalog& catalog,
                             util::Rng& rng) {
  // One draw from the caller's rng seeds the whole trace; every client then
  // generates from its own derived substream (see kSessionTraceStreamId).
  SessionTraceSampler sampler(config, catalog, rng.next_u64());

  SessionLog log;
  log.client_device.resize(config.clients);
  for (std::size_t c = 0; c < config.clients; ++c)
    log.client_device[c] = sampler.append_client(c, log.sessions);
  std::sort(log.sessions.begin(), log.sessions.end(), session_order);
  return log;
}

}  // namespace flint::device
