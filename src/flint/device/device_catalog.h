// The 27-device benchmark catalog and popularity-weighted device sampling.
#pragma once

#include <cstddef>
#include <vector>

#include "flint/device/device_profile.h"
#include "flint/util/rng.h"

namespace flint::device {

/// Catalog of device models. The default catalog has the paper's 27 devices
/// (9 iOS + 18 Android) with speed multipliers normalized to unweighted
/// fleet mean 1.0 and a heterogeneity spread matching Table 5's reported
/// stdev/mean ratio (~0.7).
class DeviceCatalog {
 public:
  /// The default 27-device catalog.
  static DeviceCatalog standard();

  explicit DeviceCatalog(std::vector<DeviceProfile> profiles);

  std::size_t size() const { return profiles_.size(); }
  const DeviceProfile& profile(std::size_t i) const;
  const std::vector<DeviceProfile>& profiles() const { return profiles_; }

  /// Index of a popularity-weighted random device (a user's device draw).
  std::size_t sample_device(util::Rng& rng) const;

  /// Indices of devices on one OS.
  std::vector<std::size_t> devices_with_os(Os os) const;

  /// Fraction of the user base (popularity-weighted) whose OS release date
  /// is >= `min_os_release` (criterion C in Table 1).
  double os_pass_fraction(int min_os_release) const;

  /// Unweighted mean and stdev of speed multipliers (the heterogeneity the
  /// paper's Figure 4 shows).
  double mean_speed() const;
  double stddev_speed() const;

 private:
  std::vector<DeviceProfile> profiles_;
  util::CategoricalTable popularity_;  ///< sample_device's popularity weights
};

}  // namespace flint::device
