// Wild ISP traffic simulation (paper Sec. 6.2).
//
// Generates what the ISP's border routers *export* for the whole subscriber
// population: already-sampled flow observations. Per (line, device, domain,
// hour) the unsampled packet count is Poisson(rate); under 1-in-N packet
// sampling the exported count is Poisson(rate/N) — the thinning identity —
// so the simulator draws the sampled count directly and never materializes
// the millions of invisible flows. A fast Bernoulli path handles the common
// tiny-rate case.
//
// Each observation carries ground-truth labels (line, unit, domain) used by
// the evaluation harness only — the detector itself consumes just the
// subscriber address and the flow record.
//
// Every draw is a pure function of (seed, line, device, hour), so the
// population's ownership blocks are generated independently: an hour with
// more than one block is generated on worker threads, one block at a time,
// and delivered in block order on the calling thread (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "flow/record.hpp"
#include "simnet/backend.hpp"
#include "simnet/population.hpp"
#include "simnet/rates.hpp"
#include "util/sim_clock.hpp"

namespace haystack::simnet {

/// One sampled flow observation at the ISP border.
struct WildObs {
  LineId line = 0;
  net::IpAddress subscriber;       ///< the line's identifier that day
  UnitId unit = 0;                 ///< truth label (analysis only)
  unsigned domain_index = 0;       ///< truth label (analysis only)
  flow::FlowRecord flow;           ///< as exported (sampled counters)
};

/// Wild-simulation tunables.
struct WildIspConfig {
  std::uint64_t seed = 123;
  /// ISP packet-sampling interval (consistent across border routers).
  std::uint32_t sampling = 1000;
  /// Per device-hour probability of active use before diurnal weighting.
  double base_active_prob = 0.09;
  /// Per device-hour probability of a *heavy* session (voice assistant
  /// streaming music, TV playing video) — the sessions whose sampled
  /// packet counts cross the Sec. 7.1 active-use threshold.
  double heavy_session_prob = 0.008;
  /// Traffic multiplier of a heavy session on top of active_multiplier.
  double heavy_session_factor = 8.0;
};

/// Streaming generator of sampled ISP observations.
class WildIspSim {
 public:
  using Sink = std::function<void(const WildObs&)>;

  WildIspSim(const Backend& backend, const Population& population,
             const DomainRateModel& rates, const WildIspConfig& config);

  /// Emits every sampled observation for one hour into `sink`.
  ///
  /// Threading: the sink runs on the calling thread only, in ascending
  /// line order, with the same observations in the same order however many
  /// CPUs the host has. When the population spans more than one block and
  /// the host more than one CPU, hardware_concurrency() - 1 worker threads
  /// generate blocks ahead of the sink (at most two blocks per worker);
  /// they are started and joined inside this call, also when the sink
  /// throws, and the exception then reaches the caller. The sink may call
  /// this object's and the population's other const members.
  void hour_observations(util::HourBin hour, const Sink& sink) const;

  /// True when a device instance (line, device index) is in active use in
  /// the given hour; exposed so the usage analysis (Fig. 18) can compare
  /// detector output against truth.
  [[nodiscard]] bool device_active(LineId line, std::uint32_t device_index,
                                   util::HourBin hour) const;

  /// True when the device runs a heavy session (streaming-class traffic)
  /// in the given hour. Heavy implies active.
  [[nodiscard]] bool device_heavy(LineId line, std::uint32_t device_index,
                                  util::HourBin hour) const;

  [[nodiscard]] const WildIspConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

 private:
  // Per-hour constants of every line's draws.
  struct HourDraws {
    util::HourBin hour = 0;
    util::DayBin day = 0;
    double diurnal = 1.0;        ///< hour-of-day activity weight
    double inv_sampling = 1.0;
    std::uint64_t hour_ms = 0;
  };

  [[nodiscard]] HourDraws hour_draws(util::HourBin hour) const;

  /// The unit of device `device_index` of `line`, or null past its end.
  [[nodiscard]] const DetectionUnit* device_unit(
      LineId line, std::uint32_t device_index) const;

  /// Emits the hour's observations of one line into `emit`, reusing
  /// `obs` as scratch. The one copy of the per-line draw logic, shared by
  /// the inline and the worker paths.
  template <typename Emit>
  void emit_line(const HourDraws& draws, LineId line,
                 std::span<const OwnedDevice> devices, WildObs& obs,
                 Emit&& emit) const;

  /// Generates blocks on `workers` threads and hands them to `sink` in
  /// block order on this thread.
  void emit_blocks_parallel(const HourDraws& draws, unsigned workers,
                            const Sink& sink) const;

  const Backend& backend_;
  const Population& population_;
  const DomainRateModel& rates_;
  WildIspConfig config_;
  // Unit ancestor chains, precomputed: chain_units_[u] lists u and all
  // ancestors.
  std::vector<std::vector<UnitId>> chains_;
};

}  // namespace haystack::simnet
