#include "simnet/wild_isp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace haystack::simnet {

namespace {

// Stream salts of the per-device-hour draws.
constexpr std::uint64_t kActiveSalt = 0xac71f17e;
constexpr std::uint64_t kHeavySalt = 0x6ea57e55;
constexpr std::uint64_t kTrafficSalt = 0x3f10b5;

// Blocks a worker may generate ahead of the sink.
constexpr std::uint32_t kBlocksAheadPerWorker = 2;

/// Draws a sampled packet count with mean `lambda`, using a one-uniform
/// Bernoulli fast path for tiny rates (the overwhelmingly common case at
/// 1-in-1000 sampling).
std::uint64_t sampled_count(util::Pcg32& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 0.05) {
    // P(N>=1) = 1-e^-l ~= l - l^2/2; P(N>=2 | N>=1) < l/2, negligible.
    return rng.chance(lambda * (1.0 - 0.5 * lambda)) ? 1 : 0;
  }
  return rng.poisson(lambda);
}

/// One device-hour session draw (active use or a heavy session) from the
/// device's own (line, device, hour) stream.
bool session_draw(std::uint64_t stream_seed, double base_prob,
                  const DetectionUnit& unit, double diurnal, LineId line,
                  std::uint32_t device_index, util::HourBin hour) {
  // Entertainment-class devices (high diurnal strength) are simply used
  // more hours per day than sensors and plugs; scale the base probability
  // accordingly before applying the hour-of-day shape.
  const double p = base_prob * (1.0 + 2.0 * unit.diurnal_strength) *
                   (1.0 + unit.diurnal_strength * (diurnal - 1.0));
  util::Pcg32 rng = util::derive_rng(
      stream_seed, util::hash_combine(line, device_index), hour);
  return rng.chance(p);
}

}  // namespace

WildIspSim::WildIspSim(const Backend& backend, const Population& population,
                       const DomainRateModel& rates,
                       const WildIspConfig& config)
    : backend_{backend},
      population_{population},
      rates_{rates},
      config_{config} {
  const auto& units = backend.catalog().units();
  chains_.resize(units.size());
  for (const DetectionUnit& u : units) {
    UnitId cur = u.id;
    for (;;) {
      chains_[u.id].push_back(cur);
      const auto& parent = units[cur].parent;
      if (!parent) break;
      cur = *parent;
    }
  }
}

WildIspSim::HourDraws WildIspSim::hour_draws(util::HourBin hour) const {
  return {.hour = hour,
          .day = util::day_of(hour),
          .diurnal = util::diurnal_weight(util::hour_of_day(hour)),
          .inv_sampling = 1.0 / static_cast<double>(config_.sampling),
          .hour_ms = static_cast<std::uint64_t>(hour) * 3'600'000};
}

const DetectionUnit* WildIspSim::device_unit(
    LineId line, std::uint32_t device_index) const {
  const auto devices = population_.devices_of(line);
  if (device_index >= devices.size()) return nullptr;
  return &backend_.catalog().units()[devices[device_index].unit];
}

bool WildIspSim::device_active(LineId line, std::uint32_t device_index,
                               util::HourBin hour) const {
  const DetectionUnit* unit = device_unit(line, device_index);
  return unit != nullptr &&
         session_draw(config_.seed ^ kActiveSalt, config_.base_active_prob,
                      *unit, hour_draws(hour).diurnal, line, device_index,
                      hour);
}

bool WildIspSim::device_heavy(LineId line, std::uint32_t device_index,
                              util::HourBin hour) const {
  const DetectionUnit* unit = device_unit(line, device_index);
  return unit != nullptr &&
         session_draw(config_.seed ^ kHeavySalt, config_.heavy_session_prob,
                      *unit, hour_draws(hour).diurnal, line, device_index,
                      hour);
}

template <typename Emit>
void WildIspSim::emit_line(const HourDraws& draws, const LineId line,
                           const std::span<const OwnedDevice> devices,
                           WildObs& obs, Emit&& emit) const {
  const Catalog& catalog = backend_.catalog();
  const util::HourBin hour = draws.hour;
  const net::IpAddress subscriber = population_.address_of(line, draws.day);
  const bool v6_capable = population_.dual_stack(line);
  const net::IpAddress subscriber6 =
      v6_capable ? population_.address6_of(line) : net::IpAddress{};

  for (std::uint32_t di = 0; di < devices.size(); ++di) {
    const OwnedDevice& dev = devices[di];
    const DetectionUnit& own_unit = catalog.units()[dev.unit];
    const bool heavy =
        session_draw(config_.seed ^ kHeavySalt, config_.heavy_session_prob,
                     own_unit, draws.diurnal, line, di, hour);
    const bool active =
        heavy ||
        session_draw(config_.seed ^ kActiveSalt, config_.base_active_prob,
                     own_unit, draws.diurnal, line, di, hour);

    util::Pcg32 rng = util::derive_rng(config_.seed ^ kTrafficSalt,
                                       util::hash_combine(line, di), hour);

    for (const UnitId uid : chains_[dev.unit]) {
      const DetectionUnit& unit = catalog.units()[uid];
      double effective_mult = 1.0;
      if (heavy) {
        effective_mult = unit.active_multiplier * config_.heavy_session_factor;
      } else if (active) {
        effective_mult = unit.active_multiplier;
      }
      for (const UnitDomain* dom : catalog.domains_of(uid)) {
        // Duty cycle: not every domain is contacted every hour.
        if (unit.idle_domain_duty < 1.0 && !active &&
            !rng.chance(unit.idle_domain_duty)) {
          continue;
        }
        const double lambda = rates_.idle_rate(uid, dom->index) *
                              effective_mult * draws.inv_sampling;
        const std::uint64_t sampled = sampled_count(rng, lambda);
        if (sampled == 0) continue;

        // Happy eyeballs: dual-stack lines prefer v6 when the backend
        // publishes AAAA records.
        const auto& ips6 = backend_.ips6_of(uid, dom->index);
        const bool use_v6 = v6_capable && !ips6.empty() && rng.chance(0.6);
        const auto& ips =
            use_v6 ? ips6 : backend_.ips_of(uid, dom->index, draws.day);
        obs.line = line;
        obs.subscriber = subscriber;
        obs.unit = uid;
        obs.domain_index = dom->index;
        flow::FlowRecord& rec = obs.flow;
        rec.key.src = use_v6 ? subscriber6 : subscriber;
        rec.key.dst = ips[rng.bounded(static_cast<std::uint32_t>(ips.size()))];
        rec.key.src_port =
            static_cast<std::uint16_t>(32768 + rng.bounded(28000));
        rec.key.dst_port = dom->port;
        rec.key.proto = dom->port == 123 ? 17 : 6;
        rec.tcp_flags = flow::tcpflags::kAck | flow::tcpflags::kPsh;
        rec.packets = sampled;
        rec.bytes = sampled * (200 + rng.bounded(900));
        rec.start_ms = draws.hour_ms + rng.bounded(3'500'000);
        rec.end_ms = rec.start_ms + rng.bounded(60'000);
        rec.sampling = config_.sampling;
        emit(obs);
      }
    }
  }
}

void WildIspSim::hour_observations(util::HourBin hour,
                                   const Sink& sink) const {
  const HourDraws draws = hour_draws(hour);
  const std::uint32_t blocks = population_.block_count();
  const unsigned cpus = std::thread::hardware_concurrency();
  if (blocks > 1 && cpus > 1) {
    emit_blocks_parallel(draws, std::min(cpus - 1, blocks), sink);
    return;
  }
  WildObs obs;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    population_.for_each_active_line_in_block(
        b, [&](LineId line, std::span<const OwnedDevice> devices) {
          emit_line(draws, line, devices, obs, sink);
        });
  }
}

void WildIspSim::emit_blocks_parallel(const HourDraws& draws,
                                      const unsigned workers,
                                      const Sink& sink) const {
  const std::uint32_t blocks = population_.block_count();
  // Block b is generated into slot b % window once block b - window has
  // been delivered, so at most `window` blocks are buffered at a time.
  const std::uint32_t window =
      std::min(blocks, kBlocksAheadPerWorker * workers);
  struct Slot {
    std::vector<WildObs> obs;
    bool ready = false;  // guarded by mu
  };
  std::vector<Slot> slots(window);
  std::atomic<std::uint32_t> next_block{0};

  std::mutex mu;
  std::condition_variable block_ready;    // the caller waits on it
  std::condition_variable_any slot_free;  // workers wait on it
  std::uint32_t delivered = 0;            // guarded by mu
  std::exception_ptr failure;             // guarded by mu

  const auto work = [&](const std::stop_token& stop) {
    WildObs obs;
    for (;;) {
      const std::uint32_t b =
          next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) return;
      Slot& slot = slots[b % window];
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!slot_free.wait(lock, stop,
                            [&] { return b < delivered + window; })) {
          return;
        }
      }
      try {
        slot.obs.clear();
        population_.for_each_active_line_in_block(
            b, [&](LineId line, std::span<const OwnedDevice> devices) {
              emit_line(draws, line, devices, obs,
                        [&slot](const WildObs& o) { slot.obs.push_back(o); });
            });
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!failure) failure = std::current_exception();
        }
        block_ready.notify_one();
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        slot.ready = true;
      }
      block_ready.notify_one();
    }
  };
  // Declared after everything the workers use: a jthread's destructor
  // asks it to stop and joins it, so every exit, the sink throwing
  // included, joins the workers before their state goes away.
  std::vector<std::jthread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(work);

  for (std::uint32_t b = 0; b < blocks; ++b) {
    Slot& slot = slots[b % window];
    {
      std::unique_lock<std::mutex> lock(mu);
      block_ready.wait(lock, [&] { return slot.ready || failure; });
      if (failure) std::rethrow_exception(failure);
    }
    for (const WildObs& o : slot.obs) sink(o);
    {
      std::lock_guard<std::mutex> lock(mu);
      slot.ready = false;
      ++delivered;
    }
    slot_free.notify_all();
  }
}

}  // namespace haystack::simnet
