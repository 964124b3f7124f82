#include "simnet/population.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace haystack::simnet {

namespace {
// Subscriber space: 100.64.0.0/10.
constexpr std::uint32_t kSubscriberBase = 0x64400000;
// Lines per regional address pool; each pool spans four /24s (1024 addrs).
constexpr std::uint32_t kLinesPerRegion = 64;
constexpr std::uint32_t kRegionAddrSpan = 1024;
// Total addresses in the /10. Regional pools wrap modulo this span so a
// 15 M-line population still addresses inside 100.64.0.0/10; for lines
// below 262 144 (4096 regions) the wrap is an identity, so small-N
// populations keep their historical addresses bit-for-bit.
constexpr std::uint64_t kSubscriberSpan = 0x400000;

// Per-thread pins keeping the block behind the last devices_of() span
// alive, and serving the next devices_of() in the same block without the
// cache lock. Keyed by a per-instance serial rather than the address, so
// a Population built where a destroyed one lived never reads its pins;
// one pin per instance keeps two populations compared side by side valid.
struct BlockPin {
  std::uint64_t population = 0;
  std::uint32_t index = 0;
  std::shared_ptr<const void> block;
};
thread_local std::vector<BlockPin> t_block_pins;
constexpr std::size_t kMaxPins = 16;
std::atomic<std::uint64_t> g_next_serial{1};

BlockPin& pin_of(std::uint64_t population) {
  for (BlockPin& pin : t_block_pins) {
    if (pin.population == population) return pin;
  }
  if (t_block_pins.size() >= kMaxPins) {
    t_block_pins.erase(t_block_pins.begin());
  }
  return t_block_pins.emplace_back(BlockPin{population, 0, nullptr});
}
}  // namespace

Population::Population(const Catalog& catalog,
                       const PopulationConfig& config)
    : catalog_{catalog},
      config_{config},
      serial_{g_next_serial.fetch_add(1, std::memory_order_relaxed)} {
  // Pre-extract the ownership candidates: real products plus virtual
  // wild-extra devices per unit. Order matters: ownership draws consume
  // the per-line RNG stream in exactly this sequence, which is what keeps
  // lazy regeneration bit-for-bit equal to the old materialized CSR.
  for (const Product& p : catalog.products()) {
    if (p.unit && p.penetration > 0.0) {
      candidates_.push_back({p.id, *p.unit, p.penetration});
    }
  }
  for (const DetectionUnit& u : catalog.units()) {
    if (u.wild_extra_penetration > 0.0) {
      candidates_.push_back({std::nullopt, u.id, u.wild_extra_penetration});
    }
  }
  resident_.resize(std::min(config_.cache_blocks, block_count()));
}

std::shared_ptr<const Population::Block> Population::build_block(
    std::uint32_t index) const {
  auto block = std::make_shared<Block>();
  block->first_line = index * kBlockLines;
  block->line_span = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kBlockLines,
                              std::uint64_t{config_.lines} -
                                  block->first_line));
  block->offsets.reserve(block->line_span + 1);
  block->offsets.push_back(0);
  for (std::uint32_t i = 0; i < block->line_span; ++i) {
    const LineId line = block->first_line + i;
    util::Pcg32 rng = util::derive_rng(config_.seed ^ 0x0cc07a11, line, 0);
    bool any = false;
    for (const Candidate& c : candidates_) {
      if (rng.chance(c.penetration)) {
        block->devices.push_back({c.product, c.unit});
        any = true;
      }
    }
    block->offsets.push_back(
        static_cast<std::uint32_t>(block->devices.size()));
    if (any) block->active.push_back(line);
  }
  block->devices.shrink_to_fit();
  block->active.shrink_to_fit();
  return block;
}

std::shared_ptr<const Population::Block> Population::block_for(
    std::uint32_t index) const {
  if (index >= resident_.size()) return build_block(index);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (resident_[index]) return resident_[index];
  }
  std::shared_ptr<const Block> block = build_block(index);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  // Another thread may have inserted the same block while this one built.
  if (resident_[index]) return resident_[index];
  resident_[index] = block;
  return block;
}

std::span<const OwnedDevice> Population::devices_of(LineId line) const {
  const std::uint32_t index = line / kBlockLines;
  BlockPin& pin = pin_of(serial_);
  if (!pin.block || pin.index != index) {
    pin.block = block_for(index);
    pin.index = index;
  }
  return static_cast<const Block*>(pin.block.get())->devices_of(line);
}

void Population::for_each_active_line(
    const std::function<void(LineId, std::span<const OwnedDevice>)>& fn)
    const {
  for (std::uint32_t index = 0; index < block_count(); ++index) {
    for_each_active_line_in_block(index, fn);
  }
}

std::uint64_t Population::active_line_count() const {
  std::call_once(active_count_once_, [this] {
    std::uint64_t count = 0;
    for_each_active_line(
        [&count](LineId, std::span<const OwnedDevice>) { ++count; });
    active_count_ = count;
  });
  return active_count_;
}

unsigned Population::epoch_of(LineId line, util::DayBin day) const {
  unsigned epoch = 0;
  for (util::DayBin d = 1; d <= day; ++d) {
    util::Pcg32 rng = util::derive_rng(config_.seed ^ 0x707a7e, line, d);
    if (rng.chance(config_.daily_rotation_probability)) ++epoch;
  }
  return epoch;
}

net::IpAddress Population::address_of(LineId line, util::DayBin day) const {
  const std::uint32_t region = line / kLinesPerRegion;
  const unsigned epoch = epoch_of(line, day);
  const std::uint32_t slot = static_cast<std::uint32_t>(
      util::hash_combine(util::fnv1a_u64(line), epoch) % kRegionAddrSpan);
  const std::uint64_t offset =
      (std::uint64_t{region} * kRegionAddrSpan + slot) % kSubscriberSpan;
  return net::IpAddress::v4(kSubscriberBase +
                            static_cast<std::uint32_t>(offset));
}

bool Population::dual_stack(LineId line) const {
  util::Pcg32 rng = util::derive_rng(config_.seed ^ 0xd5a15ac, line, 0);
  return rng.chance(config_.dual_stack_fraction);
}

net::IpAddress Population::address6_of(LineId line) const {
  // One /64 per line under the ISP's 2001:db8:6400::/40.
  return net::IpAddress::v6(0x20010db864000000ULL | line, 1);
}

double Population::device_penetration() const {
  return config_.lines == 0
             ? 0.0
             : static_cast<double>(active_line_count()) /
                   static_cast<double>(config_.lines);
}

std::uint64_t Population::memory_bytes() const {
  std::uint64_t bytes =
      sizeof(Population) + candidates_.capacity() * sizeof(Candidate) +
      resident_.capacity() * sizeof(std::shared_ptr<const Block>);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (const std::shared_ptr<const Block>& block : resident_) {
    if (block) bytes += block->bytes();
  }
  return bytes;
}

}  // namespace haystack::simnet
