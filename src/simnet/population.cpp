#include "simnet/population.hpp"

#include <algorithm>
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
// alive across LRU eviction. Keyed by Population identity so tests
// comparing two instances side by side keep both spans valid.
struct BlockPin {
  const void* population = nullptr;
  std::shared_ptr<const void> block;
};
thread_local std::vector<BlockPin> t_block_pins;
constexpr std::size_t kMaxPins = 16;

void pin_block(const void* population, std::shared_ptr<const void> block) {
  for (BlockPin& pin : t_block_pins) {
    if (pin.population == population) {
      pin.block = std::move(block);
      return;
    }
  }
  if (t_block_pins.size() >= kMaxPins) {
    t_block_pins.erase(t_block_pins.begin());
  }
  t_block_pins.push_back({population, std::move(block)});
}
}  // namespace

Population::Population(const Catalog& catalog,
                       const PopulationConfig& config)
    : catalog_{catalog}, config_{config} {
  if (config_.cache_blocks == 0) config_.cache_blocks = 1;
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
  cache_.reserve(config_.cache_blocks);
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

std::shared_ptr<const Population::Block> Population::cached_block(
    std::uint32_t index) const {
  for (CacheSlot& slot : cache_) {
    if (slot.block && slot.index == index) {
      slot.last_use = ++cache_clock_;
      return slot.block;
    }
  }
  return nullptr;
}

std::shared_ptr<const Population::Block> Population::block_for(
    std::uint32_t index) const {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (auto hit = cached_block(index)) return hit;
  }
  std::shared_ptr<const Block> block = build_block(index);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  // Another thread may have inserted the same block while this one built.
  if (auto hit = cached_block(index)) return hit;
  cached_bytes_.fetch_add(block->bytes(), std::memory_order_relaxed);
  if (cache_.size() < config_.cache_blocks) {
    cache_.push_back({index, ++cache_clock_, block});
  } else {
    auto victim = std::min_element(
        cache_.begin(), cache_.end(),
        [](const CacheSlot& a, const CacheSlot& b) {
          return a.last_use < b.last_use;
        });
    cached_bytes_.fetch_sub(victim->block->bytes(),
                            std::memory_order_relaxed);
    *victim = {index, ++cache_clock_, block};
  }
  return block;
}

std::span<const OwnedDevice> Population::devices_of(LineId line) const {
  std::shared_ptr<const Block> block = block_for(line / kBlockLines);
  const std::span<const OwnedDevice> devices = block->devices_of(line);
  pin_block(this, std::move(block));
  return devices;
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
      sizeof(Population) + candidates_.capacity() * sizeof(Candidate);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    bytes += cache_.capacity() * sizeof(CacheSlot);
  }
  return bytes + cached_bytes_.load(std::memory_order_relaxed);
}

}  // namespace haystack::simnet
