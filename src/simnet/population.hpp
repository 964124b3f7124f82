// Wild subscriber population of the ISP (paper Sec. 6.2).
//
// Models N broadband subscriber lines. Each line owns a set of IoT devices
// drawn from the catalog's per-product penetration rates, plus "virtual"
// devices representing third-party hardware that integrates a platform the
// testbed covers (the Alexa-in-a-fridge case — DetectionUnit::
// wild_extra_penetration). Ownership, addressing, and identifier churn are
// all deterministic functions of (seed, line), so any slice of the
// population can be regenerated independently.
//
// Nothing is materialized per line. Ownership is regenerated on demand in
// immutable shared blocks of kBlockLines lines (DESIGN.md §12). Blocks
// [0, cache_blocks) form a resident prefix: each stays once built, so
// populations up to cache_blocks · kBlockLines lines (256 k at the
// defaults — larger than every pre-scale workload) stay fully resident
// and behave exactly like the old materialized CSR. Higher blocks are
// built per use and dropped, so the paper's 15 M-line ISP (Sec. 6,
// Fig. 11) costs O(cache_blocks · kBlockLines) memory regardless of N,
// and a cyclic walk over N > cache_blocks blocks rebuilds only the
// N − cache_blocks blocks past the prefix. Streaming consumers walk the
// blocks in order with for_each_active_line, or one block at a time with
// for_each_active_line_in_block.
//
// Addressing model: each line lives in a regional pool of four /24s shared
// with 63 neighbours. Identifier rotation (router reboots, daily
// re-assignment) moves the line to a different address within its pool,
// which is exactly the effect Fig. 13 smooths by aggregating at /24 level.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "net/ip_address.hpp"
#include "simnet/catalog.hpp"
#include "util/sim_clock.hpp"

namespace haystack::simnet {

/// Subscriber line index.
using LineId = std::uint32_t;

/// One device owned by a line.
struct OwnedDevice {
  /// Product, or nullopt for a virtual wild-extra device of `unit`.
  std::optional<ProductId> product;
  /// The device's own detection unit (ancestors implied).
  UnitId unit = 0;
};

/// Population tunables.
struct PopulationConfig {
  std::uint64_t seed = 99;
  std::uint32_t lines = 200'000;
  /// Per-day probability that a line's identifier rotates (router reboot,
  /// re-assignment; the ISP's churn is "pretty low", Sec. 6.2).
  double daily_rotation_probability = 0.03;
  /// Fraction of lines with IPv6 connectivity.
  double dual_stack_fraction = 0.35;
  /// Resident ownership blocks: blocks [0, cache_blocks) stay once built.
  /// Blocks cover kBlockLines lines each, so the default keeps
  /// 64 · 4096 = 262 144 lines resident — every pre-scale workload fits
  /// entirely; a 15 M-line sweep rebuilds the blocks above the prefix per
  /// use, in bounded memory.
  std::uint32_t cache_blocks = 64;
};

/// The (lazily generated) population.
class Population {
 public:
  /// Lines per ownership block; one deterministic regeneration unit.
  static constexpr std::uint32_t kBlockLines = 4096;

  Population(const Catalog& catalog, const PopulationConfig& config);

  [[nodiscard]] std::uint32_t line_count() const noexcept {
    return config_.lines;
  }

  /// Devices owned by a line (possibly empty). The span stays valid until
  /// the calling thread's next devices_of call on this Population for a
  /// line in another block: the thread pins the backing block, and serves
  /// lines of the pinned block from it without locking (streaming callers
  /// should prefer for_each_active_line).
  [[nodiscard]] std::span<const OwnedDevice> devices_of(LineId line) const;

  /// Number of ownership blocks: ceil(line_count / kBlockLines).
  [[nodiscard]] std::uint32_t block_count() const noexcept {
    return static_cast<std::uint32_t>(
        (std::uint64_t{config_.lines} + kBlockLines - 1) / kBlockLines);
  }

  /// Streams every line owning at least one device, ascending, with its
  /// devices. The span is valid only during the callback.
  void for_each_active_line(
      const std::function<void(LineId, std::span<const OwnedDevice>)>& fn)
      const;

  /// Streams the active lines of block `index` (< block_count()),
  /// ascending, with their devices; the span is valid only during the
  /// callback. Safe to call from several threads at once, and it pins
  /// nothing on the calling thread.
  template <typename Fn>
  void for_each_active_line_in_block(std::uint32_t index, Fn&& fn) const {
    const std::shared_ptr<const Block> block = block_for(index);
    for (const LineId line : block->active) {
      fn(line, block->devices_of(line));
    }
  }

  /// Number of lines owning at least one device (computed on first use via
  /// one streaming pass, then cached).
  [[nodiscard]] std::uint64_t active_line_count() const;

  /// The subscriber address (identifier) of a line on a given day,
  /// reflecting identifier rotation.
  [[nodiscard]] net::IpAddress address_of(LineId line,
                                          util::DayBin day) const;

  /// True when the line has IPv6 connectivity (dual stack).
  [[nodiscard]] bool dual_stack(LineId line) const;

  /// The line's IPv6 identifier (a /56-derived address). Valid only for
  /// dual-stack lines; stable across the window (v6 prefixes rotate far
  /// less than v4 addresses at real ISPs).
  [[nodiscard]] net::IpAddress address6_of(LineId line) const;

  /// Number of identifier rotations the line has experienced up to and
  /// including `day`.
  [[nodiscard]] unsigned epoch_of(LineId line, util::DayBin day) const;

  [[nodiscard]] const Catalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] const PopulationConfig& config() const noexcept {
    return config_;
  }

  /// Fraction of lines owning at least one catalog or virtual device.
  [[nodiscard]] double device_penetration() const;

  /// Bytes held by the resident blocks plus fixed members — the number
  /// the streaming design bounds (old CSR: O(lines)).
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  // One regenerated ownership block: devices of line (first_line + i) are
  // devices[offsets[i] .. offsets[i+1]). Immutable once built; shared_ptr
  // so readers outlive a non-resident block's use.
  struct Block {
    LineId first_line = 0;
    std::uint32_t line_span = 0;
    std::vector<std::uint32_t> offsets;
    std::vector<OwnedDevice> devices;
    std::vector<LineId> active;  // lines in-block owning ≥1 device

    [[nodiscard]] std::span<const OwnedDevice> devices_of(
        LineId line) const {
      const std::uint32_t i = line - first_line;
      return {devices.data() + offsets[i], devices.data() + offsets[i + 1]};
    }
    [[nodiscard]] std::uint64_t bytes() const noexcept {
      return sizeof(Block) + offsets.capacity() * sizeof(std::uint32_t) +
             devices.capacity() * sizeof(OwnedDevice) +
             active.capacity() * sizeof(LineId);
    }
  };

  struct Candidate {
    std::optional<ProductId> product;
    UnitId unit = 0;
    double penetration = 0.0;
  };

  [[nodiscard]] std::shared_ptr<const Block> block_for(
      std::uint32_t index) const;
  [[nodiscard]] std::shared_ptr<const Block> build_block(
      std::uint32_t index) const;

  const Catalog& catalog_;
  PopulationConfig config_;
  std::vector<Candidate> candidates_;
  /// Distinct per instance; keys the calling thread's block pin.
  std::uint64_t serial_;

  // Resident prefix: slot i holds block i once built (i < cache_blocks),
  // guarded by cache_mutex_; the vector itself is sized at construction
  // and never resized. A miss builds the block outside the lock, so
  // threads walking different blocks build them in parallel; two threads
  // missing on the same block may both build it, and the second to insert
  // adopts the first one's copy.
  mutable std::mutex cache_mutex_;
  mutable std::vector<std::shared_ptr<const Block>> resident_;

  // active_line_count / device_penetration are one full streaming pass;
  // computed once on demand.
  mutable std::once_flag active_count_once_;
  mutable std::uint64_t active_count_ = 0;
};

}  // namespace haystack::simnet
