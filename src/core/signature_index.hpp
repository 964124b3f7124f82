// Precompiled signature index: maps (service IP, port, day) to a packed
// u32 detection signature. It is the only per-flow matcher: every
// detector path — Detector::observe, ShardedDetector's enqueue boundary,
// the pipeline normalizer — resolves flows through it, and the Hitlist it
// is built from is never probed per flow (ReferenceDetector, the test
// oracle, is the one exception).
//
// Layout:
//   - Service endpoints (the hitlist's (IP, port) universe) are interned
//     to dense u32 endpoint ids at build time, in one flat open-addressing
//     table for both address families: 24-byte slots {hi, lo, tag, id}
//     with tag = port << 2 | family code, load factor <= 0.5, linear
//     probing. A lookup is one multiplicative hash and usually one probe,
//     for IPv6 as for IPv4. The family is part of the key, so the IPv4
//     address a.b.c.d never matches the IPv6 address ::a.b.c.d.
//   - Signatures live in a dense day-major table sig[day * stride + id],
//     each packing the hitlist Hit as (service << 16) | domain_index.
//     kNoSig marks (endpoint, day) pairs the hitlist does not cover —
//     mirroring Hitlist::lookup returning nullopt, including for
//     out-of-range days.
//
// The index is immutable after build(); sig_of() is const and safe to
// call concurrently from any number of producer threads.
//
// build() also interns each rule's name and monitored-domain labels into
// an InternTable (when provided), rule names first in rule order so the
// live handle space is dense and reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hitlist.hpp"
#include "core/intern.hpp"
#include "core/rules.hpp"
#include "util/sim_clock.hpp"

namespace haystack::core {

/// Packed detection signature: (service << 16) | domain_index, or kNoSig
/// for "no hitlist match".
using Signature = std::uint32_t;

inline constexpr Signature kNoSig = 0xffffffffU;

[[nodiscard]] inline ServiceId sig_service(Signature sig) noexcept {
  return static_cast<ServiceId>(sig >> 16);
}

[[nodiscard]] inline std::uint16_t sig_domain_index(Signature sig) noexcept {
  return static_cast<std::uint16_t>(sig & 0xffffU);
}

class SignatureIndex {
 public:
  SignatureIndex() = default;

  /// Builds the index from the hitlist, and interns rule names (in rule
  /// order) plus monitored-domain labels into `domains` when non-null.
  void build(const Hitlist& hitlist, const RuleSet& rules,
             InternTable* domains = nullptr);

  /// Resolves one endpoint for one day. Exactly equivalent to
  /// `Hitlist::lookup(ip, port, day)`: returns kNoSig iff the lookup
  /// would return nullopt, otherwise packs the Hit it would return.
  [[nodiscard]] Signature sig_of(const net::IpAddress& ip,
                                 std::uint16_t port,
                                 util::DayBin day) const noexcept {
    // days_ is 0 until build(), which always leaves a non-empty table.
    if (day >= days_) return kNoSig;
    const Slot& s = table_[find(ip.hi(), ip.lo(), tag_of(ip, port))];
    if (s.tag == kEmptyTag) return kNoSig;
    return sig_[static_cast<std::size_t>(day) * stride_ + s.id];
  }

  /// Distinct (IP, port) service endpoints interned.
  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return endpoint_count_;
  }

  /// Days covered (== the hitlist's day range).
  [[nodiscard]] util::DayBin days() const noexcept { return days_; }

 private:
  static constexpr std::uint64_t kFib = 0x9E3779B97F4A7C15ULL;
  /// Real tags carry a nonzero family code, so 0 marks an empty slot.
  static constexpr std::uint32_t kEmptyTag = 0;

  // Key and id in one slot, so a hit costs a single cache touch.
  struct Slot {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::uint32_t tag = kEmptyTag;
    std::uint32_t id = 0;
  };

  [[nodiscard]] static std::uint32_t tag_of(const net::IpAddress& ip,
                                            std::uint16_t port) noexcept {
    return (std::uint32_t{port} << 2) | (ip.is_v4() ? 1U : 2U);
  }

  /// The slot holding key (hi, lo, tag), or the empty slot ending its
  /// probe chain. For IPv4 (hi == 0, lo < 2^32) the mixed key is exactly
  /// (addr << 18) | tag.
  [[nodiscard]] std::size_t find(std::uint64_t hi, std::uint64_t lo,
                                 std::uint32_t tag) const noexcept {
    const std::uint64_t key = (lo << 18) ^ (lo >> 46) ^ tag ^ (hi * kFib);
    std::size_t slot = static_cast<std::size_t>((key * kFib) >> shift_);
    for (;;) {
      const Slot& s = table_[slot];
      if (s.tag == tag ? s.lo == lo && s.hi == hi : s.tag == kEmptyTag) {
        return slot;
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Sizes an empty table of `slots` (a power of two) slots.
  void reset_table(std::size_t slots);

  util::DayBin days_ = 0;
  std::size_t endpoint_count_ = 0;
  std::size_t stride_ = 0;

  // Endpoint table: power-of-two size, load factor <= 0.5.
  std::vector<Slot> table_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;

  // Day-major packed signatures; kNoSig where the hitlist has no entry.
  std::vector<Signature> sig_;
};

}  // namespace haystack::core
