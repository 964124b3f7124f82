// Precompiled signature index: maps (service IP, port, day) to a packed
// u32 detection signature. It is the only per-flow matcher: every
// detector path — Detector::observe, ShardedDetector's enqueue boundary,
// the pipeline normalizer — resolves flows through it, and the Hitlist it
// is built from is never probed per flow (ReferenceDetector, the test
// oracle, is the one exception).
//
// Layout:
//   - Service endpoints (the hitlist's (IP, port) universe) are interned
//     to dense u32 endpoint ids at build time. IPv4 endpoints live in a
//     flat open-addressing table keyed (addr << 16) | port — one
//     multiplicative hash + usually one probe. IPv6 endpoints route
//     through net::PrefixTrie (/128 entries, so the longest-prefix match
//     is exact) to a per-address port list.
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
#include "net/prefix_trie.hpp"
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
    if (day >= days_ || endpoint_count_ == 0) return kNoSig;
    std::uint32_t id;
    if (ip.is_v4()) {
      if (v4_table_.empty()) return kNoSig;
      const std::uint64_t key =
          (std::uint64_t{ip.v4_value()} << 16) | port;
      std::size_t slot =
          static_cast<std::size_t>((key * kFib) >> v4_shift_);
      for (;;) {
        const V4Slot& s = v4_table_[slot];
        if (s.key == key) {
          id = s.id;
          break;
        }
        if (s.key == kEmptyKey) return kNoSig;
        slot = (slot + 1) & v4_mask_;
      }
    } else {
      const auto group = v6_route_.lookup(ip);
      if (!group) return kNoSig;
      const auto& ports = v6_ports_[*group];
      id = kNoSig;
      for (const auto& [p, pid] : ports) {
        if (p == port) {
          id = pid;
          break;
        }
      }
      if (id == kNoSig) return kNoSig;
    }
    return sig_[static_cast<std::size_t>(day) * stride_ + id];
  }

  /// Distinct (IP, port) service endpoints interned.
  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return endpoint_count_;
  }

  /// Days covered (== the hitlist's day range).
  [[nodiscard]] util::DayBin days() const noexcept { return days_; }

 private:
  static constexpr std::uint64_t kFib = 0x9E3779B97F4A7C15ULL;
  /// Real v4 keys have their top 16 bits clear ((u32 << 16) | u16), so
  /// all-ones can never collide with one.
  static constexpr std::uint64_t kEmptyKey = ~0ULL;

  util::DayBin days_ = 0;
  std::size_t endpoint_count_ = 0;
  std::size_t stride_ = 0;

  // IPv4 endpoints: open-addressing, linear probing, power-of-two size.
  // Key and id live in one 16-byte slot so a hit costs a single cache
  // touch (the split key/id arrays cost two on every hit).
  struct V4Slot {
    std::uint64_t key = kEmptyKey;
    std::uint32_t id = 0;
  };
  std::vector<V4Slot> v4_table_;
  std::size_t v4_mask_ = 0;
  unsigned v4_shift_ = 0;

  // IPv6 endpoints: /128 routes to a per-address (port -> id) list.
  net::PrefixTrie<std::uint32_t> v6_route_;
  std::vector<std::vector<std::pair<std::uint16_t, std::uint32_t>>>
      v6_ports_;

  // Day-major packed signatures; kNoSig where the hitlist has no entry.
  std::vector<Signature> sig_;
};

}  // namespace haystack::core
