#include "core/signature_index.hpp"

#include <bit>
#include <map>
#include <string>
#include <unordered_map>

#include "net/prefix.hpp"

namespace haystack::core {

void SignatureIndex::build(const Hitlist& hitlist, const RuleSet& rules,
                           InternTable* domains) {
  // Rule names first, in rule order, so interned rule handles are dense
  // and reproducible.
  if (domains != nullptr) {
    for (const auto& rule : rules.rules) {
      domains->intern(rule.name);
    }
    for (const auto& rule : rules.rules) {
      for (const std::uint16_t idx : rule.monitored_indices) {
        domains->intern(rule.name + "/" + std::to_string(idx));
      }
    }
  }

  days_ = util::kStudyDays;  // Hitlist's fixed day range

  // Pass 1: intern every distinct (IP, port) endpoint to a dense id.
  struct Endpoint {
    net::IpAddress ip;
    std::uint16_t port;
  };
  std::unordered_map<std::uint64_t, std::uint32_t> v4_id;
  std::map<std::pair<net::IpAddress, std::uint16_t>, std::uint32_t> v6_id;
  std::vector<Endpoint> endpoints;
  hitlist.for_each([&](util::DayBin, const net::IpAddress& ip,
                       std::uint16_t port, const Hit&) {
    if (ip.is_v4()) {
      const std::uint64_t key = (std::uint64_t{ip.v4_value()} << 16) | port;
      if (v4_id.emplace(key, static_cast<std::uint32_t>(endpoints.size()))
              .second) {
        endpoints.push_back({ip, port});
      }
    } else {
      if (v6_id.emplace(std::pair{ip, port},
                        static_cast<std::uint32_t>(endpoints.size()))
              .second) {
        endpoints.push_back({ip, port});
      }
    }
  });
  endpoint_count_ = endpoints.size();
  stride_ = endpoint_count_;

  // IPv4 flat table: power-of-two, load factor <= 0.5.
  v4_table_.clear();
  if (!v4_id.empty()) {
    const std::size_t slots =
        std::bit_ceil(std::max<std::size_t>(8, v4_id.size() * 2));
    v4_table_.assign(slots, V4Slot{});
    v4_mask_ = slots - 1;
    v4_shift_ =
        64U - static_cast<unsigned>(std::countr_zero(slots));
    for (const auto& [key, id] : v4_id) {
      std::size_t slot = static_cast<std::size_t>((key * kFib) >> v4_shift_);
      while (v4_table_[slot].key != kEmptyKey) slot = (slot + 1) & v4_mask_;
      v4_table_[slot] = {key, id};
    }
  }

  // IPv6 route: /128 prefix -> group index; one port list per address.
  v6_route_ = net::PrefixTrie<std::uint32_t>{};
  v6_ports_.clear();
  std::map<net::IpAddress, std::uint32_t> v6_group;
  for (const auto& [key, id] : v6_id) {
    const auto [git, inserted] = v6_group.emplace(
        key.first, static_cast<std::uint32_t>(v6_ports_.size()));
    if (inserted) {
      v6_ports_.emplace_back();
      v6_route_.insert(net::Prefix::of(key.first, 128), git->second);
    }
    v6_ports_[git->second].emplace_back(key.second, id);
  }

  // Pass 2: fill the day-major signature table.
  sig_.assign(static_cast<std::size_t>(days_) * stride_, kNoSig);
  hitlist.for_each([&](util::DayBin day, const net::IpAddress& ip,
                       std::uint16_t port, const Hit& hit) {
    std::uint32_t id;
    if (ip.is_v4()) {
      id = v4_id.at((std::uint64_t{ip.v4_value()} << 16) | port);
    } else {
      id = v6_id.at(std::pair{ip, port});
    }
    const Signature packed =
        (Signature{hit.service} << 16) | hit.domain_index;
    // (service, domain_index) == (0xffff, 0xffff) would alias the miss
    // sentinel; the catalog never gets near 65535 services, but skip
    // rather than corrupt if it ever did.
    if (packed == kNoSig) return;
    sig_[static_cast<std::size_t>(day) * stride_ + id] = packed;
  });
}

}  // namespace haystack::core
