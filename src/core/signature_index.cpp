#include "core/signature_index.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

namespace haystack::core {

void SignatureIndex::reset_table(std::size_t slots) {
  table_.assign(slots, Slot{});
  mask_ = slots - 1;
  shift_ = 64U - static_cast<unsigned>(std::countr_zero(slots));
}

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

  // Pass 1: intern every distinct (IP, port) endpoint to a dense id,
  // doubling the table whenever it would pass load 0.5. The largest day
  // is a lower bound on the endpoint count, so most builds never grow.
  std::size_t largest_day = 0;
  for (util::DayBin day = 0; day < days_; ++day) {
    largest_day = std::max(largest_day, hitlist.day_size(day));
  }
  reset_table(std::bit_ceil(std::max<std::size_t>(16, largest_day * 2)));
  endpoint_count_ = 0;
  hitlist.for_each([&](util::DayBin, const net::IpAddress& ip,
                       std::uint16_t port, const Hit&) {
    const std::uint32_t tag = tag_of(ip, port);
    Slot& slot = table_[find(ip.hi(), ip.lo(), tag)];
    if (slot.tag != kEmptyTag) return;
    slot = {ip.hi(), ip.lo(), tag,
            static_cast<std::uint32_t>(endpoint_count_++)};
    if (endpoint_count_ * 2 > table_.size()) {
      std::vector<Slot> old = std::move(table_);
      reset_table(old.size() * 2);
      for (const Slot& s : old) {
        if (s.tag != kEmptyTag) table_[find(s.hi, s.lo, s.tag)] = s;
      }
    }
  });
  stride_ = endpoint_count_;

  // Pass 2: fill the day-major signature table.
  sig_.assign(static_cast<std::size_t>(days_) * stride_, kNoSig);
  hitlist.for_each([&](util::DayBin day, const net::IpAddress& ip,
                       std::uint16_t port, const Hit& hit) {
    const std::uint32_t id =
        table_[find(ip.hi(), ip.lo(), tag_of(ip, port))].id;
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
