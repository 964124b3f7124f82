// SignatureIndex must agree with Hitlist::lookup exactly. Every detector
// path resolves flows through the index, so the Detector-vs-ShardedDetector
// differentials compare the index with itself; these tests (and the
// ReferenceDetector oracle) are what pin it to the hitlist it was built
// from.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/hitlist.hpp"
#include "core/rules.hpp"
#include "core/signature_index.hpp"
#include "simnet/backend.hpp"
#include "simnet/catalog.hpp"
#include "simnet/manual_analysis.hpp"

namespace haystack::core {
namespace {

Signature packed(const std::optional<Hit>& hit) {
  return hit ? (Signature{hit->service} << 16) | hit->domain_index : kNoSig;
}

// Checks sig_of against lookup for one endpoint on every study day and a
// few days past the end of the study.
void expect_agrees(const Hitlist& hitlist, const SignatureIndex& index,
                   const net::IpAddress& ip, std::uint16_t port) {
  for (util::DayBin day = 0; day < util::kStudyDays + 3; ++day) {
    EXPECT_EQ(index.sig_of(ip, port, day),
              packed(hitlist.lookup(ip, port, day)))
        << ip.to_string() << ":" << port << " day " << day;
  }
  EXPECT_EQ(index.sig_of(ip, port, 0xffffffffU), kNoSig);
}

struct Endpoint {
  net::IpAddress ip;
  std::uint16_t port;
};

TEST(SignatureIndex, MatchesHitlistOnV4AndV6Endpoints) {
  Hitlist hitlist;
  std::vector<Endpoint> endpoints;
  // Two ports per address; each endpoint is live on a subset of days and
  // changes its (service, domain) mapping from day to day.
  for (std::uint32_t a = 0; a < 40; ++a) {
    const net::IpAddress v4 = net::IpAddress::v4(0x0a000000U + a * 257);
    const net::IpAddress v6 =
        net::IpAddress::v6(0x20010db800000000ULL + a, 0x1000 + a * 3);
    for (const net::IpAddress& ip : {v4, v6}) {
      for (const std::uint16_t port : {std::uint16_t{443}, std::uint16_t{8883}}) {
        endpoints.push_back({ip, port});
        for (util::DayBin day = 0; day < util::kStudyDays; ++day) {
          if ((a + day + port) % 3 == 0) continue;
          hitlist.add(ip, port, day,
                      Hit{static_cast<ServiceId>((a + day) % 7),
                          static_cast<std::uint16_t>((a * 5 + day) % 34)});
        }
      }
    }
  }
  SignatureIndex index;
  index.build(hitlist, RuleSet{});
  EXPECT_EQ(index.endpoint_count(), endpoints.size());
  EXPECT_EQ(index.days(), util::kStudyDays);

  std::size_t entries = 0;
  hitlist.for_each([&](util::DayBin day, const net::IpAddress& ip,
                       std::uint16_t port, const Hit& hit) {
    ++entries;
    EXPECT_EQ(index.sig_of(ip, port, day), packed(hit));
  });
  EXPECT_EQ(entries, hitlist.total_size());

  for (const Endpoint& e : endpoints) {
    expect_agrees(hitlist, index, e.ip, e.port);
    // Wrong port on a known address.
    expect_agrees(hitlist, index, e.ip, 80);
    expect_agrees(hitlist, index, e.ip, static_cast<std::uint16_t>(e.port + 1));
  }
  // Unknown addresses, including neighbours of known ones.
  for (const net::IpAddress& ip :
       {net::IpAddress::v4(0x0a000001U), net::IpAddress::v4(0xc0a80001U),
        net::IpAddress::v6(0x20010db800000000ULL, 0x1001),
        net::IpAddress::v6(0xfe80000000000000ULL, 1)}) {
    expect_agrees(hitlist, index, ip, 443);
  }
}

TEST(SignatureIndex, EmptyHitlistMatchesNothing) {
  Hitlist hitlist;
  SignatureIndex index;
  index.build(hitlist, RuleSet{});
  EXPECT_EQ(index.endpoint_count(), 0u);
  expect_agrees(hitlist, index, net::IpAddress::v4(0x0a000000U), 443);
  expect_agrees(hitlist, index, net::IpAddress::v6(1, 2), 443);
}

TEST(SignatureIndex, MatchesHitlistOnGeneratedRuleset) {
  const simnet::Catalog catalog;
  const simnet::Backend backend{catalog, simnet::BackendConfig{}};
  const RuleSet rules = simnet::build_ruleset(backend);
  SignatureIndex index;
  index.build(rules.hitlist, rules);
  ASSERT_GT(rules.hitlist.total_size(), 1000u);

  std::vector<Endpoint> endpoints;
  rules.hitlist.for_each([&](util::DayBin day, const net::IpAddress& ip,
                             std::uint16_t port, const Hit& hit) {
    EXPECT_EQ(index.sig_of(ip, port, day), packed(hit));
    if (day == 0) endpoints.push_back({ip, port});
  });
  for (std::size_t i = 0; i < endpoints.size(); i += 7) {
    const Endpoint& e = endpoints[i];
    expect_agrees(rules.hitlist, index, e.ip, e.port);
    expect_agrees(rules.hitlist, index, e.ip,
                  static_cast<std::uint16_t>(e.port ^ 0x5a5a));
  }
}

}  // namespace
}  // namespace haystack::core
