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

Hit hit_for(std::uint32_t n) {
  return Hit{static_cast<ServiceId>(n % 11),
             static_cast<std::uint16_t>(n % 34)};
}

TEST(SignatureIndex, FamiliesNeverAlias) {
  // v4 a.b.c.d and v6 ::a.b.c.d share their 128-bit value; only the
  // family tells them apart.
  const std::uint32_t value = 0x0a000105U;
  const net::IpAddress v4 = net::IpAddress::v4(value);
  const net::IpAddress v6 = net::IpAddress::v6(0, value);
  ASSERT_EQ(v4.hi(), v6.hi());
  ASSERT_EQ(v4.lo(), v6.lo());
  {
    Hitlist hitlist;
    hitlist.add(v4, 443, 0, hit_for(1));
    SignatureIndex index;
    index.build(hitlist, RuleSet{});
    expect_agrees(hitlist, index, v4, 443);
    expect_agrees(hitlist, index, v6, 443);
    EXPECT_EQ(index.sig_of(v6, 443, 0), kNoSig);
  }
  {
    Hitlist hitlist;
    hitlist.add(v6, 443, 0, hit_for(2));
    SignatureIndex index;
    index.build(hitlist, RuleSet{});
    expect_agrees(hitlist, index, v4, 443);
    expect_agrees(hitlist, index, v6, 443);
    EXPECT_EQ(index.sig_of(v4, 443, 0), kNoSig);
  }
  {
    Hitlist hitlist;
    hitlist.add(v4, 443, 0, hit_for(3));
    hitlist.add(v6, 443, 0, hit_for(4));
    SignatureIndex index;
    index.build(hitlist, RuleSet{});
    EXPECT_EQ(index.endpoint_count(), 2u);
    expect_agrees(hitlist, index, v4, 443);
    expect_agrees(hitlist, index, v6, 443);
    EXPECT_NE(index.sig_of(v4, 443, 0), index.sig_of(v6, 443, 0));
  }
}

TEST(SignatureIndex, OneV6AddressWithManyPorts) {
  const net::IpAddress ip =
      net::IpAddress::v6(0x2a0104f800000000ULL, 0x00000000000000c3ULL);
  Hitlist hitlist;
  std::vector<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < 24; ++i) {
    const auto port = static_cast<std::uint16_t>(443 + i * 1021);
    ports.push_back(port);
    for (util::DayBin day = i % 3; day < util::kStudyDays; day += 2) {
      hitlist.add(ip, port, day, hit_for(i * 7 + day));
    }
  }
  SignatureIndex index;
  index.build(hitlist, RuleSet{});
  EXPECT_EQ(index.endpoint_count(), ports.size());
  for (const std::uint16_t port : ports) {
    expect_agrees(hitlist, index, ip, port);
    expect_agrees(hitlist, index, ip, static_cast<std::uint16_t>(port + 1));
  }
  expect_agrees(hitlist, index, ip, 0);
  expect_agrees(hitlist, index, ip, 0xffff);
}

TEST(SignatureIndex, V6AddressesOneBitAwayMiss) {
  Hitlist hitlist;
  std::vector<net::IpAddress> known;
  for (std::uint64_t a = 0; a < 8; ++a) {
    const net::IpAddress ip = net::IpAddress::v6(
        0x20010db800000000ULL | (a << 20), 0x0123456789abcdefULL ^ a);
    known.push_back(ip);
    for (util::DayBin day = 0; day < util::kStudyDays; ++day) {
      hitlist.add(ip, 8883, day, hit_for(static_cast<std::uint32_t>(a)));
    }
  }
  SignatureIndex index;
  index.build(hitlist, RuleSet{});
  for (const net::IpAddress& ip : known) {
    expect_agrees(hitlist, index, ip, 8883);
    for (unsigned bit = 0; bit < 128; ++bit) {
      const net::IpAddress near =
          bit < 64 ? net::IpAddress::v6(ip.hi() ^ (1ULL << bit), ip.lo())
                   : net::IpAddress::v6(ip.hi(), ip.lo() ^ (1ULL << (bit - 64)));
      expect_agrees(hitlist, index, near, 8883);
    }
  }
}

TEST(SignatureIndex, TablesAtTheirLoadBoundAgree) {
  // 2^k endpoints on one day fill a 2^(k+1)-slot table to exactly its
  // 0.5 load bound. Across the sizes, the clusters of occupied slots reach
  // the end of the table and probe chains wrap to slot 0; every hit and
  // every miss must still agree with the hitlist, and misses must end.
  for (unsigned k = 3; k <= 12; ++k) {
    const std::uint32_t count = 1U << k;
    Hitlist hitlist;
    std::vector<Endpoint> endpoints;
    for (std::uint32_t i = 0; i < count; ++i) {
      const net::IpAddress ip =
          i % 2 == 0 ? net::IpAddress::v4(0xc6336400U + i * 613)
                     : net::IpAddress::v6(0x2001067c00000000ULL + i,
                                          0x5000ULL * i);
      const auto port = static_cast<std::uint16_t>(1 + i % 5);
      endpoints.push_back({ip, port});
      hitlist.add(ip, port, 3, hit_for(i));
    }
    SignatureIndex index;
    index.build(hitlist, RuleSet{});
    ASSERT_EQ(index.endpoint_count(), count);
    for (const Endpoint& e : endpoints) {
      ASSERT_EQ(index.sig_of(e.ip, e.port, 3),
                packed(hitlist.lookup(e.ip, e.port, 3)));
      ASSERT_EQ(index.sig_of(e.ip, e.port, 2), kNoSig);
      ASSERT_EQ(index.sig_of(e.ip, static_cast<std::uint16_t>(e.port + 5), 3),
                kNoSig);
    }
    for (std::uint32_t i = 0; i < 4 * count; ++i) {
      const net::IpAddress v4 = net::IpAddress::v4(0x0b000000U + i * 7919);
      const net::IpAddress v6 = net::IpAddress::v6(i, 0);
      ASSERT_EQ(index.sig_of(v4, 443, 3), kNoSig);
      ASSERT_EQ(index.sig_of(v6, 443, 3), kNoSig);
    }
  }
}

}  // namespace
}  // namespace haystack::core
