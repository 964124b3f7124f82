// Intern-table property tests (ISSUE 6 satellite 2).
//
// The interning layer is the contract everything past the decode boundary
// leans on: dense u32 handles, stable across rehash for the table's
// lifetime, name() views that never dangle, and lossless round-trips
// through the HSCK v3 checkpoint format's embedded label table. These tests pin each clause,
// including the degenerate regimes — a million distinct domains (far past
// every rehash threshold) and adversarial serialize() images (truncation,
// duplicates, trailing garbage).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/detector.hpp"
#include "core/intern.hpp"
#include "core/sharded_detector.hpp"
#include "flow/wire.hpp"

namespace haystack::core {
namespace {

std::string domain(std::uint32_t i) {
  return "dev" + std::to_string(i) + ".iot.example";
}

TEST(InternTable, HandlesAreDenseAndFirstComeFirstServed) {
  InternTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find("absent"), InternTable::kInvalid);

  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.intern(domain(i)), i);
  }
  EXPECT_EQ(table.size(), 100u);
  // Re-interning is idempotent: same handle, no growth.
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.intern(domain(i)), i);
    EXPECT_EQ(table.find(domain(i)), i);
    EXPECT_EQ(table.name(i), domain(i));
  }
  EXPECT_EQ(table.size(), 100u);
}

TEST(InternTable, HandlesAndViewsSurviveRehash) {
  InternTable table;
  // Record the early handles *and the exact character storage* behind
  // their name() views, then grow the table far past every rehash
  // threshold. Both must be byte-stable (the deque never relocates).
  constexpr std::uint32_t kProbe = 64;
  std::vector<const char*> data_ptrs;
  for (std::uint32_t i = 0; i < kProbe; ++i) {
    EXPECT_EQ(table.intern(domain(i)), i);
    data_ptrs.push_back(table.name(i).data());
  }
  for (std::uint32_t i = kProbe; i < 200'000; ++i) table.intern(domain(i));
  EXPECT_EQ(table.size(), 200'000u);
  for (std::uint32_t i = 0; i < kProbe; ++i) {
    EXPECT_EQ(table.find(domain(i)), i);
    EXPECT_EQ(table.name(i), domain(i));
    EXPECT_EQ(table.name(i).data(), data_ptrs[i]) << "view relocated";
  }
}

TEST(InternTable, MillionDistinctDomains) {
  // Collision behaviour at scale (ISSUE 6 satellite 2): a million
  // distinct domains must intern to exactly the dense range [0, 1M) with
  // no handle ever reused or skipped, and spot lookups must still resolve
  // after the table has rehashed through every growth step.
  constexpr std::uint32_t kCount = 1'000'000;
  InternTable table;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(table.intern(domain(i)), i);
  }
  ASSERT_EQ(table.size(), kCount);
  // Dense spot checks across the whole range (checking all 1M again
  // would double the runtime for no added coverage).
  for (std::uint32_t i = 0; i < kCount; i += 997) {
    ASSERT_EQ(table.find(domain(i)), i);
    ASSERT_EQ(table.name(i), domain(i));
  }
  EXPECT_EQ(table.find(domain(kCount)), InternTable::kInvalid);
}

TEST(InternTable, ClearRestartsHandles) {
  InternTable table;
  table.intern("a");
  table.intern("b");
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find("a"), InternTable::kInvalid);
  EXPECT_EQ(table.intern("b"), 0u);
}

TEST(InternTable, SerializeRestoreRoundTrip) {
  InternTable table;
  for (std::uint32_t i = 0; i < 1000; ++i) table.intern(domain(i));
  // Include the empty string and a max-length-ish name.
  const auto empty_handle = table.intern("");
  const auto long_handle = table.intern(std::string(4096, 'x'));

  std::vector<std::uint8_t> image;
  table.serialize(image);
  // Deterministic bytes: serialization order is handle order, not hash
  // order.
  std::vector<std::uint8_t> image2;
  table.serialize(image2);
  EXPECT_EQ(image, image2);

  InternTable restored;
  std::size_t offset = 0;
  ASSERT_TRUE(restored.restore(image, offset));
  EXPECT_EQ(offset, image.size());
  ASSERT_EQ(restored.size(), table.size());
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(restored.find(domain(i)), i);
  }
  EXPECT_EQ(restored.name(empty_handle), "");
  EXPECT_EQ(restored.name(long_handle), std::string(4096, 'x'));

  // The section is self-delimiting: trailing bytes after it belong to the
  // caller and must be left unconsumed.
  auto padded = image;
  padded.push_back(0xab);
  padded.push_back(0xcd);
  InternTable padded_restore;
  offset = 0;
  ASSERT_TRUE(padded_restore.restore(padded, offset));
  EXPECT_EQ(offset, image.size());
}

TEST(InternTable, RestoreRejectsMalformedImages) {
  InternTable table;
  for (std::uint32_t i = 0; i < 50; ++i) table.intern(domain(i));
  std::vector<std::uint8_t> image;
  table.serialize(image);

  const auto expect_rejected = [](std::vector<std::uint8_t> bad,
                                  const char* what) {
    InternTable victim;
    victim.intern("pre-existing");
    std::size_t offset = 0;
    EXPECT_FALSE(victim.restore(bad, offset)) << what;
    // A failed restore leaves the table cleared, never half-populated.
    EXPECT_EQ(victim.size(), 0u) << what;
  };

  expect_rejected({}, "empty");
  expect_rejected({0x00, 0x00, 0x00}, "short count");
  {
    auto bad = image;
    bad.resize(bad.size() - 1);
    expect_rejected(std::move(bad), "truncated last name");
  }
  {
    auto bad = image;
    bad.resize(5);  // count says 50 entries, bytes end mid-first-entry
    expect_rejected(std::move(bad), "truncated first entry");
  }
  {
    // Duplicate names cannot reproduce distinct handles on re-intern;
    // restore must reject rather than silently alias two handles.
    InternTable dup_source;
    dup_source.intern("same");
    std::vector<std::uint8_t> dup;
    dup_source.serialize(dup);
    // Patch count to 2 and append a second copy of the entry bytes.
    dup[3] = 2;
    const std::vector<std::uint8_t> entry(dup.begin() + 4, dup.end());
    dup.insert(dup.end(), entry.begin(), entry.end());
    expect_rejected(std::move(dup), "duplicate name");
  }
}

// ---------------------------------------------------------------------------
// HSCK v3: evidence keyed by interned rule handles, label table embedded.

struct Fixture {
  RuleSet rules;
  DetectorConfig config{.threshold = 0.5};

  Fixture() {
    for (ServiceId s = 0; s < 4; ++s) {
      DetectionRule rule;
      rule.service = s;
      rule.name = "vendor-" + std::to_string(s);
      rule.level = Level::kManufacturer;
      rule.monitored_domains = 8;
      for (std::uint16_t m = 0; m < 8; ++m) {
        rule.monitored_indices.push_back(m);
        for (util::DayBin day = 0; day < 2; ++day) {
          rules.hitlist.add(endpoint(s, m), 443, day, {s, m});
        }
      }
      rules.rules.push_back(std::move(rule));
    }
  }

  static net::IpAddress endpoint(ServiceId s, std::uint16_t m) {
    return net::IpAddress::v4(0x0A000000U | (std::uint32_t{s} << 16) | m);
  }

  void feed(Detector& det) const {
    for (SubscriberKey sub = 1; sub <= 40; ++sub) {
      for (std::uint16_t m = 0; m < 8; ++m) {
        const auto s = static_cast<ServiceId>((sub + m) % 4);
        det.observe(sub, endpoint(s, m), 443, 2 + m, (sub + m) % 48);
      }
    }
  }
};

using EvidenceRow =
    std::tuple<SubscriberKey, ServiceId, std::uint64_t, std::uint64_t,
               std::uint16_t, std::uint64_t, util::HourBin, util::HourBin>;

template <typename DetectorT>
std::vector<EvidenceRow> snapshot(const DetectorT& det) {
  std::vector<EvidenceRow> rows;
  det.for_each_evidence(
      [&](SubscriberKey sub, ServiceId svc, const Evidence& ev) {
        rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.distinct(),
                          ev.packets(), ev.first_seen(), ev.satisfied_hour());
      });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CheckpointInterned, V3RoundTripsThroughInternedHandles) {
  const Fixture fx;
  Detector det{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(det);
  const auto rows = snapshot(det);

  const auto blob = save_checkpoint_compact(det);
  // Header is u32 magic then big-endian u32 version.
  EXPECT_EQ(blob[7], 3);
  // Deterministic bytes for identical state.
  EXPECT_EQ(save_checkpoint_compact(det), blob);

  Detector restored{fx.rules.hitlist, fx.rules, fx.config};
  ASSERT_TRUE(restore_checkpoint(blob, restored));
  EXPECT_EQ(snapshot(restored), rows);
  EXPECT_EQ(restored.stats().flows, det.stats().flows);
  EXPECT_EQ(restored.stats().matched, det.stats().matched);
}

TEST(CheckpointInterned, ShardedV3MatchesFlatAndRepartitions) {
  const Fixture fx;
  Detector flat{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(flat);

  for (const unsigned shards : {1u, 4u}) {
    ShardedDetector sharded{fx.rules.hitlist, fx.rules, fx.config, shards};
    ASSERT_TRUE(restore_checkpoint(save_checkpoint_compact(flat), sharded));
    EXPECT_EQ(snapshot(sharded), snapshot(flat)) << "shards=" << shards;
    // Identical state serializes to identical bytes regardless of the
    // engine or partitioning that holds it.
    EXPECT_EQ(save_checkpoint_compact(sharded), save_checkpoint_compact(flat))
        << "shards=" << shards;
  }
}

TEST(CheckpointInterned, V3SurvivesServiceRenumbering) {
  // The point of keying by rule *name*: a catalog that renumbers its
  // services (here: reversed ids) still restores evidence onto the right
  // rules, where a blob keyed by raw service id would attach it to the
  // wrong ones.
  const Fixture fx;
  Detector det{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(det);
  const auto blob = save_checkpoint_compact(det);

  Fixture renumbered;
  renumbered.rules.rules.clear();
  renumbered.rules.hitlist = Hitlist{};
  for (ServiceId s = 0; s < 4; ++s) {
    DetectionRule rule;
    rule.service = s;
    rule.name = "vendor-" + std::to_string(3 - s);  // reversed naming
    rule.level = Level::kManufacturer;
    rule.monitored_domains = 8;
    for (std::uint16_t m = 0; m < 8; ++m) {
      rule.monitored_indices.push_back(m);
    }
    renumbered.rules.rules.push_back(std::move(rule));
  }
  Detector target{renumbered.rules.hitlist, renumbered.rules,
                  renumbered.config};
  ASSERT_TRUE(restore_checkpoint(blob, target));

  // Evidence that lived on "vendor-K" (old id K) must now sit on the
  // renumbered id 3-K.
  std::vector<EvidenceRow> expected;
  for (auto row : snapshot(det)) {
    std::get<1>(row) = static_cast<ServiceId>(3 - std::get<1>(row));
    expected.push_back(row);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(snapshot(target), expected);
}

// The header every HSCK version shares: magic, version, threshold bits,
// flows, matched.
std::vector<std::uint8_t> hsck_header(std::uint32_t version, double threshold,
                                      const Detector::Stats& stats) {
  flow::ByteWriter w;
  w.u32(kCheckpointMagic);
  w.u32(version);
  w.u64(std::bit_cast<std::uint64_t>(threshold));
  w.u64(stats.flows);
  w.u64(stats.matched);
  return w.take();
}

TEST(CheckpointInterned, V3RejectsUnknownRulesAndCorruptTables) {
  const Fixture fx;
  Detector det{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(det);
  const auto v3 = save_checkpoint_compact(det);

  const auto expect_rejected = [&](std::span<const std::uint8_t> bad,
                                   const char* what) {
    Detector victim{fx.rules.hitlist, fx.rules, fx.config};
    fx.feed(victim);
    const auto before = snapshot(victim);
    std::string error;
    EXPECT_FALSE(restore_checkpoint(bad, victim, &error)) << what;
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_EQ(snapshot(victim), before) << what;  // untouched on failure
  };

  // A rule set that knows none of the blob's rule names.
  RuleSet strangers;
  for (ServiceId s = 0; s < 4; ++s) {
    DetectionRule rule;
    rule.service = s;
    rule.name = "other-" + std::to_string(s);
    rule.level = Level::kManufacturer;
    rule.monitored_domains = 8;
    strangers.rules.push_back(std::move(rule));
  }
  Detector stranger{strangers.hitlist, strangers, fx.config};
  std::string error;
  EXPECT_FALSE(restore_checkpoint(v3, stranger, &error));
  EXPECT_FALSE(error.empty());

  {
    auto bad = v3;
    bad.resize(bad.size() - 1);
    expect_rejected(bad, "truncated");
  }
  {
    auto bad = v3;
    bad.push_back(0);
    expect_rejected(bad, "trailing");
  }
  {
    // Corrupt the intern-table count (first field after the 32-byte
    // header+stats prefix): entries can no longer parse coherently.
    auto bad = v3;
    bad[32 + 3] ^= 0x7f;
    expect_rejected(bad, "corrupt intern count");
  }
  {
    // A well-formed blob in the retired v1 layout: one row keyed by raw
    // service id (u64 subscriber, u16 service, u64 mask x2, u16 distinct,
    // u64 packets, u32 first_seen, u32 satisfied_hour).
    auto v1 = hsck_header(1, fx.config.threshold, det.stats());
    flow::ByteWriter w;
    w.u64(1);
    w.u64(7);
    w.u16(2);
    w.u64(0x3);
    w.u64(0);
    w.u16(2);
    w.u64(10);
    w.u32(4);
    w.u32(Evidence::kNever);
    const auto rows = w.take();
    v1.insert(v1.end(), rows.begin(), rows.end());
    expect_rejected(v1, "HSCK v1");
  }
  {
    // A well-formed blob in the retired v2 layout: the embedded label
    // table, then one row keyed by label handle with v1's fields.
    auto v2 = hsck_header(2, fx.config.threshold, det.stats());
    InternTable table;
    table.intern("vendor-2");
    table.serialize(v2);
    flow::ByteWriter w;
    w.u64(1);
    w.u64(7);
    w.u32(0);
    w.u64(0x3);
    w.u64(0);
    w.u16(2);
    w.u64(10);
    w.u32(4);
    w.u32(Evidence::kNever);
    const auto rows = w.take();
    v2.insert(v2.end(), rows.begin(), rows.end());
    expect_rejected(v2, "HSCK v2");
  }
}

}  // namespace
}  // namespace haystack::core
