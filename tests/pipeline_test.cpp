// Tests for the deployment-grade pipelines: the multi-router border fleet
// (sampling provenance via options announcements) and the packet-level
// home capture / metering path (conservation through the flow cache).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "flow/flow_batch.hpp"
#include "obs/metrics.hpp"
#include "pipeline/ingest.hpp"
#include "simnet/backend.hpp"
#include "simnet/ground_truth.hpp"
#include "simnet/manual_analysis.hpp"
#include "telemetry/border_fleet.hpp"
#include "telemetry/home_capture.hpp"

namespace haystack {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new simnet::Catalog();
    backend_ = new simnet::Backend(*catalog_, simnet::BackendConfig{});
    gt_ = new simnet::GroundTruthSim(*backend_, simnet::GroundTruthConfig{});
    rules_ = new core::RuleSet(simnet::build_ruleset(*backend_));
  }
  static void TearDownTestSuite() {
    delete rules_;
    delete gt_;
    delete backend_;
    delete catalog_;
  }
  static simnet::Catalog* catalog_;
  static simnet::Backend* backend_;
  static simnet::GroundTruthSim* gt_;
  static core::RuleSet* rules_;
};

simnet::Catalog* PipelineTest::catalog_ = nullptr;
simnet::Backend* PipelineTest::backend_ = nullptr;
simnet::GroundTruthSim* PipelineTest::gt_ = nullptr;
core::RuleSet* PipelineTest::rules_ = nullptr;

TEST_F(PipelineTest, FleetLearnsSamplingFromAnnouncements) {
  telemetry::BorderFleetConfig fleet_config;
  fleet_config.routers = 4;
  fleet_config.sampling = 1000;
  telemetry::BorderRouterFleet fleet{fleet_config};
  const auto out = fleet.observe(gt_->hour_flows(24), 24);
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(fleet.sampling().known_sources(), 4u);
  for (unsigned r = 0; r < 4; ++r) {
    EXPECT_EQ(fleet.sampling().interval_of(100 + r), 1000u);
  }
  // Every decoded record carries the announced interval, not a per-record
  // field (the exporters zeroed it).
  for (const auto& lf : out) {
    EXPECT_EQ(lf.flow.sampling, 1000u);
  }
  EXPECT_EQ(fleet.collector_stats().malformed_packets, 0u);
}

TEST_F(PipelineTest, FleetRoutesByDestinationConsistently) {
  telemetry::BorderFleetConfig fleet_config;
  fleet_config.routers = 4;
  fleet_config.sampling = 1000;
  telemetry::BorderRouterFleet fleet{fleet_config};
  const auto flows = gt_->hour_flows(30);
  std::map<net::IpAddress, unsigned> seen;
  for (const auto& lf : flows) {
    const unsigned r = fleet.router_of(lf.flow.key.dst);
    const auto [it, inserted] = seen.emplace(lf.flow.key.dst, r);
    EXPECT_EQ(it->second, r) << "destination flapped between routers";
  }
  // All routers get work.
  std::set<unsigned> used;
  for (const auto& [ip, r] : seen) used.insert(r);
  EXPECT_EQ(used.size(), 4u);
}

TEST_F(PipelineTest, FleetDetectionMatchesSingleVantageStatistically) {
  // The fleet pipeline must not bias detection: over the active window the
  // per-service detection outcomes should agree with the single-exporter
  // vantage for the strong (fast-detected) services.
  telemetry::BorderFleetConfig fleet_config;
  fleet_config.routers = 4;
  fleet_config.sampling = 1000;
  telemetry::BorderRouterFleet fleet{fleet_config};
  core::Detector det{rules_->hitlist, *rules_, {.threshold = 0.4}};
  for (util::HourBin h = 0; h < 48; ++h) {
    for (const auto& lf : fleet.observe(gt_->hour_flows(h), h)) {
      det.observe(1, lf.flow.key.dst, lf.flow.key.dst_port,
                  lf.flow.packets, h);
    }
  }
  for (const char* name : {"Alexa Enabled", "Amazon Product", "Fire TV",
                           "Philips Dev.", "Yi Camera"}) {
    const auto* rule = rules_->rule_by_name(name);
    ASSERT_NE(rule, nullptr);
    EXPECT_TRUE(det.detected(1, rule->service)) << name;
  }
}

TEST_F(PipelineTest, HomeCaptureConservesEventsAndBytes) {
  telemetry::HomePacketPipeline pipeline{{}};
  const auto flows = gt_->hour_flows(26);
  auto result = pipeline.meter_hour(flows, 26);
  auto rest = pipeline.drain();
  result.flows.insert(result.flows.end(), rest.begin(), rest.end());

  std::uint64_t pkts_out = 0;
  std::uint64_t bytes_out = 0;
  for (const auto& rec : result.flows) {
    pkts_out += rec.packets;
    bytes_out += rec.bytes;
  }
  EXPECT_EQ(pkts_out, result.events_in);
  EXPECT_EQ(bytes_out, result.bytes_in);
  // Under the default cap almost all flows materialize 1 event per packet.
  EXPECT_GE(result.events_in, result.packets_in * 95 / 100);
}

TEST_F(PipelineTest, HomeCapturePreservesKeyUniverse) {
  telemetry::HomePacketPipeline pipeline{{}};
  const auto flows = gt_->hour_flows(27);
  auto result = pipeline.meter_hour(flows, 27);
  auto rest = pipeline.drain();
  result.flows.insert(result.flows.end(), rest.begin(), rest.end());

  std::set<flow::FlowKey> in_keys;
  std::set<flow::FlowKey> out_keys;
  for (const auto& lf : flows) in_keys.insert(lf.flow.key);
  for (const auto& rec : result.flows) out_keys.insert(rec.key);
  EXPECT_EQ(in_keys, out_keys);
}

TEST_F(PipelineTest, HomeCaptureCapBoundsMemoryNotTotals) {
  telemetry::HomeCaptureConfig config;
  config.max_packets_per_flow = 8;
  telemetry::HomePacketPipeline pipeline{config};
  const auto flows = gt_->hour_flows(28);
  auto result = pipeline.meter_hour(flows, 28);
  auto rest = pipeline.drain();
  result.flows.insert(result.flows.end(), rest.begin(), rest.end());
  std::uint64_t bytes_out = 0;
  for (const auto& rec : result.flows) bytes_out += rec.bytes;
  EXPECT_EQ(bytes_out, result.bytes_in);  // bytes exact even when capped
  EXPECT_LE(result.events_in, flows.size() * 8);
}

using EvidenceRow =
    std::tuple<core::SubscriberKey, core::ServiceId, std::uint64_t,
               std::uint64_t, std::uint16_t, std::uint64_t, util::HourBin,
               util::HourBin>;

template <typename DetectorT>
std::vector<EvidenceRow> evidence_snapshot(const DetectorT& det) {
  std::vector<EvidenceRow> rows;
  det.for_each_evidence([&](core::SubscriberKey s, core::ServiceId sv,
                            const core::Evidence& ev) {
    rows.emplace_back(s, sv, ev.mask(0), ev.mask(1), ev.distinct(), ev.packets(),
                      ev.first_seen(), ev.satisfied_hour());
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_F(PipelineTest, StreamingDatagramPathMatchesSynchronousCollector) {
  // End-to-end wire differential: two identical fleets export the same
  // hours (export_hour is deterministic, asserted datagram-for-datagram);
  // one stream feeds the staged IngestPipeline, the other a synchronous
  // collector + normalizer + detector on the calling thread. Evidence
  // must agree bit for bit.
  constexpr std::uint64_t kKey = 0x5eed;
  telemetry::BorderFleetConfig fcfg;
  fcfg.routers = 3;
  fcfg.sampling = 200;
  telemetry::BorderRouterFleet fleet_a{fcfg};
  telemetry::BorderRouterFleet fleet_b{fcfg};

  pipeline::IngestConfig icfg;
  icfg.shards = 4;
  icfg.queue_capacity = 8;  // small queues: stages genuinely overlap
  icfg.anonymization_key = kKey;
  pipeline::IngestPipeline pipe{rules_->hitlist, *rules_, icfg};

  flow::nf9::Collector sync_collector{
      flow::nf9::CollectorConfig{.dedup_window = icfg.dedup_window}};
  core::Detector sync_det{rules_->hitlist, *rules_, icfg.detector};
  const auto normalize = pipeline::default_normalizer(kKey);

  std::uint64_t datagrams = 0;
  for (util::HourBin h = 0; h < 6; ++h) {
    std::vector<flow::FlowRecord> records;
    for (const auto& lf : gt_->hour_flows(h)) records.push_back(lf.flow);
    auto wire_a = fleet_a.export_hour(records, h);
    const auto wire_b = fleet_b.export_hour(records, h);
    ASSERT_EQ(wire_a, wire_b) << "export_hour not deterministic, hour " << h;
    for (const auto& datagram : wire_b) {
      std::vector<flow::FlowRecord> decoded;
      (void)sync_collector.ingest(datagram, decoded);
      for (const auto& rec : decoded) {
        if (const auto obs = normalize(rec, h)) {
          sync_det.observe(obs->subscriber, obs->server, obs->port,
                           obs->packets, obs->hour);
        }
      }
    }
    for (auto& datagram : wire_a) {
      ASSERT_TRUE(pipe.push_datagram(std::move(datagram), h));
      ++datagrams;
    }
  }
  pipe.shutdown();

  const auto stats = pipe.stats();
  EXPECT_EQ(stats.datagrams, datagrams);
  EXPECT_EQ(stats.malformed_datagrams, 0u);
  EXPECT_EQ(stats.unknown_version, 0u);
  EXPECT_GT(stats.flows_decoded, 0u);
  // The default normalizer never drops a flow.
  EXPECT_EQ(stats.observations, stats.flows_decoded);
  EXPECT_EQ(pipe.detector().stats().flows, sync_det.stats().flows);
  EXPECT_EQ(evidence_snapshot(pipe.detector()), evidence_snapshot(sync_det));
}

/// A normalizer equal to default_normalizer(key) whose calls block until
/// open(): it holds the normalize worker on its first row, so the stages
/// upstream of it back up deterministically.
class GatedNormalizer {
 public:
  explicit GatedNormalizer(std::uint64_t key)
      : inner_{pipeline::default_normalizer(key)} {}

  [[nodiscard]] pipeline::Normalizer normalizer() {
    return [this](const flow::FlowRecord& rec, util::HourBin hour) {
      entered_.store(true);
      while (!open_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return inner_(rec, hour);
    };
  }
  void open() { open_.store(true); }
  [[nodiscard]] bool entered() const { return entered_.load(); }

 private:
  pipeline::Normalizer inner_;
  std::atomic<bool> entered_{false};
  std::atomic<bool> open_{false};
};

/// Opens the gate when a test leaves its scope early, before the pipeline
/// (declared earlier) shuts down and waits for the normalize worker.
struct OpenOnExit {
  GatedNormalizer& gate;
  ~OpenOnExit() { gate.open(); }
};

/// Polls `done` for at most ten seconds (sanitizer builds are slow).
template <typename Pred>
bool eventually(Pred done) {
  for (int i = 0; i < 10'000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

std::vector<flow::FlowRecord> hour_records(const simnet::GroundTruthSim& gt,
                                           util::HourBin hour) {
  std::vector<flow::FlowRecord> records;
  for (const auto& lf : gt.hour_flows(hour)) records.push_back(lf.flow);
  return records;
}

TEST_F(PipelineTest, StreamingMixedDecodeWaveMatchesSynchronousCollector) {
  // One decode wave holding datagrams of two hours, a truncated datagram,
  // an unknown export version and a duplicate must leave the evidence and
  // the counters of a synchronous collector replay of the same stream.
  // The normalize worker is held on its first row until the mixed set is
  // queued, so a single decode wave claims the whole set.
  constexpr std::uint64_t kKey = 0x5eed;
  telemetry::BorderFleetConfig fcfg;
  fcfg.routers = 3;
  fcfg.sampling = 200;
  telemetry::BorderRouterFleet fleet{fcfg};
  const auto hour0 = fleet.export_hour(hour_records(*gt_, 24), 24);
  const auto hour1 = fleet.export_hour(hour_records(*gt_, 25), 25);
  ASSERT_GE(hour0.size(), 28u);
  ASSERT_GE(hour1.size(), 25u);

  // Each router's first datagram carries only templates and options.
  using Datagram = std::pair<util::HourBin, std::vector<std::uint8_t>>;
  std::vector<Datagram> prelude;
  for (std::size_t i = 0; i < 6; ++i) prelude.emplace_back(24, hour0[i]);
  std::vector<Datagram> mixed;
  for (std::size_t i = 6; i < 21; ++i) mixed.emplace_back(24, hour0[i]);
  mixed.emplace_back(24, std::vector<std::uint8_t>(
                             hour0[21].begin(),
                             hour0[21].begin() +
                                 static_cast<std::ptrdiff_t>(
                                     hour0[21].size() / 2)));  // truncated
  for (std::size_t i = 22; i < 28; ++i) mixed.emplace_back(24, hour0[i]);
  std::vector<std::uint8_t> unknown(24, 0);
  unknown[1] = 7;  // export version 7: no decoder
  mixed.emplace_back(25, unknown);
  for (std::size_t i = 0; i < 15; ++i) mixed.emplace_back(25, hour1[i]);
  mixed.emplace_back(25, hour1[5]);  // duplicate
  for (std::size_t i = 15; i < 25; ++i) mixed.emplace_back(25, hour1[i]);

  pipeline::IngestConfig icfg;
  icfg.shards = 4;
  icfg.queue_capacity = 64;  // decode queue holds the mixed set
  icfg.max_wave = 64;        // and one wave claims all of it
  icfg.anonymization_key = kKey;
  GatedNormalizer gate{kKey};
  pipeline::IngestPipeline pipe{rules_->hitlist, *rules_, icfg,
                                gate.normalizer()};
  OpenOnExit open_on_exit{gate};
  ASSERT_LE(mixed.size(), icfg.queue_capacity);
  ASSERT_EQ(pipe.stats().normalize.capacity, 1u);

  // Prelude: the first data rows hold the normalize worker, the next
  // datagram fills the one-item normalize queue, and the last blocks the
  // decode worker in its hand-off.
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(pipe.push_datagram(prelude[i].second, prelude[i].first));
  }
  ASSERT_TRUE(eventually([&] { return gate.entered(); }));
  ASSERT_TRUE(pipe.push_datagram(prelude[4].second, prelude[4].first));
  ASSERT_TRUE(eventually([&] { return pipe.stats().normalize.depth == 1; }));
  ASSERT_TRUE(pipe.push_datagram(prelude[5].second, prelude[5].first));
  ASSERT_TRUE(eventually(
      [&] { return pipe.stats().normalize.producer_stalls >= 1; }));
  const std::uint64_t prelude_waves = pipe.stats().decode.waves;

  auto decode_hist = pipe.observability().registry.histogram(
      "decode_batch_ns_per_record");
  const auto hist_before = decode_hist->snapshot();
  for (const auto& [hour, bytes] : mixed) {
    ASSERT_TRUE(pipe.push_datagram(bytes, hour));
  }
  EXPECT_EQ(pipe.stats().decode.depth, mixed.size());
  gate.open();
  pipe.shutdown();

  // The synchronous replay of the same stream.
  flow::nf9::Collector sync_collector{
      flow::nf9::CollectorConfig{.dedup_window = icfg.dedup_window}};
  core::Detector sync_det{rules_->hitlist, *rules_, icfg.detector};
  const auto normalize = pipeline::default_normalizer(kKey);
  std::uint64_t sync_rows = 0;
  std::uint64_t sync_unknown = 0;
  auto replay = [&](const std::vector<Datagram>& datagrams) {
    for (const auto& [hour, bytes] : datagrams) {
      if (bytes[0] != 0 || bytes[1] != 9) {
        ++sync_unknown;
        continue;
      }
      std::vector<flow::FlowRecord> decoded;
      (void)sync_collector.ingest(bytes, decoded);
      sync_rows += decoded.size();
      for (const auto& rec : decoded) {
        const auto obs = normalize(rec, hour);
        sync_det.observe(obs->subscriber, obs->server, obs->port,
                         obs->packets, obs->hour);
      }
    }
  };
  replay(prelude);
  replay(mixed);
  ASSERT_EQ(sync_collector.stats().malformed_packets, 1u);
  ASSERT_EQ(sync_collector.stats().duplicate_packets, 1u);
  ASSERT_EQ(sync_unknown, 1u);

  const auto stats = pipe.stats();
  EXPECT_EQ(stats.decode.waves, prelude_waves + 1);  // one mixed wave
  EXPECT_EQ(stats.datagrams, prelude.size() + mixed.size());
  EXPECT_EQ(stats.malformed_datagrams, 1u);
  EXPECT_EQ(stats.unknown_version, 1u);
  EXPECT_EQ(stats.flows_decoded, sync_rows);  // the duplicate was dropped
  EXPECT_EQ(stats.observations, stats.flows_decoded);
  EXPECT_TRUE(pipe.self_check().ok);
  EXPECT_EQ(pipe.detector().stats().flows, sync_det.stats().flows);
  const auto evidence = evidence_snapshot(pipe.detector());
  EXPECT_FALSE(evidence.empty());
  EXPECT_EQ(evidence, evidence_snapshot(sync_det));

  if constexpr (!obs::kStripped) {
    // decode_batch_ns_per_record divides a wave's decode time by the rows
    // that wave decoded. Dividing by the batch's size summed after every
    // datagram instead would read about 25x low on the mixed wave, so the
    // mixed wave's sample must stay within 3x of an isolated decode of
    // the same datagrams (log2 buckets: compare the bucket's upper bound).
    const auto hist_after = decode_hist->snapshot();
    ASSERT_EQ(hist_after.count - hist_before.count, 1u);  // the mixed wave
    unsigned bucket = 0;
    while (hist_after.buckets[bucket] == hist_before.buckets[bucket]) {
      ++bucket;
    }
    double isolated_ns = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      flow::nf9::Collector collector{
          flow::nf9::CollectorConfig{.dedup_window = icfg.dedup_window}};
      flow::FlowBatch rows;
      for (const auto& [hour, bytes] : prelude) {
        (void)collector.ingest_batch(bytes, rows);
      }
      rows.clear();
      std::uint64_t ns = 0;
      for (const auto& [hour, bytes] : mixed) {
        if (bytes[1] != 9) continue;
        const auto t0 = std::chrono::steady_clock::now();
        (void)collector.ingest_batch(bytes, rows);
        ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
      ASSERT_GT(rows.size(), 0u);
      isolated_ns = std::min(isolated_ns, static_cast<double>(ns) /
                                              static_cast<double>(rows.size()));
    }
    EXPECT_GE(3.0 * static_cast<double>(obs::Histogram::upper_bound(bucket)),
              isolated_ns)
        << "decode_batch_ns_per_record is not per record";
  }
}

TEST_F(PipelineTest, StreamingNormalizeBacklogBoundedInRows) {
  // A normalize item carries one decode wave's rows, so the normalize
  // queue's capacity is derived: the datagrams' worth of rows it can
  // buffer stays within queue_capacity, as when each item was one
  // datagram.
  for (const auto& [queue, wave] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 64}, {8, 4}, {8, 64}, {100, 64}, {1024, 64}}) {
    pipeline::IngestConfig cfg;
    cfg.shards = 1;
    cfg.queue_capacity = queue;
    cfg.max_wave = wave;
    pipeline::IngestPipeline pipe{rules_->hitlist, *rules_, cfg};
    const std::size_t capacity = pipe.stats().normalize.capacity;
    EXPECT_GE(capacity, 1u);
    EXPECT_LE(capacity * std::min(queue, wave), queue)
        << "queue " << queue << " wave " << wave;
  }

  // With the normalize worker stalled, a producer pushing far more than
  // fits must be held back once the normalize queue, the decode worker's
  // wave and the decode queue are full. Decoded rows then sit in the
  // normalize worker's claimed wave and in its queue (at most
  // queue_capacity datagrams' worth each) and in the decode worker's hand
  // (one wave). The bound is in rows: datagrams that decode to no rows
  // (templates, options) take no normalize item.
  constexpr std::uint64_t kKey = 0x5eed;
  telemetry::BorderFleetConfig fcfg;
  fcfg.routers = 3;
  fcfg.sampling = 200;
  telemetry::BorderRouterFleet fleet{fcfg};
  std::vector<std::pair<util::HourBin, std::vector<std::uint8_t>>> stream;
  for (util::HourBin h = 24; h < 28; ++h) {
    for (auto& d : fleet.export_hour(hour_records(*gt_, h), h)) {
      stream.emplace_back(h, std::move(d));
    }
  }
  pipeline::IngestConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 8;
  cfg.max_wave = 4;
  cfg.anonymization_key = kKey;
  GatedNormalizer gate{kKey};
  pipeline::IngestPipeline pipe{rules_->hitlist, *rules_, cfg,
                                gate.normalizer()};
  OpenOnExit open_on_exit{gate};
  const std::size_t capacity = pipe.stats().normalize.capacity;
  ASSERT_EQ(capacity, 2u);
  ASSERT_GE(stream.size(), 100u);
  std::size_t max_rows = 0;  // per datagram
  {
    flow::nf9::Collector collector{
        flow::nf9::CollectorConfig{.dedup_window = cfg.dedup_window}};
    for (const auto& [hour, bytes] : stream) {
      std::vector<flow::FlowRecord> decoded;
      (void)collector.ingest(bytes, decoded);
      max_rows = std::max(max_rows, decoded.size());
    }
  }
  ASSERT_GT(max_rows, 0u);

  std::thread producer{[&] {
    for (auto& [hour, bytes] : stream) {
      if (!pipe.push_datagram(std::move(bytes), hour)) return;
    }
  }};
  const bool held = eventually([&] {
    const auto s = pipe.stats();
    return s.normalize.producer_stalls >= 1 &&
           s.decode.depth == cfg.queue_capacity;
  });
  const auto s = pipe.stats();
  gate.open();
  producer.join();
  ASSERT_TRUE(held);
  EXPECT_LE(s.normalize.max_depth, capacity);
  EXPECT_LE(s.flows_decoded - s.observations,
            (2 * cfg.queue_capacity + cfg.max_wave) * max_rows)
      << "20 datagrams' worth, of 100+ pushed";

  pipe.shutdown();
  const auto done = pipe.stats();
  EXPECT_EQ(done.datagrams, stream.size());
  EXPECT_EQ(done.observations, done.flows_decoded);
  EXPECT_TRUE(pipe.self_check().ok);
}

TEST_F(PipelineTest, MeteringStageEnforcesCacheBound) {
  // FlowCache::max_entries driven from the streaming metering stage: the
  // resident-flow high-water mark must respect the bound while every
  // packet is conserved into exactly one exported flow.
  pipeline::IngestConfig cfg;
  cfg.shards = 2;
  cfg.metering.max_entries = 64;
  cfg.metering.active_timeout_ms = 3'600'000;  // only the bound can expire
  cfg.metering.idle_timeout_ms = 3'600'000;
  pipeline::IngestPipeline pipe{rules_->hitlist, *rules_, cfg};

  constexpr std::uint64_t kPackets = 5000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    flow::PacketEvent pkt;
    pkt.key.src = net::IpAddress::v4(0x0a000001u);
    pkt.key.dst =
        net::IpAddress::v4(0xC0A80000u + static_cast<std::uint32_t>(i % 97));
    pkt.key.src_port = static_cast<std::uint16_t>(i);  // distinct keys
    pkt.key.dst_port = 443;
    pkt.bytes = 64;
    pkt.timestamp_ms = 1000 + i;
    ASSERT_TRUE(pipe.push_packet(pkt, /*hour=*/0));
  }
  pipe.shutdown();

  const auto stats = pipe.stats();
  EXPECT_EQ(stats.packets_metered, kPackets);
  EXPECT_GT(stats.metering_high_water, 0u);
  EXPECT_LE(stats.metering_high_water, cfg.metering.max_entries);
  EXPECT_EQ(stats.metered_flows, kPackets);        // one flow per key
  EXPECT_EQ(stats.metered_packets_out, kPackets);  // conservation
  EXPECT_EQ(stats.metering_depth, 0u);             // flushed at shutdown
  EXPECT_EQ(stats.observations, kPackets);
  EXPECT_EQ(pipe.detector().stats().flows, kPackets);
}

}  // namespace
}  // namespace haystack
