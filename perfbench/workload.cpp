#include "workload.hpp"

#include <chrono>

#include "flow/ipfix.hpp"
#include "simnet/manual_analysis.hpp"
#include "telemetry/anonymize.hpp"
#include "telemetry/border_fleet.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint32_t export_secs(util::HourBin hour) {
  return 1574000000U + hour * 3600U;
}

/// Random address of the same family as `like`.
net::IpAddress random_address(util::Pcg32& rng, const net::IpAddress& like) {
  if (like.is_v4()) return net::IpAddress::v4(rng());
  const std::uint64_t hi = (std::uint64_t{0x20010db8} << 32) | rng();
  const std::uint64_t lo = (std::uint64_t{rng()} << 32) | rng();
  return net::IpAddress::v6(hi, lo);
}

/// Haystack filler: `count` flows from the needle's subscriber to
/// destinations the hitlist does not cover (drawn again on a hit).
void add_background(util::Pcg32& rng, const core::Hitlist& hitlist,
                    const flow::FlowRecord& needle, util::HourBin hour,
                    unsigned count, std::vector<flow::FlowRecord>& out) {
  static constexpr std::uint16_t kPorts[] = {443, 80, 8080, 8443,
                                             53,  123, 5223, 1935};
  const util::DayBin day = util::day_of(hour);
  for (unsigned i = 0; i < count; ++i) {
    flow::FlowRecord rec = needle;
    do {
      rec.key.dst = random_address(rng, needle.key.src);
      rec.key.dst_port = kPorts[rng.bounded(8)];
    } while (hitlist.lookup(rec.key.dst, rec.key.dst_port, day));
    rec.key.src_port = static_cast<std::uint16_t>(32768 + rng.bounded(28000));
    rec.key.proto = rec.key.dst_port == 53 || rec.key.dst_port == 123 ? 17 : 6;
    rec.packets = 1 + rng.bounded(4);
    rec.bytes = rec.packets * (60 + rng.bounded(1400));
    out.push_back(rec);
  }
}

/// Routes each record to one of the IPFIX exporters by destination (the
/// fleet's routing rule) and encodes the hour.
std::vector<std::vector<std::uint8_t>> export_ipfix(
    std::vector<flow::ipfix::Exporter>& exporters,
    const std::vector<flow::FlowRecord>& records, util::HourBin hour) {
  std::vector<std::vector<flow::FlowRecord>> per(exporters.size());
  for (const auto& rec : records) {
    per[rec.key.dst.hash() % exporters.size()].push_back(rec);
  }
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t e = 0; e < exporters.size(); ++e) {
    if (per[e].empty()) continue;
    for (auto& msg : exporters[e].export_flows(per[e], export_secs(hour))) {
      out.push_back(std::move(msg));
    }
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  // Window and sizes: four overnight hours keep each replay short enough
  // that a run closes well over 100 hours (so p90 of hour close has ten
  // samples beyond it) while the encoded input stays under ~80 MB.
  static const std::vector<WorkloadSpec> specs = {
      {"isp-v9", Kind::kIspV9, 80'000, 0, 4, true},
      // A tenth of the lines, each needle joined by nine background flows:
      // flows per hour close to isp-v9's.
      {"haystack-ipfix", Kind::kHaystackIpfix, 8'000, 0, 4, false},
      {"spoof-flood", Kind::kSpoofFlood, 80'000, 0, 4, false},
      // Above the population's 64-block x 4096-line cache (262 144 lines),
      // so every hour regenerates ownership blocks.
      {"isp-study", Kind::kIspStudy, 300'000, 0, 4, false},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : all_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

// The seed drives the backend (server addresses, hence the hitlist) and the
// hour-by-hour traffic draws. The subscriber population and the per-domain
// rate model stay fixed, as the figure benches keep them: they set how
// many lines own which devices, and letting them vary with the seed moves
// evidence-map size by +-15 %, which would swamp the run-to-run spread.
World::World(std::uint64_t seed, std::uint32_t lines)
    : backend{catalog, simnet::BackendConfig{.seed = seed}},
      rules{simnet::build_ruleset(backend)},
      rates{catalog, 7},
      population{catalog, simnet::PopulationConfig{.seed = 99, .lines = lines}},
      wild{backend, population, rates, simnet::WildIspConfig{.seed = seed}} {}

WireInput make_wire_input(const WorkloadSpec& spec, std::uint64_t seed) {
  World world{seed, spec.lines};
  WireInput in;
  core::Detector reference{world.rules.hitlist, world.rules,
                           {.threshold = kThreshold}};
  // The wild sim already samples, so the fleet exports 1:1 over clean
  // links, as pipeline::replay_scenario_streaming does.
  telemetry::BorderFleetConfig fleet_config;
  fleet_config.seed = seed;
  fleet_config.routers = kExporters;
  fleet_config.sampling = 1;
  telemetry::BorderRouterFleet fleet{fleet_config};
  std::vector<flow::ipfix::Exporter> ipfix;
  for (unsigned e = 0; e < kExporters; ++e) {
    ipfix.emplace_back(flow::ipfix::ExporterConfig{.observation_domain = e + 1});
  }
  util::Pcg32 rng{util::splitmix64(seed ^ 0x5eed), 0x77};

  std::vector<flow::FlowRecord> generated;
  std::vector<flow::FlowRecord> records;
  for (unsigned i = 0; i < spec.hours; ++i) {
    const util::HourBin h = spec.first_hour + i;
    generated.clear();
    auto t0 = std::chrono::steady_clock::now();
    world.wild.hour_observations(
        h, [&](const simnet::WildObs& o) { generated.push_back(o.flow); });
    in.generate_s += seconds_since(t0);
    in.generated_flows += generated.size();

    records.clear();
    for (const auto& rec : generated) {
      records.push_back(rec);
      if (spec.kind == Kind::kSpoofFlood) {
        flow::FlowRecord spoofed = rec;
        spoofed.key.src = random_address(rng, rec.key.src);
        records.push_back(spoofed);
      } else if (spec.kind == Kind::kHaystackIpfix) {
        add_background(rng, world.rules.hitlist, rec, h, 9, records);
      }
    }

    t0 = std::chrono::steady_clock::now();
    auto datagrams = spec.kind == Kind::kHaystackIpfix
                         ? export_ipfix(ipfix, records, h)
                         : fleet.export_hour(records, h);
    in.encode_s += seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    for (const auto& rec : records) {
      (void)reference.observe(telemetry::anonymize(rec.key.src, kAnonKey),
                              rec.key.dst, rec.key.dst_port, rec.packets, h);
    }
    in.observe_s += seconds_since(t0);

    for (const auto& d : datagrams) in.wire_bytes += d.size();
    in.datagram_count += datagrams.size();
    in.flows += records.size();
    in.hour_flows.push_back(records.size());
    in.hours.push_back(h);
    in.datagrams.push_back(std::move(datagrams));
  }
  in.expected = digest_of(reference);
  in.expected_stats = reference.stats();
  in.population_mib =
      static_cast<double>(world.population.memory_bytes()) / (1 << 20);
  return in;
}

WireInput make_study_wire_input(const WorkloadSpec& spec, std::uint64_t seed) {
  WorkloadSpec one = spec;
  one.kind = Kind::kIspV9;
  one.hours = 1;
  return make_wire_input(one, seed);
}

}  // namespace perfbench
