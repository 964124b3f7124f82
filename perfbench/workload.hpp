// Workload definitions and input generation for the wire-to-verdict
// benchmark. Everything here runs during set-up, outside every timed
// region: the simulated world, each workload's flows, their wire encoding,
// and the reference evidence digest the replays are checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/detector.hpp"
#include "core/rules.hpp"
#include "core/sharded_detector.hpp"
#include "simnet/backend.hpp"
#include "simnet/catalog.hpp"
#include "simnet/population.hpp"
#include "simnet/rates.hpp"
#include "simnet/wild_isp.hpp"
#include "util/sim_clock.hpp"

namespace perfbench {

using namespace haystack;

enum class Kind { kIspV9, kHaystackIpfix, kSpoofFlood, kIspStudy };

/// One workload's fixed shape. The seed varies the world, never the shape.
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kIspV9;
  std::uint32_t lines = 0;         ///< wild-ISP population
  util::HourBin first_hour = 0;    ///< replayed window [first, first+hours)
  unsigned hours = 0;
  bool query_thread = false;       ///< open-loop ControlPlane reader
  [[nodiscard]] bool wire() const { return kind != Kind::kIspStudy; }
};

/// Looks a workload up by name; nullptr when unknown.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
[[nodiscard]] const std::vector<WorkloadSpec>& all_workloads();

/// The simulated world: catalog, backend, rules and wild-ISP generator,
/// all derived from one seed. Members reference each other, so a World is
/// built in place and never moved.
struct World {
  World(std::uint64_t seed, std::uint32_t lines);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  simnet::Catalog catalog;
  simnet::Backend backend;
  core::RuleSet rules;
  simnet::DomainRateModel rates;
  simnet::Population population;
  simnet::WildIspSim wild;
};

/// Anonymization key the pipeline's stock normalizer uses.
inline constexpr std::uint64_t kAnonKey = 0x68617973;
inline constexpr unsigned kExporters = 4;
inline constexpr unsigned kShards = 2;
inline constexpr double kThreshold = 0.4;

/// Folds every evidence row of a detector into an order-independent digest.
template <typename DetectorT>
[[nodiscard]] Digest digest_of(const DetectorT& detector) {
  Digest d;
  detector.for_each_evidence([&](core::SubscriberKey s, core::ServiceId sv,
                                 const core::Evidence& ev) {
    d.add({s, sv, ev.mask(0), ev.mask(1), ev.packets(), ev.first_seen(),
           ev.satisfied_hour()});
  });
  return d;
}

/// A wire workload's replayable input: per-hour export datagrams plus the
/// reference results of a synchronous core::Detector fed the same
/// normalized flows.
struct WireInput {
  std::vector<util::HourBin> hours;
  std::vector<std::vector<std::vector<std::uint8_t>>> datagrams;  ///< [hour]
  std::vector<std::uint64_t> hour_flows;                          ///< [hour]
  std::uint64_t flows = 0;
  std::uint64_t datagram_count = 0;
  std::uint64_t wire_bytes = 0;
  Digest expected;
  core::Detector::Stats expected_stats;

  // Set-up timings, reported as layer costs by the traced run.
  double generate_s = 0;   ///< WildIspSim::hour_observations into vectors
  std::uint64_t generated_flows = 0;
  double encode_s = 0;     ///< exporter encode of every flow
  double observe_s = 0;    ///< core::Detector::observe of every flow
  double population_mib = 0;
};

/// Generates and encodes the workload's hours from `seed`.
[[nodiscard]] WireInput make_wire_input(const WorkloadSpec& spec,
                                        std::uint64_t seed);

/// Study-form input for the wire layers: the study's first hour exported
/// as NetFlow v9, so the traced run can price the wire layers on the
/// study's population too.
[[nodiscard]] WireInput make_study_wire_input(const WorkloadSpec& spec,
                                              std::uint64_t seed);

}  // namespace perfbench
