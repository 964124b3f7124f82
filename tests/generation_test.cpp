// Wild-ISP generation suite (`ctest -L scale`).
//
// WildIspSim::hour_observations may generate population blocks on worker
// threads, but its sink sees one fixed sequence on the calling thread.
// This suite pins that sequence:
//
//   - golden digests over every WildObs field, in emission order, for a
//     six-block population whose 2-block resident prefix leaves four
//     blocks rebuilt on every use,
//     a one-block population and a zero-line population, over hours 22-25
//     (a day boundary, so addresses and backend IPs roll over). The
//     constants were recorded from the single-threaded generator;
//   - the device_active / device_heavy draws, bit for bit;
//   - a sink that throws mid-hour: the exception reaches the caller, no
//     worker is left running, and the next call yields the golden sequence;
//   - a sink that reads the population and the session draws on the
//     calling thread while blocks are being built.
//
// Its own binary with a ctest timeout, so a generator that deadlocks fails
// instead of hanging the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "simnet/backend.hpp"
#include "simnet/catalog.hpp"
#include "simnet/population.hpp"
#include "simnet/rates.hpp"
#include "simnet/wild_isp.hpp"
#include "util/hash.hpp"

namespace haystack {
namespace {

constexpr util::HourBin kFirstHour = 22;
constexpr util::HourBin kLastHour = 25;

/// Six 4096-line blocks, the last one partial.
constexpr std::uint32_t kMultiBlockLines = 6 * 4096 - 1000;

struct World {
  World(std::uint32_t lines, std::uint32_t cache_blocks)
      : population{catalog, {.lines = lines, .cache_blocks = cache_blocks}},
        wild{backend, population, rates, simnet::WildIspConfig{}} {}

  simnet::Catalog catalog;
  simnet::Backend backend{catalog, simnet::BackendConfig{}};
  simnet::DomainRateModel rates{catalog, 7};
  simnet::Population population;
  simnet::WildIspSim wild;
};

/// Order-sensitive digest of a value stream.
struct Digest {
  std::uint64_t hash = 0;
  std::uint64_t count = 0;

  void add(std::uint64_t v) {
    hash = util::hash_combine(hash, util::fnv1a_u64(v));
  }
  void add(const simnet::WildObs& o) {
    add(o.line);
    add(o.subscriber.hash());
    add(o.unit);
    add(o.domain_index);
    const flow::FlowRecord& r = o.flow;
    add(r.key.src.hash());
    add(r.key.dst.hash());
    add(r.key.src_port);
    add(r.key.dst_port);
    add(r.key.proto);
    add(r.packets);
    add(r.bytes);
    add(r.tcp_flags);
    add(r.start_ms);
    add(r.end_ms);
    add(r.sampling);
    ++count;
  }
};

Digest sequence_digest(const simnet::WildIspSim& wild) {
  Digest d;
  for (util::HourBin h = kFirstHour; h <= kLastHour; ++h) {
    wild.hour_observations(h, [&d](const simnet::WildObs& o) { d.add(o); });
  }
  return d;
}

struct Golden {
  std::uint32_t lines;
  std::uint32_t cache_blocks;
  std::uint64_t hash;
  std::uint64_t count;
};

const Golden kMultiBlock{kMultiBlockLines, 2, 0xfab41794c9494468, 248'156};
const Golden kOneBlock{3'000, 64, 0x452ebe48a5505cd7, 30'337};
const Golden kNoLines{0, 64, 0x0, 0};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << g.lines << " lines, " << g.cache_blocks << " cache blocks";
}

class GoldenSequence : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenSequence, EveryFieldInOrder) {
  const Golden& g = GetParam();
  const World world{g.lines, g.cache_blocks};
  const Digest d = sequence_digest(world.wild);
  EXPECT_EQ(d.count, g.count);
  EXPECT_EQ(d.hash, g.hash) << std::hex << "0x" << d.hash;
  // A second pass over warm (or, past a 2-block prefix, rebuilt) blocks.
  const Digest again = sequence_digest(world.wild);
  EXPECT_EQ(again.count, d.count);
  EXPECT_EQ(again.hash, d.hash);
}

INSTANTIATE_TEST_SUITE_P(
    Populations, GoldenSequence,
    ::testing::Values(kMultiBlock, kOneBlock, kNoLines),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return "Lines" + std::to_string(info.param.lines) + "Cache" +
             std::to_string(info.param.cache_blocks);
    });

TEST(GenerationSessions, ActiveAndHeavyDrawsBitForBit) {
  const World world{kMultiBlockLines, 2};
  Digest d;
  for (simnet::LineId line = 0; line < kMultiBlockLines; line += 7) {
    const auto devices = world.population.devices_of(line).size();
    // One index past the end: the wrappers answer false there.
    for (std::uint32_t di = 0; di <= devices; ++di) {
      for (util::HourBin h = kFirstHour; h <= kLastHour; ++h) {
        d.add(world.wild.device_active(line, di, h) ? 1 : 0);
        d.add(world.wild.device_heavy(line, di, h) ? 1 : 0);
        ++d.count;
      }
    }
  }
  EXPECT_EQ(d.count, 18'676u);
  EXPECT_EQ(d.hash, 0x16e2548d406fc179u) << std::hex << "0x" << d.hash;
}

struct SinkStop : std::runtime_error {
  SinkStop() : std::runtime_error{"sink stop"} {}
};

TEST(GenerationRobustness, ThrowingSinkReachesCallerAndLeavesNoWorker) {
  const World world{kMultiBlockLines, 2};
  // First observation, mid-hour (past the first blocks), and the hour's
  // last observation.
  std::uint64_t hour_flows = 0;
  world.wild.hour_observations(23, [&](const simnet::WildObs&) {
    ++hour_flows;
  });
  ASSERT_GT(hour_flows, 20'000u);
  for (const std::uint64_t stop_at : {std::uint64_t{1}, std::uint64_t{20'000},
                                      hour_flows}) {
    std::uint64_t seen = 0;
    EXPECT_THROW(world.wild.hour_observations(
                     23,
                     [&](const simnet::WildObs&) {
                       if (++seen == stop_at) throw SinkStop{};
                     }),
                 SinkStop);
    EXPECT_EQ(seen, stop_at);
    const Digest d = sequence_digest(world.wild);
    EXPECT_EQ(d.count, kMultiBlock.count) << "after stop at " << stop_at;
    EXPECT_EQ(d.hash, kMultiBlock.hash) << "after stop at " << stop_at;
  }
}

TEST(GenerationRobustness, SinkReadsPopulationWhileBlocksBuild) {
  const World world{kMultiBlockLines, 2};
  // Lookups share the 2-block resident prefix with the generator; blocks
  // past it are built per use, on this thread and on the workers.
  struct Read {
    simnet::LineId line;
    util::HourBin hour;
  };
  std::vector<Read> read_log;
  Digest reads;
  Digest seq;
  const auto read = [&world](Digest& d, simnet::LineId line,
                             util::HourBin hour) {
    const auto devices = world.population.devices_of(line);
    d.add(devices.size());
    d.add(devices.empty() ? ~0u : devices.front().unit);
    d.add(world.wild.device_active(line, 0, hour) ? 1 : 0);
  };
  for (util::HourBin h = kFirstHour; h <= kLastHour; ++h) {
    world.wild.hour_observations(h, [&](const simnet::WildObs& o) {
      seq.add(o);
      read(reads, o.line, h);
      read_log.push_back({o.line, h});
    });
  }
  EXPECT_EQ(seq.count, kMultiBlock.count);
  EXPECT_EQ(seq.hash, kMultiBlock.hash);

  // The same reads with no generation running.
  Digest quiet;
  for (const Read& r : read_log) read(quiet, r.line, r.hour);
  EXPECT_EQ(reads.hash, quiet.hash);
}

}  // namespace
}  // namespace haystack
