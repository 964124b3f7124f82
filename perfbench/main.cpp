// Wire-to-verdict benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <id>] [--trace-out <file>]
//
// Generates the workload from the seed during set-up, replays it through
// the library's public entry points for the given number of seconds,
// checks the result, and prints one JSON result as its last line of
// output. A failed check exits 1 and prints no result. See README.md for
// the workloads and every metric.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/checkpoint.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "pipeline/ingest.hpp"
#include "telemetry/anonymize.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double rss_mib() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

/// Live heap: bytes malloc has handed out and not had back, over every
/// arena, plus its mmap-served blocks. Unlike the resident set it does not
/// depend on which freed pages the allocator kept from earlier replays.
double heap_mib() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
}

/// CPU time the hypervisor gave to other guests ("steal") across every
/// CPU of this machine, in seconds since boot.
double steal_seconds() {
  std::ifstream in{"/proc/stat"};
  std::string cpu;
  unsigned long long v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double med(const std::vector<double>& v) { return median(v).value_or(0.0); }


/// Correctness state shared by every part of a run. Any error fails the
/// run: it exits non-zero and reports no numbers.
struct Checks {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t counter_mismatches = 0;
  void expect(bool ok, const std::string& what) {
    if (!ok && errors.size() < 20) errors.push_back(what);
  }
};

/// Samples of one run, one entry per replay or per event.
struct Samples {
  // End to end.
  std::vector<double> setup_s;
  std::vector<double> flows_per_s;
  std::vector<double> close_ms;
  std::vector<double> last_close_ms;  ///< each replay's last hour close
  std::vector<double> restart_ms;
  std::vector<double> rss_growth_mib;
  std::vector<double> heap_growth_mib;
  std::vector<char> replay_clean;  ///< per replay: see ReplayGuard
  std::vector<double> query_live_us;
  std::vector<double> query_fresh_ms;
  std::vector<double> query_lateness_ms;
  // Traced replays only.
  std::vector<double> traced_flows_per_s;
  std::vector<double> untraced_flows_per_s;
  std::uint64_t traced_flows = 0;
  double push_ns = 0;
  double cpu_s = 0;
  std::vector<double> drain_ms;
  std::vector<double> snapshot_ns;
  std::vector<double> fresh_snapshot_us;
  std::vector<double> registry_decode_ns;
  std::map<std::string, std::vector<double>> stage;
};

/// Share of the machine's CPU time the hypervisor may take from a replay
/// before the replay is left out of the medians.
constexpr double kMaxSteal = 0.05;

/// Marks a replay clean or not when it goes out of scope. A replay is not
/// clean when it is the run's first (it warms the process up: first-touch
/// heap, cold caches) or when steal took more than kMaxSteal of the
/// machine's CPU time while it ran (it then measured the neighbours).
class ReplayGuard {
 public:
  explicit ReplayGuard(Samples& s)
      : s_{s}, steal0_{steal_seconds()}, t0_{Clock::now()} {}
  ~ReplayGuard() {
    const double cpu_time =
        since(t0_) * std::max(1u, std::thread::hardware_concurrency());
    const double share = (steal_seconds() - steal0_) / cpu_time;
    s_.replay_clean.push_back(!s_.replay_clean.empty() && share <= kMaxSteal);
  }
  ReplayGuard(const ReplayGuard&) = delete;
  ReplayGuard& operator=(const ReplayGuard&) = delete;

 private:
  Samples& s_;
  double steal0_;
  Clock::time_point t0_;
};

/// Median of a per-replay sample over the clean replays, or over every
/// replay when fewer than half (or fewer than three) are clean.
double replay_median(const std::vector<double>& v,
                     const std::vector<char>& clean) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < v.size() && i < clean.size(); ++i) {
    if (clean[i]) kept.push_back(v[i]);
  }
  return kept.size() >= 3 && 2 * kept.size() >= v.size() ? med(kept) : med(v);
}

// --- registry agreement ----------------------------------------------------

std::uint64_t registry_sum(const std::vector<obs::MetricRegistry::Sample>& all,
                           const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& s : all) {
    if (s.name != name) continue;
    total += s.kind == obs::MetricKind::kGauge
                 ? static_cast<std::uint64_t>(s.gauge)
                 : s.counter;
  }
  return total;
}

/// Compares the registry's flow and observation counters with the
/// benchmark's own counts; each disagreement is one mismatch.
void check_registry(const obs::MetricRegistry& registry, const WireInput& in,
                    Checks& checks) {
  const auto all = registry.snapshot();
  const struct {
    const char* name;
    std::uint64_t want;
  } expected[] = {
      {"pipeline_datagrams_total", in.datagram_count},
      {"pipeline_flows_decoded_total", in.flows},
      {"pipeline_observations_total", in.flows},
      {"detector_flows_total", in.flows},
      {"detector_matched_total", in.expected_stats.matched},
      {"signature_lookups_total", in.flows},
      {"signature_hits_total", in.expected_stats.matched},
  };
  for (const auto& e : expected) {
    const std::uint64_t got = registry_sum(all, e.name);
    if (got != e.want) {
      ++checks.counter_mismatches;
      checks.expect(false, std::string{"registry "} + e.name + " = " +
                               std::to_string(got) + ", benchmark counted " +
                               std::to_string(e.want));
    }
  }
}

std::optional<double> registry_decode_median(const obs::MetricRegistry& reg) {
  for (const auto& s : reg.snapshot()) {
    if (s.name == "decode_batch_ns_per_record" && s.hist.count > 0) {
      return static_cast<double>(obs::histogram_quantile(s.hist, 0.5));
    }
  }
  return std::nullopt;
}

// --- open-loop query thread ------------------------------------------------

constexpr double kQueryInterval = 1.0 / 200.0;  // 200 q/s
constexpr std::size_t kFreshEvery = 10;

/// What the query thread measured; merged into the run after it joins.
struct QueryOut {
  std::vector<double> live_us;
  std::vector<double> fresh_ms;
  std::vector<double> lateness_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void query_loop(const serve::ControlPlane& control, const std::atomic<bool>& stop,
                Clock::time_point t0, Tracer* tracer, std::uint32_t parent,
                QueryOut& out) {
  OpenLoop loop{kQueryInterval};
  for (std::size_t i = 0;; ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(loop.due(i)));
    std::this_thread::sleep_until(due);
    if (stop.load(std::memory_order_acquire)) break;
    const bool fresh = i % kFreshEvery == kFreshEvery - 1;
    const auto begin = Clock::now();
    {
      Scope span{tracer, fresh ? "query_fresh" : "query_live", parent};
      const auto snap = fresh ? control.fresh_snapshot() : control.snapshot();
      ++out.attempted;
      if (snap.shards() != kShards) ++out.failed;
    }
    const auto end = Clock::now();
    loop.record(i, std::chrono::duration<double>(begin - t0).count(),
                std::chrono::duration<double>(end - t0).count());
    const double latency = loop.latency_s().back();
    if (fresh) {
      out.fresh_ms.push_back(latency * 1e3);
    } else {
      out.live_us.push_back(latency * 1e6);
    }
    out.lateness_ms.push_back(loop.lateness_s().back() * 1e3);
  }
}

// --- wire replay -----------------------------------------------------------

pipeline::IngestConfig ingest_config() {
  pipeline::IngestConfig cfg;  // default queue capacity and wave size
  cfg.shards = kShards;
  cfg.detector.threshold = kThreshold;
  cfg.anonymization_key = kAnonKey;
  return cfg;
}

/// One replay of the encoded hours through a freshly built pipeline: the
/// production path from push_datagram to a fresh snapshot at every hour
/// close, then a checkpoint restart.
void replay_wire(const WorkloadSpec& spec, std::uint64_t seed,
                 const WireInput& in, bool query_thread, Tracer* tracer,
                 Samples& s, Checks& checks) {
  const ReplayGuard guard{s};
  // Memory is taken before the input copy and again at the end, once the
  // pipeline has consumed the copy: the growth is what the pipeline holds,
  // not the replayed input. Freed heap is returned to the system first so
  // the resident set reflects live memory as far as the allocator allows.
  malloc_trim(0);
  const double rss0 = rss_mib();
  const double heap0 = heap_mib();
  // push_datagram consumes its buffer; copy the input outside the timing.
  auto datagrams = in.datagrams;
  Scope replay_span{tracer, "replay"};

  const auto t_setup = Clock::now();
  auto world = std::make_unique<World>(seed, spec.lines);
  auto pipe = std::make_unique<pipeline::IngestPipeline>(
      world->rules.hitlist, world->rules, ingest_config());
  s.setup_s.push_back(since(t_setup));
  const double cpu0 = cpu_seconds();

  std::atomic<bool> stop{false};
  QueryOut queries;
  std::thread reader;
  const auto start = Clock::now();
  if (query_thread) {
    const std::uint32_t parent = tracer != nullptr ? tracer->current() : 0;
    reader = std::thread{[&, parent] {
      query_loop(pipe->control(), stop, start, tracer, parent, queries);
    }};
  }

  std::uint64_t push_ns = 0;
  std::uint64_t pushed_flows = 0;
  std::uint64_t rejected = 0;
  for (std::size_t hi = 0; hi < in.hours.size(); ++hi) {
    const util::HourBin hour = in.hours[hi];
    {
      Scope push_span{tracer, "push_hour"};
      for (auto& d : datagrams[hi]) {
        bool ok = false;
        if (tracer != nullptr) {
          Scope span{tracer, "push_datagram"};
          const std::uint64_t t = Tracer::now_ns();
          ok = pipe->push_datagram(std::move(d), hour);
          push_ns += Tracer::now_ns() - t;
        } else {
          ok = pipe->push_datagram(std::move(d), hour);
        }
        rejected += ok ? 0 : 1;
      }
    }
    pushed_flows += in.hour_flows[hi];
    const auto t_last = Clock::now();
    std::optional<serve::DetectionSnapshot> snap;
    {
      Scope close_span{tracer, "hour_close"};
      {
        Scope span{tracer, "drain"};
        pipe->drain();
      }
      const auto t_drained = Clock::now();
      {
        Scope span{tracer, "fresh_snapshot"};
        snap.emplace(pipe->control().fresh_snapshot());
      }
      if (tracer != nullptr) {
        s.drain_ms.push_back(
            std::chrono::duration<double>(t_drained - t_last).count() * 1e3);
        s.fresh_snapshot_us.push_back(since(t_drained) * 1e6);
      }
    }
    s.close_ms.push_back(since(t_last) * 1e3);
    ++checks.attempted;
    checks.expect(snap->stats().flows == pushed_flows,
                  "hour-close snapshot misses flows: " +
                      std::to_string(snap->stats().flows) + " of " +
                      std::to_string(pushed_flows));
    if (tracer != nullptr) {
      Scope span{tracer, "snapshot"};
      const std::uint64_t t = Tracer::now_ns();
      const auto live = pipe->control().snapshot();
      s.snapshot_ns.push_back(static_cast<double>(Tracer::now_ns() - t));
      checks.expect(live.shards() == kShards, "live snapshot shard count");
    }
  }
  const double elapsed = since(start);
  stop.store(true, std::memory_order_release);
  s.last_close_ms.push_back(s.close_ms.back());
  if (reader.joinable()) reader.join();
  s.query_live_us.insert(s.query_live_us.end(), queries.live_us.begin(),
                         queries.live_us.end());
  s.query_fresh_ms.insert(s.query_fresh_ms.end(), queries.fresh_ms.begin(),
                          queries.fresh_ms.end());
  s.query_lateness_ms.insert(s.query_lateness_ms.end(),
                             queries.lateness_ms.begin(),
                             queries.lateness_ms.end());
  checks.attempted += queries.attempted;
  checks.failed += queries.failed;
  checks.expect(queries.failed == 0,
                "query failures: " + std::to_string(queries.failed));
  const double flows_per_s = static_cast<double>(in.flows) / elapsed;
  s.flows_per_s.push_back(flows_per_s);
  const double cpu1 = cpu_seconds();
  datagrams = {};  // only the emptied per-datagram vectors remain
  malloc_trim(0);
  s.rss_growth_mib.push_back(rss_mib() - rss0);
  s.heap_growth_mib.push_back(heap_mib() - heap0);
  if (tracer != nullptr) {
    s.cpu_s += cpu1 - cpu0;
    s.push_ns += static_cast<double>(push_ns);
    s.traced_flows += in.flows;
    s.traced_flows_per_s.push_back(flows_per_s);
  } else {
    s.untraced_flows_per_s.push_back(flows_per_s);
  }

  // Checks, outside the timed region.
  const auto stats = pipe->stats();
  checks.attempted += in.datagram_count;
  checks.failed += rejected + stats.malformed_datagrams + stats.unknown_version;
  checks.expect(rejected == 0, "push_datagram refused datagrams");
  checks.expect(stats.malformed_datagrams == 0 && stats.unknown_version == 0,
                "malformed or unknown-version datagrams");
  const auto self = pipe->self_check();
  checks.expect(self.ok, "pipeline self_check: " + self.detail);
  const Digest got = digest_of(pipe->detector());
  checks.expect(got == in.expected,
                "evidence digest " + got.hex() + " (" +
                    std::to_string(got.rows()) + " rows) != reference " +
                    in.expected.hex() + " (" +
                    std::to_string(in.expected.rows()) + " rows)");
  check_registry(pipe->observability().registry, in, checks);
  if (tracer != nullptr) {
    if (auto r = registry_decode_median(pipe->observability().registry)) {
      s.registry_decode_ns.push_back(*r);
    }
    const struct {
      const char* name;
      const telemetry::StageStats& st;
    } stages[] = {{"decode", stats.decode},
                  {"normalize", stats.normalize},
                  {"detect", stats.detect}};
    for (const auto& [name, st] : stages) {
      const std::string p = std::string{"pipeline."} + name + ".";
      s.stage[p + "producer_stalls"].push_back(
          static_cast<double>(st.producer_stalls));
      s.stage[p + "consumer_stalls"].push_back(
          static_cast<double>(st.consumer_stalls));
      s.stage[p + "items_per_wave"].push_back(
          st.waves == 0 ? 0.0
                        : static_cast<double>(st.dequeued) /
                              static_cast<double>(st.waves));
    }
  }

  // Restart: checkpoint the end-of-run state, restore it into a freshly
  // built pipeline's detector.
  auto target = std::make_unique<pipeline::IngestPipeline>(
      world->rules.hitlist, world->rules, ingest_config());
  std::string error;
  bool restored = false;
  const auto t_restart = Clock::now();
  {
    Scope restart_span{tracer, "restart"};
    std::vector<std::uint8_t> blob;
    {
      Scope span{tracer, "checkpoint_save"};
      blob = core::save_checkpoint_compact(pipe->detector());
    }
    Scope span{tracer, "checkpoint_restore"};
    restored = core::restore_checkpoint(blob, target->detector(), &error);
  }
  s.restart_ms.push_back(since(t_restart) * 1e3);
  ++checks.attempted;
  checks.failed += restored ? 0 : 1;
  checks.expect(restored, "restore_checkpoint: " + error);
  checks.expect(digest_of(target->detector()) == got,
                "restored checkpoint digest differs from the saved state");
}

// --- study replay ----------------------------------------------------------

/// Reference for the study: a ShardedDetector fed the same hours hour by
/// hour, in an untimed pass.
Digest study_reference(const WorkloadSpec& spec, std::uint64_t seed,
                       std::uint64_t& flows) {
  World world{seed, spec.lines};
  core::ShardedDetector ref{world.rules.hitlist, world.rules,
                            {.threshold = kThreshold}, kShards};
  std::vector<core::Observation> hour_obs;
  flows = 0;
  for (unsigned i = 0; i < spec.hours; ++i) {
    const util::HourBin h = spec.first_hour + i;
    hour_obs.clear();
    world.wild.hour_observations(h, [&](const simnet::WildObs& o) {
      hour_obs.push_back({o.line, o.flow.key.dst, o.flow.key.dst_port,
                          o.flow.packets, h});
    });
    flows += hour_obs.size();
    ref.process_batch(hour_obs);
  }
  return digest_of(ref);
}

/// One replay of the paper's study loop: WildIspSim generation straight
/// into one cumulative core::Detector on this thread. The hour close is
/// the hour's verdict table (every (line, service) pair detected so far).
void replay_study(const WorkloadSpec& spec, std::uint64_t seed,
                  const Digest& expected, std::uint64_t expected_flows,
                  Tracer* tracer, Samples& s, Checks& checks) {
  const ReplayGuard guard{s};
  Scope replay_span{tracer, "replay"};
  const auto t_setup = Clock::now();
  auto world = std::make_unique<World>(seed, spec.lines);
  core::Detector detector{world->rules.hitlist, world->rules,
                          {.threshold = kThreshold}};
  s.setup_s.push_back(since(t_setup));
  malloc_trim(0);
  const double rss0 = rss_mib();
  const double heap0 = heap_mib();

  double active = 0;
  std::uint64_t flows = 0;
  std::uint64_t detected_before = 0;
  for (unsigned i = 0; i < spec.hours; ++i) {
    const util::HourBin h = spec.first_hour + i;
    {
      Scope span{tracer, "study_hour"};
      const auto t0 = Clock::now();
      world->wild.hour_observations(h, [&](const simnet::WildObs& o) {
        (void)detector.observe(o.line, o.flow.key.dst, o.flow.key.dst_port,
                               o.flow.packets, h);
        ++flows;
      });
      active += since(t0);
    }
    const auto t_close = Clock::now();
    std::uint64_t detected = 0;
    {
      Scope span{tracer, "hour_close"};
      detector.for_each_evidence(
          [&](core::SubscriberKey sub, core::ServiceId sv,
              const core::Evidence&) {
            detected += detector.detected(sub, sv) ? 1 : 0;
          });
    }
    s.close_ms.push_back(since(t_close) * 1e3);
    ++checks.attempted;
    checks.expect(detected >= detected_before,
                  "study verdict table shrank between hours");
    detected_before = detected;
  }
  s.last_close_ms.push_back(s.close_ms.back());
  const double flows_per_s = static_cast<double>(flows) / active;
  s.flows_per_s.push_back(flows_per_s);
  (tracer != nullptr ? s.traced_flows_per_s : s.untraced_flows_per_s)
      .push_back(flows_per_s);
  malloc_trim(0);
  s.rss_growth_mib.push_back(rss_mib() - rss0);
  s.heap_growth_mib.push_back(heap_mib() - heap0);

  checks.expect(flows == expected_flows, "study flow count differs");
  const Digest got = digest_of(detector);
  checks.expect(got == expected, "study digest " + got.hex() +
                                     " != sharded reference " +
                                     expected.hex());

  core::Detector target{world->rules.hitlist, world->rules,
                        {.threshold = kThreshold}};
  std::string error;
  const auto t_restart = Clock::now();
  bool restored = false;
  {
    Scope span{tracer, "restart"};
    const auto blob = core::save_checkpoint_compact(detector);
    restored = core::restore_checkpoint(blob, target, &error);
  }
  s.restart_ms.push_back(since(t_restart) * 1e3);
  ++checks.attempted;
  checks.failed += restored ? 0 : 1;
  checks.expect(restored, "restore_checkpoint: " + error);
  checks.expect(digest_of(target) == got,
                "restored checkpoint digest differs from the saved state");
}

// --- staged synchronous replay (traced run) ----------------------------------

/// Layer costs measured one layer at a time over the same datagrams:
/// decode, then lookup, then detect. push_datagram hands its work to stage
/// threads a caller cannot time from outside, hence this second pass.
struct Staged {
  double decode_s = 0;
  double lookup_s = 0;
  double detect_s = 0;
  std::uint64_t rows = 0;
  std::uint64_t hits = 0;
  double index_build_ms = 0;
  double new_entry_ratio = 0;
  double evidence_mib = 0;
  double save_ms = 0;
  double restore_ms = 0;
  double checkpoint_mib = 0;
};

Staged staged_replay(const WorkloadSpec& spec, std::uint64_t seed,
                     const WireInput& in, Tracer* tracer, Checks& checks) {
  Staged out;
  World world{seed, spec.lines};
  obs::Observability observability;
  auto t0 = Clock::now();
  auto det = std::make_unique<core::ShardedDetector>(
      world.rules.hitlist, world.rules,
      core::DetectorConfig{.threshold = kThreshold}, kShards, 1024,
      &observability);
  out.index_build_ms = since(t0) * 1e3;
  flow::nf9::Collector nf9{flow::nf9::CollectorConfig{.dedup_window = 64}};
  flow::ipfix::Collector ipfix{
      flow::ipfix::CollectorConfig{.dedup_window = 64}};
  const auto version = det->current_version();
  const core::SignatureIndex& index = *version->index;

  // Each datagram decodes into one reused batch, as the pipeline's decode
  // stage does with its pooled batches, and is looked up straight after;
  // the two layers are timed per datagram. (Appending a whole hour to one
  // batch measures memory traffic instead, and ingest_batch's exact
  // reserve makes such appends quadratic.)
  flow::FlowBatch rows;
  std::vector<std::vector<core::InternedObs>> chunks;
  for (std::size_t hi = 0; hi < in.hours.size(); ++hi) {
    const util::HourBin hour = in.hours[hi];
    const util::DayBin day = util::day_of(hour);
    const auto& dgrams = in.datagrams[hi];
    chunks.resize(dgrams.size());
    Scope hour_span{tracer, "staged_hour"};
    {
      Scope span{tracer, "decode_lookup"};
      for (std::size_t i = 0; i < dgrams.size(); ++i) {
        const auto& d = dgrams[i];
        auto& chunk = chunks[i];
        const auto t_decode = Clock::now();
        rows.clear();
        const bool v9 = d.size() >= 2 && d[0] == 0 && d[1] == 9;
        const bool ok =
            v9 ? nf9.ingest_batch(d, rows) : ipfix.ingest_batch(d, rows);
        const auto t_lookup = Clock::now();
        chunk.clear();
        for (std::size_t r = 0; r < rows.size(); ++r) {
          const core::Signature sig =
              index.sig_of(rows.dst[r], rows.dst_port[r], day);
          out.hits += sig != core::kNoSig ? 1 : 0;
          chunk.push_back({telemetry::anonymize(rows.src[r], kAnonKey),
                           rows.packets[r], sig, hour});
        }
        const auto t_done = Clock::now();
        out.decode_s +=
            std::chrono::duration<double>(t_lookup - t_decode).count();
        out.lookup_s += std::chrono::duration<double>(t_done - t_lookup).count();
        out.rows += rows.size();
        checks.expect(ok, "staged decode rejected a datagram");
      }
    }
    {
      Scope span{tracer, "detect"};
      t0 = Clock::now();
      for (const auto& chunk : chunks) {
        if (!chunk.empty()) det->enqueue_interned(chunk);
      }
      det->drain();
      out.detect_s += since(t0);
    }
  }
  checks.expect(out.rows == in.flows, "staged decode row count differs");
  const Digest got = digest_of(*det);
  checks.expect(got == in.expected, "staged evidence digest differs");

  const auto all = observability.registry.snapshot();
  out.evidence_mib =
      static_cast<double>(registry_sum(all, "detector_evidence_bytes")) /
      (1 << 20);
  const auto stats = det->stats();
  out.new_entry_ratio = stats.matched == 0
                            ? 0.0
                            : static_cast<double>(got.rows()) /
                                  static_cast<double>(stats.matched);

  core::ShardedDetector target{world.rules.hitlist, world.rules,
                               {.threshold = kThreshold}, kShards};
  std::vector<std::uint8_t> blob;
  {
    Scope span{tracer, "checkpoint_save"};
    t0 = Clock::now();
    blob = core::save_checkpoint_compact(*det);
    out.save_ms = since(t0) * 1e3;
  }
  std::string error;
  {
    Scope span{tracer, "checkpoint_restore"};
    t0 = Clock::now();
    const bool ok = core::restore_checkpoint(blob, target, &error);
    out.restore_ms = since(t0) * 1e3;
    checks.expect(ok, "staged restore_checkpoint: " + error);
  }
  checks.expect(digest_of(target) == got, "staged restored digest differs");
  out.checkpoint_mib = static_cast<double>(blob.size()) / (1 << 20);
  return out;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream out{path};
  if (!out) return;
  const auto self = self_times(tracer.spans());
  out << "{\"names\": [";
  for (std::size_t i = 0; i < tracer.names().size(); ++i) {
    out << (i ? ", " : "") << '"' << json_escape(tracer.names()[i]) << '"';
  }
  out << "], \"dropped\": " << tracer.dropped()
      << ", \"fields\": [\"name\", \"parent\", \"run\", \"start_ns\", "
         "\"end_ns\", \"self_ns\"], \"spans\": [\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    out << (i ? ",\n" : "") << '[' << sp.name << ", " << sp.parent << ", "
        << sp.run << ", " << sp.start_ns << ", " << sp.end_ns << ", "
        << self[i] << ']';
  }
  out << "\n]}\n";
}

/// Self time per span name, summed: where the traced run's time went.
void print_self_times(const Tracer& tracer) {
  const auto self = self_times(tracer.spans());
  std::vector<double> total(tracer.names().size());
  std::vector<std::uint64_t> count(tracer.names().size());
  for (std::size_t i = 0; i < self.size(); ++i) {
    total[tracer.spans()[i].name] += static_cast<double>(self[i]);
    ++count[tracer.spans()[i].name];
  }
  std::printf("span self time (spans kept %zu, dropped %llu):\n",
              tracer.spans().size(),
              static_cast<unsigned long long>(tracer.dropped()));
  for (std::size_t n = 0; n < total.size(); ++n) {
    std::printf("  %-20s %10.3f ms over %llu spans\n",
                tracer.names()[n].c_str(), total[n] / 1e6,
                static_cast<unsigned long long>(count[n]));
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string revision = "unknown";
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--revision") {
      a.revision = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return a;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf(
      "fingerprint {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"revision\": \"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(args.revision).c_str());

  Checks checks;
  Samples s;
  Tracer tracer;
  Tracer* const traced = args.trace ? &tracer : nullptr;

  // Set-up: inputs and references, outside every timed region.
  const auto t_input = Clock::now();
  WireInput in;
  Digest study_expected;
  std::uint64_t study_flows = 0;
  if (spec->wire()) {
    in = make_wire_input(*spec, args.seed);
  } else {
    study_expected = study_reference(*spec, args.seed, study_flows);
  }
  const Digest& reference = spec->wire() ? in.expected : study_expected;
  std::printf("workload %s seed %llu: input ready in %.2f s, %llu flows "
              "per replay, %llu evidence rows\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              since(t_input),
              static_cast<unsigned long long>(spec->wire() ? in.flows
                                                           : study_flows),
              static_cast<unsigned long long>(reference.rows()));
  std::fflush(stdout);

  // Timed replays. The traced run alternates traced and untraced replays,
  // so the tracing overhead compares like with like.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  // A traced run needs a traced and an untraced replay for its overhead.
  const std::uint32_t min_replays = args.trace ? 2 : 1;
  std::uint32_t replays = 0;
  while (replays < min_replays || Clock::now() < deadline) {
    Tracer* t = traced != nullptr && replays % 2 == 0 ? traced : nullptr;
    tracer.set_run(replays);
    if (spec->wire()) {
      replay_wire(*spec, args.seed, in, spec->query_thread, t, s, checks);
    } else {
      replay_study(*spec, args.seed, study_expected, study_flows, t, s,
                   checks);
    }
    ++replays;
    if (!checks.errors.empty()) break;
  }

  std::optional<Staged> staged;
  WireInput study_wire;
  Samples study_pipe;  // traced pipeline replays of the study's wire form
  if (args.trace && checks.errors.empty()) {
    tracer.set_run(replays);
    if (!spec->wire()) {
      // The study has no wire; price the wire layers on its first hour.
      study_wire = make_study_wire_input(*spec, args.seed);
      for (int i = 0; i < 3 && checks.errors.empty(); ++i) {
        replay_wire(*spec, args.seed, study_wire, false, traced, study_pipe,
                    checks);
      }
    }
    if (checks.errors.empty()) {
      staged = staged_replay(*spec, args.seed, spec->wire() ? in : study_wire,
                             traced, checks);
    }
  }

  if (!checks.errors.empty()) {
    for (const auto& e : checks.errors) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    }
    return 1;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const auto& clean = s.replay_clean;
    metrics = {
        {"setup_s", replay_median(s.setup_s, clean), "s"},
        {"flows_per_s", replay_median(s.flows_per_s, clean), "flows/s"},
        // The last hour of a replay closes over the largest evidence
        // state. Pooling all closes mixes hour positions whose costs
        // differ several-fold (the evidence map grows through a replay),
        // and the pooled median jumps between those clusters.
        {"hour_close_ms", replay_median(s.last_close_ms, clean), "ms"},
        {"restart_ms", replay_median(s.restart_ms, clean), "ms"},
        {"heap_growth_mib", replay_median(s.heap_growth_mib, clean), "MiB"},
    };
  } else {
    const WireInput& w = spec->wire() ? in : study_wire;
    Samples& p = spec->wire() ? s : study_pipe;  // pipeline-layer samples
    const double flows = static_cast<double>(w.flows);
    const double rows = static_cast<double>(staged->rows);
    const double decode_ns = staged->decode_s * 1e9 / rows;
    const double lookup_ns = staged->lookup_s * 1e9 / rows;
    const double detect_ns = staged->detect_s * 1e9 / rows;
    const double wire_rate = med(p.traced_flows_per_s);
    const double traced_rate = med(s.traced_flows_per_s);
    const double untraced_rate = med(s.untraced_flows_per_s);
    metrics = {
        {"simnet.generate_ns_per_flow",
         w.generate_s * 1e9 / static_cast<double>(w.generated_flows),
         "ns/flow"},
        {"simnet.population_mib", w.population_mib, "MiB"},
        {"telemetry.encode_ns_per_flow", w.encode_s * 1e9 / flows, "ns/flow"},
        {"telemetry.wire_bytes_per_flow",
         static_cast<double>(w.wire_bytes) / flows, "B/flow"},
        {"flow.decode_ns_per_flow", decode_ns, "ns/flow"},
        {"flow.records_per_datagram",
         rows / static_cast<double>(w.datagram_count), "records"},
        {"core.lookup_ns_per_flow", lookup_ns, "ns/flow"},
        {"core.hit_ratio", static_cast<double>(staged->hits) / rows, "ratio"},
        {"core.detect_ns_per_flow", detect_ns, "ns/flow"},
        {"core.observe_ns_per_flow", w.observe_s * 1e9 / flows, "ns/flow"},
        {"core.new_entry_ratio", staged->new_entry_ratio, "ratio"},
        {"core.evidence_mib", staged->evidence_mib, "MiB"},
        {"core.checkpoint_save_ms", staged->save_ms, "ms"},
        {"core.checkpoint_restore_ms", staged->restore_ms, "ms"},
        {"core.checkpoint_mib", staged->checkpoint_mib, "MiB"},
        {"core.index_build_ms", staged->index_build_ms, "ms"},
        {"pipeline.push_blocked_ns_per_flow",
         p.push_ns / static_cast<double>(p.traced_flows), "ns/flow"},
        {"pipeline.drain_ms_p50", med(p.drain_ms), "ms"},
        {"pipeline.overhead_ns_per_flow",
         1e9 / wire_rate - (decode_ns + lookup_ns + detect_ns), "ns/flow"},
    };
    for (const char* stage : {"decode", "normalize", "detect"}) {
      for (const char* what :
           {"producer_stalls", "consumer_stalls", "items_per_wave"}) {
        const std::string key =
            std::string{"pipeline."} + stage + "." + what;
        metrics.push_back({key, med(p.stage[key]),
                           std::string{what} == "items_per_wave" ? "items"
                                                                 : "count"});
      }
    }
    metrics.insert(
        metrics.end(),
        {
            {"pipeline.cpu_s_per_mflow",
             p.cpu_s * 1e6 / static_cast<double>(p.traced_flows), "s/Mflow"},
            {"serve.snapshot_ns", med(p.snapshot_ns), "ns"},
            {"serve.fresh_snapshot_us", med(p.fresh_snapshot_us), "us"},
            {"obs.decode_ns_registry_ratio",
             med(p.registry_decode_ns) / decode_ns, "ratio"},
            {"obs.counter_mismatches",
             static_cast<double>(checks.counter_mismatches), "count"},
            {"trace.flows_per_s_traced", traced_rate, "flows/s"},
            {"trace.flows_per_s_untraced", untraced_rate, "flows/s"},
            {"trace.overhead_ratio", 1.0 - traced_rate / untraced_rate,
             "ratio"},
        });
  }

  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s could not be computed\n",
                   m.name.c_str());
      return 1;
    }
  }

  // Human-readable report: every metric by name and unit, plus the
  // latencies that exist only on some workloads.
  const auto clean_replays = static_cast<std::size_t>(
      std::count(s.replay_clean.begin(), s.replay_clean.end(), 1));
  std::printf("replays %u (clean %zu: the first warms up, steal above %.0f%% "
              "of CPU time drops a replay), hour closes %zu, restarts %zu\n",
              replays, clean_replays, kMaxSteal * 100, s.close_ms.size(),
              s.restart_ms.size());
  if (!s.flows_per_s.empty()) {
    auto sorted = s.flows_per_s;
    std::sort(sorted.begin(), sorted.end());
    std::printf("flows_per_s over replays: min %.4g, median %.4g, max %.4g\n",
                sorted.front(), med(sorted), sorted.back());
  }
  for (const auto& m : metrics) {
    std::printf("metric %-38s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  auto report_tail = [](const char* name, const std::vector<double>& v,
                        double p, const char* unit) {
    if (auto x = tail_percentile(v, p)) {
      std::printf("metric %-38s %16.6g %s (n=%zu)\n", name, *x, unit,
                  v.size());
    } else {
      std::printf("metric %-38s %16s %s (n=%zu: fewer than %zu beyond)\n",
                  name, "refused", unit, v.size(), kTailSamples);
    }
  };
  if (!args.trace) {
    std::printf("metric %-38s %16.6g MiB\n", "rss_growth_mib",
                replay_median(s.rss_growth_mib, s.replay_clean));
    std::printf("metric %-38s %16.6g ms (n=%zu)\n", "hour_close_ms_p50",
                med(s.close_ms), s.close_ms.size());
    report_tail("hour_close_ms_p90", s.close_ms, 0.90, "ms");
    if (spec->query_thread) {
      std::printf("metric %-38s %16.6g us (n=%zu)\n", "query_live_us_p50",
                  med(s.query_live_us), s.query_live_us.size());
      report_tail("query_live_us_p99", s.query_live_us, 0.99, "us");
      std::printf("metric %-38s %16.6g ms (n=%zu)\n", "query_fresh_ms_p50",
                  med(s.query_fresh_ms), s.query_fresh_ms.size());
      report_tail("query_fresh_ms_p90", s.query_fresh_ms, 0.90, "ms");
      report_tail("query_generator_late_ms_p99", s.query_lateness_ms, 0.99,
                  "ms");
    }
  }
  std::printf("metric %-38s %16.6g ratio (%llu of %llu)\n", "error_rate",
              static_cast<double>(checks.failed) /
                  static_cast<double>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  if (args.trace) {
    print_self_times(tracer);
    if (!args.trace_out.empty()) write_trace(args.trace_out, tracer);
  }

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--revision <id>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
  return perfbench::run(*args);
}
