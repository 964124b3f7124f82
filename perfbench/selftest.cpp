// Self-test of the benchmark's own measurement logic (bench_util.hpp).
// Run with `python3 perfbench/run.py --selftest`; exits non-zero on the
// first failed expectation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "bench_util.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using namespace perfbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  std::shuffle(v.begin(), v.end(), std::mt19937{7});
  return v;
}

void percentile_needs_ten_samples_beyond() {
  EXPECT(!tail_percentile(ramp(500), 0.99));  // 5 beyond: refused
  EXPECT(!tail_percentile(ramp(999), 0.99));  // 9 beyond: refused
  EXPECT(tail_percentile(ramp(1000), 0.99) == 990.0);  // exactly 10 beyond
  EXPECT(!tail_percentile(ramp(99), 0.90));
  EXPECT(tail_percentile(ramp(100), 0.90) == 90.0);
  EXPECT(!tail_percentile({}, 0.90));
  EXPECT(median(ramp(5)) == 3.0);
  EXPECT(median(ramp(4)) == 2.5);
  EXPECT(!median({}));
}

void self_time_subtracts_covered_children() {
  // Parent [0, 100); children overlap each other and one runs past the
  // parent's end: covered = [10, 30) + [90, 100) = 30.
  std::vector<Span> spans = {
      {0, 0, 0, 0, 100},    // 1: parent
      {1, 1, 0, 10, 20},    // 2
      {1, 1, 0, 15, 30},    // 3
      {1, 1, 0, 90, 120},   // 4
      {2, 2, 0, 12, 18},    // 5: grandchild inside 2
  };
  const auto self = self_times(spans);
  EXPECT(self[0] == 70);
  EXPECT(self[1] == 4);   // 10 minus its grandchild's 6
  EXPECT(self[2] == 15);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);

  // Spans recorded through the Tracer link to the enclosing span.
  Tracer tracer;
  {
    Scope outer{&tracer, "outer"};
    Scope inner{&tracer, "inner"};
  }
  EXPECT(tracer.spans().size() == 2);
  EXPECT(tracer.spans()[1].parent == 1);
  EXPECT(tracer.spans()[0].parent == 0);
  const auto traced = self_times(tracer.spans());
  EXPECT(traced[0] + (tracer.spans()[1].end_ns - tracer.spans()[1].start_ns) ==
         tracer.spans()[0].end_ns - tracer.spans()[0].start_ns);

  Tracer tiny{1};
  {
    Scope a{&tiny, "a"};
    Scope b{&tiny, "b"};
  }
  EXPECT(tiny.spans().size() == 1);
  EXPECT(tiny.dropped() == 1);
}

void digest_ignores_order() {
  std::vector<Digest::Row> rows;
  std::mt19937_64 rng{11};
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({rng(), static_cast<std::uint16_t>(rng() % 40), rng(),
                    rng() % 3, rng() % 100, static_cast<std::uint32_t>(i % 7),
                    0xffffffffU});
  }
  Digest forward;
  for (const auto& r : rows) forward.add(r);
  std::shuffle(rows.begin(), rows.end(), rng);
  Digest shuffled;
  for (const auto& r : rows) shuffled.add(r);
  EXPECT(forward == shuffled);
  EXPECT(forward.rows() == 1000);

  Digest changed;
  rows[17].packets += 1;
  for (const auto& r : rows) changed.add(r);
  EXPECT(!(changed == forward));

  Digest missing;
  for (std::size_t i = 1; i < rows.size(); ++i) missing.add(rows[i]);
  EXPECT(!(missing == forward));

  // Swapping one field between two rows keeps every field's multiset but
  // not the rows: the digest must see it.
  rows[17].packets -= 1;
  std::swap(rows[3].first_seen, rows[4].first_seen);
  Digest swapped;
  for (const auto& r : rows) swapped.add(r);
  EXPECT(rows[3].first_seen == rows[4].first_seen || !(swapped == forward));
}

void open_loop_charges_stall_to_later_queries() {
  // 200 q/s; query 0 stalls for 50 ms, every other query takes 0.1 ms. A
  // closed-loop timer would report 0.1 ms for queries 1..9; timed from
  // when they were due, they carry the wait behind query 0.
  const double interval = 0.005;
  OpenLoop loop{interval};
  double free_at = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const double begin = std::max(loop.due(i), free_at);
    const double service = i == 0 ? 0.050 : 0.0001;
    free_at = begin + service;
    loop.record(i, begin, free_at);
  }
  const auto& lat = loop.latency_s();
  EXPECT(std::abs(lat[0] - 0.050) < 1e-9);
  EXPECT(std::abs(lat[1] - (0.0501 - 0.005)) < 1e-9);
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT(lat[i] > 0.0001 * 10);      // far above its own service time
    EXPECT(lat[i] > lat[i + 1] - 1e-12);  // the backlog drains
  }
  EXPECT(std::abs(lat[15] - 0.0001) < 1e-9);  // caught up: service only
  EXPECT(loop.lateness_s()[1] > 0.04);          // generator ran late
  EXPECT(loop.lateness_s()[15] == 0.0);
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond();
  self_time_subtracts_covered_children();
  digest_ignores_order();
  open_loop_charges_stall_to_later_queries();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
