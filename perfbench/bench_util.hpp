// The benchmark's own measurement logic, kept free of the library so the
// self-test can pin it: percentile selection, the open-loop query
// schedule, in-memory spans with self time, and the order-independent
// evidence digest.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// --- percentiles -----------------------------------------------------------

/// Minimum number of samples that must lie beyond a reported tail
/// percentile; fewer and the percentile is noise, so it is refused.
inline constexpr std::size_t kTailSamples = 10;

/// Median (mean of the two middle samples for an even count); nullopt when
/// empty.
[[nodiscard]] inline std::optional<double> median(std::vector<double> v) {
  if (v.empty()) return std::nullopt;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

/// Nearest-rank tail percentile `p` in (0.5, 1): the sample at rank
/// ceil(p * n). Refused (nullopt) unless at least kTailSamples samples rank
/// beyond it — p99 needs 1000 samples, p90 needs 100.
[[nodiscard]] inline std::optional<double> tail_percentile(
    std::vector<double> v, double p) {
  const std::size_t n = v.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  // The epsilon keeps p * n from rounding up past an exact rank (0.9 * 100
  // is 90.00000000000001 in binary floating point).
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < kTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// --- open-loop schedule ----------------------------------------------------

/// Open-loop query schedule: query i is due at i * interval seconds after
/// the start, whatever happened to earlier queries. Latency is charged from
/// the due time, so a query stuck behind a stalled one carries that stall;
/// timing from the actual send would hide it (coordinated omission).
class OpenLoop {
 public:
  explicit OpenLoop(double interval_s) : interval_s_{interval_s} {}

  [[nodiscard]] double due(std::size_t i) const {
    return static_cast<double>(i) * interval_s_;
  }

  /// Query i was sent at `begin` and answered at `end`, both in seconds
  /// since the schedule's start.
  void record(std::size_t i, double begin, double end) {
    latency_s_.push_back(end - due(i));
    lateness_s_.push_back(std::max(0.0, begin - due(i)));
  }

  /// Per-query latency from the due time.
  [[nodiscard]] const std::vector<double>& latency_s() const {
    return latency_s_;
  }
  /// How late the generator sent each query.
  [[nodiscard]] const std::vector<double>& lateness_s() const {
    return lateness_s_;
  }

 private:
  double interval_s_;
  std::vector<double> latency_s_;
  std::vector<double> lateness_s_;
};

// --- spans ----------------------------------------------------------------

/// One recorded span. Times are nanoseconds on the tracer's clock.
struct Span {
  std::uint32_t name = 0;  ///< index into Tracer::names()
  std::uint32_t parent = 0;  ///< 1-based span id of the parent; 0 = root
  std::uint32_t run = 0;     ///< replay the span belongs to
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// each other, e.g. when recorded from two threads, and may outlive the
/// parent; only the covered part of the parent counts).
[[nodiscard]] inline std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (lo >= hi) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

/// In-memory span recorder. Spans are kept until the benchmark writes them
/// out at exit; past `capacity` further spans are counted as dropped, so a
/// long traced run cannot grow without bound. Thread-safe; each thread
/// keeps its own stack of open spans for parent links.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 400'000) : capacity_{capacity} {}

  [[nodiscard]] static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void set_run(std::uint32_t run) { run_ = run; }

  /// Opens a span on the calling thread; returns its id (0 when dropped).
  std::uint32_t open(const char* name, std::uint32_t parent_override = 0) {
    const std::uint64_t t = now_ns();
    std::lock_guard lock{mu_};
    if (spans_.size() >= capacity_) {
      ++dropped_;
      stack().push_back(0);
      return 0;
    }
    Span s;
    s.name = intern(name);
    s.parent = parent_override != 0 ? parent_override : top();
    s.run = run_;
    s.start_ns = t;
    spans_.push_back(s);
    const auto id = static_cast<std::uint32_t>(spans_.size());
    stack().push_back(id);
    return id;
  }

  void close() {
    const std::uint64_t t = now_ns();
    std::lock_guard lock{mu_};
    auto& st = stack();
    if (st.empty()) return;
    const std::uint32_t id = st.back();
    st.pop_back();
    if (id != 0) spans_[id - 1].end_ns = t;
  }

  /// Id of the innermost span open on the calling thread (0 if none).
  [[nodiscard]] std::uint32_t current() {
    std::lock_guard lock{mu_};
    return top();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t intern(const char* name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  std::uint32_t top() {
    auto& st = stack();
    for (auto it = st.rbegin(); it != st.rend(); ++it) {
      if (*it != 0) return *it;
    }
    return 0;
  }
  std::vector<std::uint32_t>& stack() {
    thread_local std::vector<std::uint32_t> per_thread;
    return per_thread;
  }

  std::size_t capacity_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::uint64_t dropped_ = 0;
  std::uint32_t run_ = 0;
};

/// RAII span; a null tracer makes it free (the untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint32_t parent = 0)
      : tracer_{tracer} {
    if (tracer_ != nullptr) tracer_->open(name, parent);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

// --- evidence digest -------------------------------------------------------

/// Order-independent digest of an evidence map: every row is hashed on its
/// own and the hashes are combined with commutative operations, so two maps
/// holding the same rows agree however their shards or iteration order
/// arrange them.
class Digest {
 public:
  struct Row {
    std::uint64_t subscriber = 0;
    std::uint16_t service = 0;
    std::uint64_t mask0 = 0;
    std::uint64_t mask1 = 0;
    std::uint64_t packets = 0;
    std::uint32_t first_seen = 0;
    std::uint32_t satisfied_hour = 0;
  };

  void add(const Row& r) {
    std::uint64_t h = mix(r.subscriber ^ 0x243f6a8885a308d3ULL);
    h = mix(h ^ r.service);
    h = mix(h ^ r.mask0);
    h = mix(h ^ r.mask1);
    h = mix(h ^ r.packets);
    h = mix(h ^ ((std::uint64_t{r.first_seen} << 32) | r.satisfied_hour));
    sum_ += h;
    xor_ ^= mix(h + 0x9e3779b97f4a7c15ULL);
    ++rows_;
  }

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::string hex() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(sum_),
                  static_cast<unsigned long long>(xor_));
    return buf;
  }

  friend bool operator==(const Digest&, const Digest&) = default;

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t sum_ = 0;
  std::uint64_t xor_ = 0;
  std::uint64_t rows_ = 0;
};

}  // namespace perfbench
