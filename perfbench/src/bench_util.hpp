#pragma once
// Shared pieces of the repository benchmark: seeded input generation,
// order statistics, the result record printed as the last output line, and
// the benchmark's own span recorder (spans are taken around calls into the
// library from these files only; nothing inside src/ is instrumented).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Deterministic input generator (splitmix64): the same seed gives the
/// same inputs on every platform, unlike std:: distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

 private:
  std::uint64_t state_;
};

/// Order statistics of one timing series. `tail` is the highest of
/// p99/p95/p90/p50 that still has at least ten samples beyond it; the
/// named p95 metrics need n >= 200, which every workload's window gives.
/// `v` must be in time order for p95_chunked.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double tail_q = 0.0;  ///< quantile of `tail` (0.99, 0.95, 0.9 or 0.5)
  double tail = 0.0;
  /// p95 steadied against bursts of host contention: the series (in time
  /// order) is cut into `chunks` consecutive chunks of at least
  /// kChunkSamples samples, so that each chunk's p95 has at least ten
  /// samples beyond it, and this is the median of the chunks' p95s. Below
  /// kMinChunks chunks it is the whole series' p95 (chunks = 1).
  double p95_chunked = 0.0;
  std::size_t chunks = 1;
  std::vector<double> chunk_p95;
};
constexpr std::size_t kChunkSamples = 200;
constexpr std::size_t kMinChunks = 3;

[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] Summary summarize(const std::vector<double>& v);
/// One note() line for a summary: n, p50, both p95s, the chunk p95s and
/// the highest percentile with at least ten samples beyond it.
[[nodiscard]] std::string describe(const Summary& s);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Printed as the last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a correctness check; a false `ok` makes the run incorrect and
  /// is reported on stderr.
  void check(bool ok, const std::string& what);
  [[nodiscard]] std::string json() const;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< scratch files (checkpoints, trace JSON)
};

// --- spans ---------------------------------------------------------------

/// In-memory span recorder. Spans nest per thread (the parent is the span
/// open on the same thread); records are only appended while enabled, and
/// are written out by write_trace() once the run has ended.
class Tracer {
 public:
  static Tracer& get();

  /// Master switch (the --trace flag).
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Per-thread switch under the master one, so a traced run can alternate
  /// traced and untraced blocks of steps and measure the tracing overhead.
  static void set_thread_tracing(bool on);

  struct Record {
    const char* name;
    int parent;  ///< index into the same thread's records, -1 = root
    double t0_us;
    double t1_us;
  };
  /// Per-thread record buffer; registered on first use.
  struct Buffer {
    int tid = 0;
    std::vector<Record> records;
    std::vector<int> open;  ///< stack of open record indices
  };
  Buffer& buffer();

  /// Per span name: count, total and self time (total minus the time its
  /// child spans cover).
  struct Totals {
    long long count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Chrome trace-event JSON ("X" events, one tid per recording thread,
  /// parent span index in args) of every recorded span.
  void write_trace(const std::string& path) const;

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

 private:
  Tracer() : epoch_(Clock::now()) {}
  // relaxed: a plain on/off flag, no data is published through it.
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  // Owned here, not by the recording threads: rank threads exit before
  // the trace is written. Guarded by the registration mutex.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op unless the tracer is enabled.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buf_ = nullptr;
  int idx_ = -1;
};

// --- workloads -------------------------------------------------------------

void run_kh2d_serial(const Args& args, Result& r);
void run_kh2d_pool4(const Args& args, Result& r);
void run_kh2d_ranks2(const Args& args, Result& r);
void run_serve_open_mix(const Args& args, Result& r);

/// Print one human-readable line (never the last line of stdout).
void note(const std::string& line);
/// Four significant digits, for note() lines.
[[nodiscard]] std::string fmt(double x);

}  // namespace perfbench
