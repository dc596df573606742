// Shared plumbing of the rfidsim benchmark: clocks, sample summaries,
// digests, the run's result, and the bench-side span recorder.
//
// Every number the benchmark prints is labelled with a unit and a clock:
//   host wall       steady_clock time (s, ms, us, ns, 1/s)
//   exact, seeded   a pure function of seed and code
//   count, bytes    tallies and sizes
// Simulated-time values are pure functions of the seed; they are compared
// for exact equality and never reported as host time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-time samples of one repeated call, summarised the way every timing
/// is reported: median plus the highest percentile that still has at least
/// ten samples beyond it.
///
/// A run repeats the same units of work many times (a row of the sweep, a
/// pass of an episode), and the host's speed varies between repetitions
/// with the load other tenants put on the shared cores and caches: the same
/// pass runs up to 1.5x slower for tens of seconds at a time on a shared
/// 4-vCPU guest. Gated figures therefore take each unit at its fastest
/// repetition (min()), as a min-of-N timer does, and summarise those.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t count() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double sum() const;
  double p50() const { return quantile(0.5); }
  double min() const;
  /// Linearly interpolated quantile, q in [0, 1].
  double quantile(double q) const;
  /// Value with exactly ten samples above it (the maximum when fewer than
  /// eleven samples exist).
  double tail() const;
  /// The percentile tail() sits at, in percent.
  double tail_percentile() const;

 private:
  std::vector<double> sorted() const;
  std::vector<double> values_;
};

/// FNV-1a over raw bytes: one 64-bit number per output stream.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process in bytes (ru_maxrss).
std::uint64_t peak_rss_bytes();

/// One metric as the run reports it: value, unit and clock.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string clock;
};

/// One benchmark invocation's result. `metrics` holds the metrics the run
/// computed: end-to-end ones untraced, per-layer ones traced. BENCHMARK.json
/// is the catalogue; run.py checks names and units against it.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Records a failed output check (counted into `failed`).
  void fail(const std::string& what);
  /// Counts one checked output; records a failure when `ok` is false.
  void check(bool ok, const std::string& what);
  /// Sets one reported metric.
  void metric(const std::string& name, double value, const char* unit, const char* clock) {
    metrics[name] = {value, unit, clock};
  }
};

/// Prints one labelled report line: `  name = value unit [clock]  note`.
void report(const char* name, double value, const char* unit, const char* clock,
            const std::string& note = {});
/// Prints a timing summary line set: p50 and tail with percentile and count.
void report_samples(const char* name, const Samples& s, double scale,
                    const char* unit);

// --- Bench-side tracing ---------------------------------------------------
//
// Spans are recorded by the benchmark around each call into a library
// module; the library itself is not instrumented. A span's layer is the
// first dotted component of its name (`fleet.store.ingest` -> `fleet`).
// Spans of one row, pass or query set share a request id. Everything stays in
// memory until write_chrome_trace().

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index of the enclosing span, -1 for roots.
  std::uint64_t request = 0;
};

class Tracer {
 public:
  Tracer();
  /// Opens a span nested in the innermost open one; returns its index.
  std::int32_t open(std::string name, std::uint64_t request);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer (span time minus the time its children cover),
  /// in host seconds, summed over all spans.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Total duration of root spans, host seconds.
  double root_seconds() const;
  /// Chrome trace_event JSON (chrome://tracing, Perfetto). Returns false
  /// when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), index_(tracer ? tracer->open(name, request) : -1) {}
  ~Scoped() {
    if (tracer_) tracer_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Command-line knobs every workload receives.
struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for the traced run.
  std::size_t threads = 1;
};

Outcome run_paper_sweep(const RunArgs& args);
Outcome run_fleet_replay(const RunArgs& args);

/// Fills the per-layer self-time shares and writes the span file.
void finish_trace(const Tracer& tracer, const RunArgs& args, Outcome& out);

}  // namespace perfbench
