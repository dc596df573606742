// rfidsim::obs — low-overhead observability for the simulator.
//
// The simulator is a measurement instrument; this module makes the
// instrument itself observable: a process-wide registry of named counters,
// gauges and fixed-bucket log-scale histograms, populated by hooks in the
// hot layers (path-evaluator cache, Gen 2 inventory, portal, sweep engine,
// ingest/upload, fault schedules) and exported in Prometheus-style text
// exposition format.
//
// FEEDBACK-FREE CONTRACT: observability is write-only with respect to the
// simulation. No hook ever reads a metric back into simulated state, none
// draws from (or even touches) an Rng, and disabling the whole subsystem —
// at runtime via RFIDSIM_OBS=off / set_enabled(false), or at compile time
// via -DRFIDSIM_OBS=OFF — changes not a single simulated bit.
// bench/perf_baseline holds the event streams to byte-identity across all
// three configurations.
//
// Determinism: metric *values* of simulated quantities (slot counts, round
// durations, quarantine tallies) are pure functions of the run seeds, so a
// metrics dump from a deterministic workload is itself deterministic.
// Wall-clock only enters through trace spans and idle-time gauges, which
// measure the instrument, never the simulation. Histogram bucket edges are
// derived by repeated IEEE-754 multiplication from the spec, identical on
// every conforming platform.
//
// Thread safety: all metric mutations are lock-free atomics; registration
// is mutex-guarded and returns stable references (safe to cache across
// threads for the registry's lifetime).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rfidsim::obs {

namespace detail {
/// Runtime master switches, initialised once from RFIDSIM_OBS (see
/// env_mode) and adjustable via set_enabled / set_trace_enabled.
std::atomic<bool>& metrics_flag();
std::atomic<bool>& trace_flag();
}  // namespace detail

/// True when metric hooks should record. Cheap enough for per-round call
/// sites: one relaxed atomic load (and constant false when the subsystem
/// is compiled out, letting the optimizer drop the hook entirely).
inline bool hooks_enabled() {
#ifdef RFIDSIM_OBS_DISABLED
  return false;
#else
  return detail::metrics_flag().load(std::memory_order_relaxed);
#endif
}

/// True when TraceSpan should record (requires hooks_enabled too).
inline bool trace_hooks_enabled() {
#ifdef RFIDSIM_OBS_DISABLED
  return false;
#else
  return detail::trace_flag().load(std::memory_order_relaxed) &&
         detail::metrics_flag().load(std::memory_order_relaxed);
#endif
}

bool enabled();
void set_enabled(bool on);
bool trace_enabled();
void set_trace_enabled(bool on);

/// Parsed meaning of one RFIDSIM_OBS value. Exposed for tests.
struct EnvMode {
  bool metrics = true;
  bool trace = false;
  bool profile = false;
};

/// "off"/"0"/"false" disable everything; "trace" additionally enables
/// span recording; "prof" additionally requests the sampling profiler and
/// stage attribution (bench::Session starts them — see obs/prof.hpp);
/// anything else (including unset) means metrics on, tracing off.
EnvMode env_mode(const char* value);

/// True when RFIDSIM_OBS=prof asked for profiling + attribution at
/// startup. Harness-level (bench::Session reads it once); not a hot-path
/// gate.
bool profile_requested();
void set_profile_requested(bool on);

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous or accumulated double-valued signal (queue depths,
/// seconds of downtime/backoff/idle).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Atomic accumulate (CAS loop; gauges are not hot-path metrics).
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale bucket layout: bucket i covers
/// (first_upper_bound * growth^(i-1), first_upper_bound * growth^i], with
/// an implicit +Inf overflow bucket after the last finite edge. Edges are
/// computed by repeated double multiplication — bit-identical on every
/// IEEE-754 platform (held by tests/obs/metrics_test.cpp).
struct HistogramSpec {
  double first_upper_bound = 1e-6;
  double growth = 4.0;
  std::size_t buckets = 16;  ///< Finite buckets (excluding +Inf).
};

/// Fixed-bucket histogram with atomic per-bucket counts.
class Histogram {
 public:
  explicit Histogram(const HistogramSpec& spec);

  void observe(double x);

  /// The bucket observe(x) counts `x` in: the first finite edge >= x, or
  /// edges().size() (the +Inf bucket) past the last one.
  std::size_t bucket_index(double x) const;

  /// Bulk add of pre-bucketed observations, for hooks that tally locally
  /// and publish once: `bucket_counts[i]` more observations in bucket i
  /// (size edges().size() + 1, the last entry the +Inf bucket; throws
  /// ConfigError otherwise) whose values total `sum`. Bucket counts and
  /// count() end up exactly as if every value had gone through observe();
  /// sum() may differ in the last bits, because the caller's partial sum
  /// associates the additions differently.
  void add_bucketed(std::span<const std::uint64_t> bucket_counts, double sum);

  const HistogramSpec& spec() const { return spec_; }
  /// Finite upper bucket edges, ascending (size == spec().buckets).
  const std::vector<double>& edges() const { return edges_; }
  /// Count in finite bucket i, or the +Inf bucket at i == edges().size().
  std::uint64_t bucket_count(std::size_t i) const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Interpolated quantile estimate for q in [0, 1] (throws ConfigError
  /// outside). Inside the bracketing bucket the value is interpolated
  /// *geometrically* between the bucket's edges — the natural convention
  /// for log-scale buckets, where a rank fraction f maps to
  /// lo * (hi/lo)^f (bucket 0's lower edge is first_upper_bound/growth).
  /// Ranks past the last finite edge clamp to it (the +Inf bucket has no
  /// upper bound to interpolate toward); an empty histogram yields 0.
  /// Pinned by golden hexfloat tests (tests/obs/metrics_test.cpp).
  double quantile(double q) const;
  void reset();

 private:
  HistogramSpec spec_;
  std::vector<double> edges_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< edges + overflow.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One label key/value pair of a labelled metric. Keys are plain
/// identifiers ([a-zA-Z_][a-zA-Z0-9_]*); values are arbitrary strings —
/// the exposition escapes `\`, `"` and newline per the Prometheus text
/// format.
struct Label {
  std::string_view key;
  std::string_view value;
};

/// Named metrics, one namespace per registry. The process-wide instance
/// (obs::registry()) is what the instrumentation hooks feed; tests build
/// their own.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. Names are dotted lower-case paths
  /// ("gen2.collision_slots"); re-requesting an existing name returns the
  /// same object; requesting it as a different kind throws ConfigError.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `spec` applies on first creation only.
  Histogram& histogram(std::string_view name, const HistogramSpec& spec = {});

  /// Labelled variants: one child metric per distinct label set of a
  /// family ("sys.portal.reader_rounds" + {reader="0"}). Labels are
  /// canonicalised by key order, so lookup order never mints a second
  /// child. All children of a family share one kind — mixing kinds within
  /// a family throws ConfigError, exactly as re-registering a plain name
  /// under a different kind does.
  Counter& counter(std::string_view name, std::initializer_list<Label> labels);
  Gauge& gauge(std::string_view name, std::initializer_list<Label> labels);
  Histogram& histogram(std::string_view name, std::initializer_list<Label> labels,
                       const HistogramSpec& spec = {});

  /// Zeroes every registered metric (registrations survive).
  void reset();

  /// Prometheus-style text exposition, metrics sorted by name (children
  /// of a labelled family sorted by label set under one # TYPE line).
  /// Dotted names are exported as rfidsim_<name with '.' -> '_'>;
  /// histograms get the conventional _bucket{le=...}/_sum/_count series
  /// plus summary-style `# rfidsim_x{quantile="..."}` comment lines for
  /// p50/p95/p99 (comments, so strict parsers skip them).
  void write_exposition(std::ostream& out) const;
  std::string exposition() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide registry all built-in instrumentation feeds.
MetricsRegistry& registry();

/// Shorthands for registry() lookups (stable references; call sites cache
/// them in function-local statics).
inline Counter& counter(std::string_view name) { return registry().counter(name); }
inline Gauge& gauge(std::string_view name) { return registry().gauge(name); }
inline Histogram& histogram(std::string_view name, const HistogramSpec& spec = {}) {
  return registry().histogram(name, spec);
}
inline Counter& counter(std::string_view name, std::initializer_list<Label> labels) {
  return registry().counter(name, labels);
}
inline Gauge& gauge(std::string_view name, std::initializer_list<Label> labels) {
  return registry().gauge(name, labels);
}

/// Prometheus label-value escaping (`\` -> `\\`, `"` -> `\"`, newline ->
/// `\n`), as write_exposition applies to every label value. Exposed for
/// the structured log and tests.
std::string escape_label_value(std::string_view value);

}  // namespace rfidsim::obs
