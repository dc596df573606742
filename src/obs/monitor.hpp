// rfidsim::obs — online reliability monitor.
//
// The paper's reliability model is predictive: given per-opportunity read
// probabilities P_i, a portal with independent opportunities identifies an
// object with R_C = 1 - prod(1 - P_i). This monitor is the online
// counterpart: it watches a stream of portal passes and estimates both
// sides of that equation as they happen — the *observed* identification
// rate (with a Wilson score interval) and the *predicted* rate composed
// from per-reader windowed read rates — and raises typed alerts when the
// stream drifts from healthy behaviour:
//
//   kSilence         a reader completed zero inventory rounds during a
//                    pass in which the portal was active (dead reader,
//                    cut cable).
//   kReaderDegraded  a reader's round deficit — the fraction of its
//                    healthy-baseline round throughput it failed to
//                    deliver this pass — drifted high, detected by an
//                    EWMA and a CUSUM over per-pass deficits. The
//                    baseline is the reader's own mean rounds per pass
//                    across the warm-up passes, so common-mode faults
//                    (every reader degrading together) are caught, not
//                    just asymmetric ones; until the baseline freezes
//                    the deficit falls back to 1 - rounds / max rounds
//                    against the fastest reader of the pass.
//   kModelDivergence the independence model's prediction left the Wilson
//                    interval of the observed rate by more than a margin
//                    (correlated failures, model violation — the paper's
//                    central caveat).
//
// Contracts:
//   Feedback-free  observe_pass() only reads the observation; nothing
//                  flows back into simulated state. Registry metrics and
//                  structured-log narration are gated on hooks_enabled()
//                  (and disappear under -DRFIDSIM_OBS=OFF), but the
//                  *detection* logic — estimators, detectors, alerts() —
//                  is plain deterministic arithmetic that always runs,
//                  like any other analysis stage.
//   Determinism    feed passes in pass-index order from one thread and
//                  the full monitor state (alerts, estimates) is a pure
//                  function of the observation sequence: byte-identical
//                  across runs, thread counts, and obs on/off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/structured_log.hpp"

namespace rfidsim::obs {

/// Sliding window over per-pass (successes, trials) pairs with O(1)
/// updates: the newest `window` passes contribute to rate() and wilson().
class SlidingWindowRate {
 public:
  explicit SlidingWindowRate(std::size_t window = 16);

  /// Appends one pass worth of counts, evicting the oldest pass once the
  /// window is full.
  void add(std::uint64_t successes, std::uint64_t trials);

  std::uint64_t successes() const { return success_sum_; }
  std::uint64_t trials() const { return trial_sum_; }
  /// Windowed proportion; 0 when the window holds no trials.
  double rate() const;
  /// Wilson score interval over the windowed counts.
  ProportionInterval wilson(double z = 1.959963984540054) const;
  /// Passes currently inside the window.
  std::size_t size() const { return filled_; }
  void reset();

 private:
  struct PassCounts {
    std::uint64_t successes = 0;
    std::uint64_t trials = 0;
  };
  std::vector<PassCounts> ring_;
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t success_sum_ = 0;
  std::uint64_t trial_sum_ = 0;
};

/// Exponentially weighted moving average drift detector:
/// s <- lambda * x + (1 - lambda) * s, alarmed when s > threshold.
/// The first sample seeds s directly.
struct EwmaConfig {
  double lambda = 0.25;
  double threshold = 0.5;
};

class EwmaDetector {
 public:
  explicit EwmaDetector(EwmaConfig config = {});
  /// Folds in one sample and returns the smoothed value.
  double update(double x);
  double value() const { return value_; }
  bool alarmed() const { return seeded_ && value_ > config_.threshold; }
  void reset();

 private:
  EwmaConfig config_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// One-sided CUSUM: S <- max(0, S + x - reference), alarmed when
/// S > threshold. `reference` is the slack absorbed per pass, so a
/// persistent deficit of d fires after about threshold / (d - reference)
/// passes — that quotient is the detection latency knob.
struct CusumConfig {
  double reference = 0.2;
  double threshold = 1.5;
};

class CusumDetector {
 public:
  explicit CusumDetector(CusumConfig config = {});
  /// Accumulates one sample and returns the new statistic.
  double update(double x);
  double value() const { return value_; }
  bool alarmed() const { return value_ > config_.threshold; }
  void reset();

 private:
  CusumConfig config_;
  double value_ = 0.0;
};

enum class AlertType : int {
  kReaderDegraded = 0,
  kModelDivergence = 1,
  kSilence = 2,
  /// The uplink delivered frames the wire decoder classified as corrupt
  /// (bad CRC / truncated / bad magic / ...), or quarantined a batch after
  /// exhausting NAK retransmissions. Transport-level, reader = -1.
  kWireCorruption = 3,
  /// A delivered batch arrived past the feed's staleness horizon. It still
  /// repairs stored truth — this alert exists precisely so that silent
  /// late-data path is observable. Transport-level, reader = -1.
  kStaleBatch = 4,
  /// The facility's event-time low-watermark (max event time fully merged
  /// into the store) failed to advance for watermark_stall_passes
  /// consecutive passes while the pass window kept moving — a dead uplink
  /// or wedged feed, seen from the freshness side. The alert value is the
  /// stall streak in passes at firing time. Feed-level, reader = -1.
  kWatermarkStalled = 5,
};

/// Number of AlertType values (alert-count arrays index by the enum).
inline constexpr std::size_t kAlertTypeCount = 6;

/// Stable lower-snake name ("reader_degraded", "model_divergence",
/// "silence", "wire_corruption", "stale_batch", "watermark_stalled") used
/// for alert-counter labels and log event names.
const char* alert_type_name(AlertType type);

/// One raised alert. Alerts latch: a condition fires once on its rising
/// edge and re-arms only after it clears, so a ten-pass outage is one
/// alert, not ten.
struct Alert {
  AlertType type;
  std::uint64_t pass = 0;  ///< Pass index (0-based) that raised it.
  int reader = -1;         ///< Reader index; -1 for portal-level alerts.
  double value = 0.0;      ///< Detector statistic at firing time.
  double threshold = 0.0;  ///< Threshold it crossed.
  std::string detector;    ///< "cusum", "ewma", "silence", or "model".
};

/// What one reader saw during one portal pass.
struct ReaderPassObservation {
  std::uint64_t rounds = 0;        ///< Inventory rounds completed.
  std::uint64_t objects_seen = 0;  ///< Objects this reader read >= once.
};

/// One portal pass as fed to the monitor. `objects_total` is the number
/// of objects that transited; `objects_identified` the number read by at
/// least one reader (the portal-level R_C numerator).
struct PassObservation {
  double window_begin_s = 0.0;
  double window_end_s = 0.0;
  std::uint64_t objects_total = 0;
  std::uint64_t objects_identified = 0;
  std::vector<ReaderPassObservation> readers;
};

/// What the transport layer (wire uplink + batch staleness screening) did
/// during one pass, as fed to observe_transport(). All counts are for this
/// pass only, not cumulative.
struct TransportObservation {
  std::uint64_t frames = 0;              ///< Frame transmissions attempted.
  std::uint64_t corrupt_frames = 0;      ///< Receiver-detected bad frames.
  std::uint64_t recovered_batches = 0;   ///< Delivered after >= 1 NAK.
  std::uint64_t quarantined_batches = 0; ///< Dropped: NAK budget exhausted.
  std::uint64_t stale_batches = 0;       ///< Arrived past the staleness horizon.
  double window_end_s = 0.0;
};

/// One pass's freshness reading, as fed to observe_watermark(). The
/// watermark is the facility's event-time low-watermark: the maximum event
/// time the caller has *fully merged* into stored truth (not merely
/// received). Negative = nothing merged yet.
struct WatermarkObservation {
  double watermark_s = -1.0;
  double window_end_s = 0.0;
};

struct MonitorConfig {
  /// Passes per sliding window for read-rate and R_C estimation.
  std::size_t window_passes = 16;
  /// Standard-normal quantile for Wilson intervals (1.96 ~ 95%).
  double wilson_z = 1.959963984540054;
  /// Passes before drift and divergence alerts may fire (estimator
  /// warm-up). Silence alerts are exempt: zero rounds is unambiguous.
  std::size_t warmup_passes = 4;
  /// Extra slack around the observed Wilson interval before a model
  /// divergence fires.
  double divergence_margin = 0.15;
  /// Minimum windowed trials before divergence is evaluated.
  std::uint64_t min_window_objects = 8;
  EwmaConfig ewma;
  CusumConfig cusum;
  /// Consecutive passes the event-time watermark may fail to advance (while
  /// the pass window moves) before kWatermarkStalled fires. The detection
  /// latency is exactly this many passes from the stall's onset.
  std::size_t watermark_stall_passes = 3;
};

/// The streaming monitor. Construct once per portal/run, feed
/// observe_pass() in pass-index order, read alerts()/estimates at any
/// point. Optionally narrates into a StructuredLog (one rate-limit
/// window per pass) and mirrors estimates into the metrics registry —
/// both only when obs hooks are enabled.
class ReliabilityMonitor {
 public:
  explicit ReliabilityMonitor(MonitorConfig config = {});

  /// Directs alert/estimate narration to `log` (nullptr silences it).
  void set_log(StructuredLog* log) { log_ = log; }

  /// Folds in one pass. Readers must keep the same count and order on
  /// every call.
  void observe_pass(const PassObservation& obs);

  /// Folds in one pass's transport tallies (call once per pass, alongside
  /// observe_pass — order between the two does not matter). Raises the
  /// typed kWireCorruption / kStaleBatch alerts on their rising edges,
  /// latched exactly like the reader alerts: a ten-pass corruption storm
  /// is one alert, re-armed only after a clean pass.
  void observe_transport(const TransportObservation& obs);

  /// Folds in one pass's freshness reading (call once per pass, alongside
  /// observe_pass; watermark passes are indexed independently). Raises the
  /// typed kWatermarkStalled alert once the watermark has sat still for
  /// watermark_stall_passes consecutive passes, latched: a ten-pass outage
  /// is one alert, re-armed only after the watermark advances again.
  void observe_watermark(const WatermarkObservation& obs);

  /// All alerts raised so far, in firing order.
  const std::vector<Alert>& alerts() const { return alerts_; }
  /// First alert of `type` for `reader` (-1 = portal-level), or nullptr.
  /// first_alert(type) matches any reader. Detection latency for a fault
  /// on reader r is first_alert(...)->pass minus the fault's onset pass.
  const Alert* first_alert(AlertType type, int reader) const;
  const Alert* first_alert(AlertType type) const;

  std::uint64_t passes() const { return passes_; }
  std::size_t reader_count() const { return readers_.size(); }

  /// Windowed observed portal identification rate and its Wilson CI.
  double observed_rc() const { return portal_.rate(); }
  ProportionInterval observed_rc_interval() const;
  /// Windowed model prediction 1 - prod(1 - P_r) over per-reader rates.
  double predicted_rc() const;

  /// Per-reader windowed read rate / detector statistics (for exposition
  /// and tests).
  double reader_read_rate(std::size_t reader) const;
  double reader_ewma(std::size_t reader) const;
  double reader_cusum(std::size_t reader) const;
  /// The reader's frozen healthy-throughput baseline (mean rounds per
  /// pass over the warm-up passes); 0 until warm-up completes.
  double reader_baseline_rounds(std::size_t reader) const;

  /// Latest watermark reading (negative until one arrives) and its age at
  /// the last observed pass (infinite until anything merged).
  double watermark_s() const { return watermark_s_; }
  double watermark_age_s() const;
  /// Consecutive non-advancing passes so far; latched stall state.
  std::uint64_t watermark_stall_streak() const { return watermark_streak_; }
  bool watermark_stalled() const { return watermark_latched_; }

  const MonitorConfig& config() const { return config_; }

  /// Returns to the just-constructed state (alerts cleared, detectors
  /// and windows reset; the log pointer is kept).
  void reset();

 private:
  struct ReaderState {
    SlidingWindowRate seen;
    EwmaDetector ewma;
    CusumDetector cusum;
    std::uint64_t warmup_rounds = 0;   ///< Rounds summed over warm-up passes.
    double baseline_rounds = 0.0;      ///< Frozen at the end of warm-up.
    bool degraded_latched = false;
    bool silent_latched = false;
  };

  void raise(AlertType type, std::uint64_t pass, int reader, double value,
             double threshold, const char* detector, double sim_time_s);
  void publish_metrics();

  /// {reader="rN"} registry gauges, resolved on the first publish that
  /// sees reader N (the roster size is fixed once the first pass lands).
  struct ReaderGauges {
    Gauge* read_rate = nullptr;
    Gauge* cusum = nullptr;
  };

  MonitorConfig config_;
  StructuredLog* log_ = nullptr;
  std::vector<ReaderState> readers_;
  SlidingWindowRate portal_;
  std::vector<Alert> alerts_;
  std::uint64_t passes_ = 0;
  std::uint64_t transport_passes_ = 0;
  std::uint64_t watermark_passes_ = 0;
  double watermark_s_ = -1.0;
  double watermark_window_end_s_ = 0.0;
  std::uint64_t watermark_streak_ = 0;
  bool divergence_latched_ = false;
  bool wire_corruption_latched_ = false;
  bool stale_latched_ = false;
  bool watermark_latched_ = false;
  std::vector<ReaderGauges> reader_gauges_;
};

}  // namespace rfidsim::obs
