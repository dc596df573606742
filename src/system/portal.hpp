// PortalSimulator: the full read-point simulation.
//
// Ties together the scene (geometry + motion), the RF layer (link budgets
// under fading), and the Gen 2 MAC (inventory rounds), for one or more
// readers in buffered continuous mode. The output is the same thing a real
// portal hands the back end: a time-stamped event log.
//
// Timing model: each reader runs inventory rounds back to back; rounds of
// different readers proceed concurrently on the simulation clock. Shadow
// fading is redrawn per (tag, round) — the coherence time of portal-scale
// shadowing at 1 m/s is on the order of one round. A fast-fading term adds
// per-transmission variation on the reverse link.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "fault/schedule.hpp"
#include "gen2/interference.hpp"
#include "obs/monitor.hpp"
#include "rf/propagation.hpp"
#include "scene/batch_evaluator.hpp"
#include "scene/scene.hpp"
#include "system/events.hpp"
#include "system/reader.hpp"

namespace rfidsim::sys {

/// Configuration of a complete portal installation.
struct PortalConfig {
  std::vector<ReaderConfig> readers;
  scene::EvaluatorParams evaluator{};
  /// Round-scale shadow fading (dB sigma).
  double shadow_sigma_db = 4.0;
  /// Coherence *distance* of the shadowing process (metres). The fade
  /// pattern is spatial: a tag moving through it sees correlated shadowing
  /// between nearby rounds, decorrelating on the wavelength scale, while a
  /// static tag keeps one realization for the whole pass. Modelled as
  /// AR(1) in displacement per (antenna, tag) path. <= 0 means independent
  /// per round.
  double shadow_coherence_m = 0.35;
  /// Per-transmission fast fading on the reverse link (dB sigma).
  double fast_sigma_db = 2.0;
  /// Per-pass systematic variation, drawn once per (tag, run): badge
  /// placement, clothing or hand contact, label application quality —
  /// effects that persist for a whole pass and that no amount of re-reads
  /// within the pass averages away. This is what keeps well-margined tags
  /// from reading 100% of passes, as the paper's 75-90% rows show.
  double pass_sigma_db = 4.5;
  /// Heavy-tail complement to pass_sigma_db: with this probability a tag
  /// is "badly worn" for the whole pass (badge flipped against the body,
  /// label creased over a metal edge) and suffers pass_outage_db extra
  /// loss. Gaussian pass variation alone cannot produce the ~1-in-10 hard
  /// failures the paper sees on well-margined badge positions.
  double pass_outage_probability = 0.0;
  double pass_outage_db = 18.0;
  gen2::InterferenceParams interference{};
  /// Infrastructure fault processes (reader crashes, dead antennas, RF
  /// jamming). All disabled by default; a fresh schedule is sampled per
  /// run from an RNG forked off the run seed, so fault timelines are as
  /// reproducible as the reads themselves.
  fault::FaultConfig faults{};
  double start_time_s = 0.0;
  double end_time_s = 4.0;
};

/// Per-reader statistics for one run.
struct ReaderRunStats {
  std::size_t rounds = 0;
  std::size_t total_slots = 0;
  std::size_t collision_slots = 0;
  std::size_t success_slots = 0;
  double busy_time_s = 0.0;         ///< Summed round durations.
  std::size_t crashes = 0;          ///< Outage windows hit during the pass.
  double downtime_s = 0.0;          ///< Time lost to crash/restart cycles.
  std::size_t jammed_rounds = 0;    ///< Rounds run under a jamming burst.
  std::size_t dead_antenna_rounds = 0;  ///< Rounds spent keyed into a dead cable.
};

/// Per-run statistics beyond the event log.
struct PortalRunStats {
  std::size_t rounds = 0;
  std::size_t total_slots = 0;
  std::size_t collision_slots = 0;
  std::size_t success_slots = 0;
  double busy_time_s = 0.0;  ///< Summed round durations across readers.
  /// Per-reader breakdown of the aggregates above plus observed faults.
  std::vector<ReaderRunStats> per_reader;
};

/// Simulates one pass (or a static interval) of the configured portal.
class PortalSimulator {
 public:
  /// The simulator references the scene; the scene must outlive it.
  PortalSimulator(const scene::Scene& scene, PortalConfig config);

  /// Runs from start_time to end_time in continuous mode; returns the
  /// chronological event log. Deterministic given `rng`'s seed.
  EventLog run(Rng& rng);

  /// Runs exactly one inventory round per reader at `t_s` (the paper's
  /// "a single read was performed each time" mode, Fig. 2).
  EventLog run_single_round(double t_s, Rng& rng);

  /// Stats from the most recent run.
  const PortalRunStats& stats() const { return stats_; }

  /// The fault timeline the most recent run executed under (empty when
  /// config.faults is all-off). Lets benches and the degraded-mode
  /// assessment see which readers/antennas were actually down.
  const fault::FaultSchedule& fault_schedule() const { return fault_schedule_; }

  /// Summarises the most recent run as one monitor observation: per-reader
  /// rounds from stats(), per-reader and portal-wide distinct-tag counts
  /// from `log` (pass it the log that run just returned). Feedback-free —
  /// reads simulator state only — and independent of the obs switches, so
  /// monitor detection stays available with hooks compiled out.
  obs::PassObservation pass_observation(const EventLog& log) const;

  /// Flushes batched observability tallies (the path evaluator's cache
  /// counters) into the process-wide registry. The evaluator's destructor
  /// does this too; sweep lanes that keep simulators alive call it at lane
  /// completion so mid-sweep registry dumps are complete.
  void flush_obs() const { evaluator_.flush_metrics(); }

 private:
  struct ReaderRuntime {
    ReaderConfig config;
    AntennaMux mux;
    gen2::InventoryEngine engine;
    /// Under InventoryMode::kMultiSession: one engine per configured
    /// session (each keeps its own Qfp, like a real reader's per-session
    /// inventory state). Empty under kSingleSession, where `engine` runs
    /// every round on the exact pre-multi-session code path.
    std::vector<gen2::InventoryEngine> session_engines;
    std::size_t round_index = 0;  ///< Rounds run this pass (session rotation).
    std::vector<gen2::TagState> tag_states;
    double clock_s = 0.0;
    double jam_probability = 0.0;
  };

  /// The engine for reader `rt`'s next round: `engine` in single-session
  /// mode; the interleaved rotation or the sequential time-segment pick
  /// from `session_engines` in multi-session mode.
  gen2::InventoryEngine& select_engine(ReaderRuntime& rt, double t_s);

  /// Builds per-tag link state for one reader's round at time t.
  /// `extra_loss_db` subtracts margin from both link directions (jamming
  /// bursts, dead-cable rounds).
  std::vector<gen2::TagLink> build_links(const ReaderRuntime& rt, std::size_t antenna,
                                         double t_s, Rng& rng,
                                         std::vector<gen2::TagState>& states,
                                         double extra_loss_db = 0.0);

  /// Executes one round for reader `r` at its current clock; appends events.
  void run_reader_round(std::size_t r, EventLog& log, Rng& rng);

  /// AR(1) shadowing state for one (antenna, tag) path.
  struct ShadowState {
    double value_db = 0.0;
    Vec3 last_position;
    bool initialized = false;
  };

  /// Draws the current shadowing for a path, advancing its AR(1)-in-space
  /// state given the tag's current world position.
  double sample_shadow(std::size_t antenna, std::size_t tag_index, const Vec3& position,
                       Rng& rng);

  /// Clears all shadowing states (new pass = new fade pattern) and draws
  /// fresh per-pass tag offsets.
  void reset_pass_state(Rng& rng);

  /// Publishes the finished run's sys.portal.* metrics from stats_ and
  /// `log` (when observability is enabled) and flushes every engine's
  /// gen2.* tally: the round loop itself never touches the registry.
  void publish_pass_metrics(const EventLog& log);

  /// Per-reader labelled registry counters ({reader="rN"} children of the
  /// sys.portal.* families), resolved on the first publish.
  struct ReaderHooks {
    obs::Counter* rounds = nullptr;
    obs::Counter* read_events = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* jammed_rounds = nullptr;
    obs::Counter* dead_antenna_rounds = nullptr;
  };

  const scene::Scene& scene_;
  PortalConfig config_;
  /// The SoA batch kernel: one reader round evaluates every tag at one
  /// time instant, which is exactly its shape. Bit-identical to the scalar
  /// PathEvaluator (the retained oracle), so swapping it in changed no
  /// event stream.
  scene::BatchPathEvaluator evaluator_;
  std::vector<scene::TagAddress> tags_;
  std::vector<rf::PathTerms> terms_scratch_;  ///< Reused per round.
  std::vector<ReaderRuntime> readers_;
  std::vector<std::vector<ShadowState>> shadow_;  ///< [antenna][tag].
  std::vector<double> pass_offset_db_;            ///< Per-tag, per-run.
  fault::FaultSchedule fault_schedule_;           ///< Sampled per run.
  PortalRunStats stats_;
  std::vector<ReaderHooks> reader_hooks_;         ///< Lazy; see publish_pass_metrics.
};

}  // namespace rfidsim::sys
