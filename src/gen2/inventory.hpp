// Reader-side Gen 2 inventory: slotted-ALOHA rounds with the Q algorithm.
//
// One InventoryEngine::run_round executes a full Query...QueryRep frame
// against a population of TagState machines:
//   * each powered, flag-matching tag draws a slot in [0, 2^Q),
//   * per slot the engine classifies empty / single / collided (with a
//     capture-effect escape hatch for power-dominant tags),
//   * single replies go through RN16 decode -> ACK -> EPC decode, each leg
//     subject to the physical-layer success probability and to reader
//     interference jamming,
//   * Qfp floats up by step_collision and down by step_empty, optionally issuing
//     mid-round QueryAdjust.
// The result carries both the singulated tags and the time the round
// consumed — time a moving tag does not get back.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "gen2/session.hpp"
#include "gen2/tag_state.hpp"
#include "gen2/timing.hpp"

namespace rfidsim::gen2 {

/// Per-tag physical-link quality for the duration of one round.
struct TagLink {
  /// Tag is energized (forward link closed under this round's fading).
  bool powered = false;
  /// Probability the reader decodes one tag transmission (RN16 or EPC).
  double reply_decode_probability = 1.0;
  /// Backscatter power at the reader, for capture-effect comparisons.
  DbmPower rx_power{-60.0};
};

/// Inventory-engine configuration.
struct InventoryConfig {
  QAlgorithmParams q{};
  LinkTiming timing{};
  Session session = Session::S0;
  InventoriedFlag target = InventoriedFlag::A;
  /// If one colliding reply out-powers all others by at least this much,
  /// the reader captures it instead of losing the slot.
  double capture_threshold_db = 6.0;
  /// Probability a reader *command* is unintelligible to tags because
  /// another reader is transmitting (see gen2::ReaderInterference).
  double command_jam_probability = 0.0;
  /// Issue QueryAdjust when round(Qfp) changes mid-round (true matches
  /// modern readers; false adjusts only between rounds).
  bool adjust_mid_round = true;
  /// Dual-target inventory: alternate the Query's target flag (A, B, A,
  /// ...) between rounds so already-read tags answer again. Standard
  /// reader practice when the application wants RSSI tracked across a
  /// whole pass (e.g. zone filtering) instead of one read per tag.
  bool dual_target = false;
  /// Multi-packet reception capability: the maximum number of simultaneous
  /// tag replies the reader can separate and decode in one slot (Pudasaini
  /// et al.). 1 is a conventional reader — slots with two or more replies
  /// are collisions unless the capture effect saves the strongest — and
  /// the engine is then bit-identical to the pre-MPR implementation (same
  /// code path, same RNG draw order; enforced by test). With M >= 2 a slot
  /// carrying up to M replies decodes them all, each reply still running
  /// its own RN16 -> ACK -> EPC legs; slots with more than M replies fall
  /// back to the capture check.
  int mpr_capacity = 1;
};

/// Outcome of one inventory round.
struct InventoryRoundResult {
  std::vector<std::size_t> singulated;  ///< Tag indices read this round.
  std::size_t total_slots = 0;
  std::size_t empty_slots = 0;
  std::size_t collision_slots = 0;
  std::size_t success_slots = 0;  ///< Slots with at least one decode.
  /// Successful decodes that happened in slots carrying two or more
  /// simultaneously-decoded replies — the reads only a multi-packet-
  /// reception reader gets. Always 0 when mpr_capacity == 1.
  std::size_t mpr_decodes = 0;
  double duration_s = 0.0;
  double final_q = 0.0;
};

/// Finite buckets of the gen2.round_duration_seconds histogram (1 ms,
/// doubling; a +Inf bucket follows).
inline constexpr std::size_t kRoundDurationBuckets = 12;

/// Executes inventory rounds over a tag population.
///
/// Observability: while obs::hooks_enabled(), each round is folded into a
/// plain per-engine tally, never into the shared registry; flush_metrics()
/// publishes the tally to the gen2.* metrics. The destructor flushes too.
/// A copied engine starts with an empty tally and a moved-from one is left
/// with none, so no round is ever published twice or dropped; engines are
/// not assignable.
class InventoryEngine {
 public:
  explicit InventoryEngine(InventoryConfig config)
      : config_(config), tally_(config.session) {}

  /// Runs one full round starting at simulation time `t_s`.
  ///
  /// `states` and `links` are parallel arrays (one entry per tag); states
  /// persist across rounds (inventoried flags, power). The caller is
  /// responsible for setting each tag's power via TagState::set_powered
  /// before the round (the engine does not evaluate RF).
  InventoryRoundResult run_round(std::vector<TagState>& states,
                                 const std::vector<TagLink>& links, double t_s,
                                 Rng& rng);

  const InventoryConfig& config() const { return config_; }
  /// Current floating-point Q (persists across rounds, as real readers do).
  double qfp() const { return qfp_; }
  /// Resets Qfp to the configured initial value.
  void reset_q() { qfp_ = config_.q.initial_q; }

  /// Adds the rounds tallied since construction or the last flush to the
  /// gen2.* registry metrics (when observability is enabled) and clears
  /// the tally. PortalSimulator and MultiSessionInventory flush once per
  /// pass, so a registry read mid-pass lags by at most that pass.
  void flush_metrics() { tally_.flush(); }

 private:
  /// Single-writer gen2.* tally: rounds, slot outcomes, singulations (the
  /// per-session family child is this engine's session), MPR decodes, the
  /// last round's Q and round durations bucketed with the registry
  /// histogram's own edges.
  class MetricsTally {
   public:
    explicit MetricsTally(Session session) : session_(session) {}
    MetricsTally(const MetricsTally& other) : session_(other.session_) {}
    MetricsTally(MetricsTally&& other) noexcept;
    MetricsTally& operator=(const MetricsTally&) = delete;
    MetricsTally& operator=(MetricsTally&&) = delete;
    ~MetricsTally() { flush(); }

    void record(const InventoryRoundResult& round);
    void flush();

   private:
    struct Counts {
      std::uint64_t rounds = 0;
      std::uint64_t total_slots = 0;
      std::uint64_t empty_slots = 0;
      std::uint64_t collision_slots = 0;
      std::uint64_t success_slots = 0;
      std::uint64_t singulations = 0;
      std::uint64_t mpr_decodes = 0;
      /// gen2.round_duration_seconds buckets, +Inf last.
      std::array<std::uint64_t, kRoundDurationBuckets + 1> duration_buckets{};
      double duration_sum_s = 0.0;
      double last_q = 0.0;
    };
    Session session_;
    Counts counts_;
  };

  InventoryConfig config_;
  double qfp_ = -1.0;  ///< Lazily initialized from config on first round.
  /// Which flag the next round targets (dual-target mode toggles this).
  InventoriedFlag next_target_ = InventoriedFlag::A;
  /// Per-slot scratch reused across rounds (contents never outlive a slot).
  std::vector<std::size_t> repliers_;
  std::vector<std::size_t> winners_;
  MetricsTally tally_;
};

}  // namespace rfidsim::gen2
