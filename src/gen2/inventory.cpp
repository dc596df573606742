#include "gen2/inventory.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace rfidsim::gen2 {

namespace {

obs::Histogram& round_duration_histogram() {
  // Rounds run ~1 ms (empty) to ~1 s (huge populations).
  static obs::Histogram& h = []() -> obs::Histogram& {
    obs::Histogram& registered = obs::histogram(
        "gen2.round_duration_seconds",
        obs::HistogramSpec{
            .first_upper_bound = 1e-3, .growth = 2.0, .buckets = kRoundDurationBuckets});
    // The tally's bucket array is sized for this layout.
    require(registered.edges().size() == kRoundDurationBuckets,
            "gen2.round_duration_seconds registered with a foreign bucket layout");
    return registered;
  }();
  return h;
}

}  // namespace

InventoryEngine::MetricsTally::MetricsTally(MetricsTally&& other) noexcept
    : session_(other.session_), counts_(std::exchange(other.counts_, {})) {}

void InventoryEngine::MetricsTally::record(const InventoryRoundResult& round) {
  ++counts_.rounds;
  counts_.total_slots += round.total_slots;
  counts_.empty_slots += round.empty_slots;
  counts_.collision_slots += round.collision_slots;
  counts_.success_slots += round.success_slots;
  counts_.singulations += round.singulated.size();
  counts_.mpr_decodes += round.mpr_decodes;
  ++counts_.duration_buckets[round_duration_histogram().bucket_index(round.duration_s)];
  counts_.duration_sum_s += round.duration_s;
  counts_.last_q = round.final_q;
}

void InventoryEngine::MetricsTally::flush() {
  if (counts_.rounds == 0) return;
  if (obs::hooks_enabled()) {
    static const struct Metrics {
      obs::Counter& rounds = obs::counter("gen2.rounds");
      obs::Counter& total_slots = obs::counter("gen2.total_slots");
      obs::Counter& empty_slots = obs::counter("gen2.empty_slots");
      obs::Counter& collision_slots = obs::counter("gen2.collision_slots");
      obs::Counter& success_slots = obs::counter("gen2.success_slots");
      obs::Counter& singulations = obs::counter("gen2.singulations");
      obs::Counter& mpr_decodes = obs::counter("gen2.mpr_decodes");
      obs::Gauge& final_q = obs::gauge("gen2.final_q");
      // {session="s0".."s3"} children of the plain gen2.sessions family:
      // which redundancy axis the reads came from.
      std::array<obs::Counter*, 4> sessions = {
          &obs::counter("gen2.sessions", {{"session", "s0"}}),
          &obs::counter("gen2.sessions", {{"session", "s1"}}),
          &obs::counter("gen2.sessions", {{"session", "s2"}}),
          &obs::counter("gen2.sessions", {{"session", "s3"}}),
      };
    } m;
    m.rounds.add(counts_.rounds);
    m.total_slots.add(counts_.total_slots);
    m.empty_slots.add(counts_.empty_slots);
    m.collision_slots.add(counts_.collision_slots);
    m.success_slots.add(counts_.success_slots);
    m.singulations.add(counts_.singulations);
    m.mpr_decodes.add(counts_.mpr_decodes);
    m.final_q.set(counts_.last_q);
    m.sessions[static_cast<std::size_t>(session_)]->add(counts_.singulations);
    round_duration_histogram().add_bucketed(counts_.duration_buckets,
                                            counts_.duration_sum_s);
  }
  counts_ = Counts{};
}

InventoryRoundResult InventoryEngine::run_round(std::vector<TagState>& states,
                                                const std::vector<TagLink>& links,
                                                double t_s, Rng& rng) {
  require(states.size() == links.size(),
          "InventoryEngine: states and links must be parallel arrays");
  if (qfp_ < 0.0) qfp_ = config_.q.initial_q;

  InventoryRoundResult result;
  result.duration_s += config_.timing.round_overhead_s;

  auto clamp_q = [&](double q) {
    return std::clamp(q, static_cast<double>(config_.q.min_q),
                      static_cast<double>(config_.q.max_q));
  };
  qfp_ = clamp_q(qfp_);
  int q = static_cast<int>(std::lround(qfp_));

  // Query: every powered, flag-matching tag draws a slot. A jammed command
  // is missed by all tags (they hear garbage and stay put). In dual-target
  // mode the targeted flag alternates between rounds.
  const InventoriedFlag target = config_.dual_target ? next_target_ : config_.target;
  if (config_.dual_target) {
    next_target_ =
        next_target_ == InventoriedFlag::A ? InventoriedFlag::B : InventoriedFlag::A;
  }
  result.duration_s += config_.timing.query_s;
  const bool query_heard = !rng.bernoulli(config_.command_jam_probability);
  if (query_heard) {
    for (auto& st : states) {
      st.on_query(q, target, config_.session, t_s, rng);
    }
  }

  std::size_t slots_remaining = static_cast<std::size_t>(1) << q;
  const std::size_t mpr = config_.mpr_capacity < 1
                              ? 1
                              : static_cast<std::size_t>(config_.mpr_capacity);

  std::vector<std::size_t>& repliers = repliers_;
  std::vector<std::size_t>& winners = winners_;
  while (slots_remaining > 0 && result.total_slots < config_.q.max_slots_per_round) {
    ++result.total_slots;
    --slots_remaining;

    repliers.clear();
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i].powered() && states[i].replying()) repliers.push_back(i);
    }

    if (repliers.empty()) {
      result.duration_s += config_.timing.empty_slot_s;
      ++result.empty_slots;
      qfp_ = clamp_q(qfp_ - config_.q.step_empty);
    } else {
      // Determine which replies are decodable: all of them when the reader
      // can separate up to `mpr` simultaneous packets and the slot carries
      // no more than that; otherwise only a reply that out-powers the rest
      // by the capture threshold. For mpr == 1 this is exactly the legacy
      // single-reply logic — same branches, same RNG draw order — which is
      // what keeps every pre-MPR bench byte-identical (and is pinned by
      // the MprBitIdentity test).
      winners.clear();
      if (repliers.size() <= mpr) {
        winners = repliers;
      } else {
        double best = -1e18;
        double second = -1e18;
        std::size_t winner = repliers.front();
        for (std::size_t i : repliers) {
          const double p = links[i].rx_power.value();
          if (p > best) {
            second = best;
            best = p;
            winner = i;
          } else if (p > second) {
            second = p;
          }
        }
        if (best - second >= config_.capture_threshold_db) winners.push_back(winner);
      }

      std::size_t slot_successes = 0;
      for (std::size_t w : winners) {
        // RN16 decode, then ACK (a command, jammable), then EPC decode.
        // Each decoded reply runs its own legs: MPR separates the
        // backscatter, but the reader still ACKs every tag individually.
        const TagLink& link = links[w];
        const bool rn16_ok = rng.bernoulli(link.reply_decode_probability);
        const bool ack_ok = rn16_ok && !rng.bernoulli(config_.command_jam_probability);
        const bool epc_ok = ack_ok && rng.bernoulli(link.reply_decode_probability);
        if (epc_ok) {
          states[w].on_acknowledged(t_s);
          result.singulated.push_back(w);
          result.duration_s += config_.timing.singulation_s;
          ++slot_successes;
        }
      }

      if (slot_successes > 0) {
        ++result.success_slots;
        // Reads in a slot that decoded >= 2 simultaneous replies exist
        // only because of MPR; a conventional reader would have lost the
        // whole slot to the collision.
        if (winners.size() >= 2) result.mpr_decodes += slot_successes;
      } else {
        result.duration_s += config_.timing.collided_slot_s;
        ++result.collision_slots;
        qfp_ = clamp_q(qfp_ + config_.q.step_collision);
        // Losers (and failed winners) redraw into the remaining frame.
        const int q_now = static_cast<int>(std::lround(qfp_));
        for (std::size_t i : repliers) states[i].on_reply_lost(q_now, rng);
      }

      // The slot for any remaining replier has been consumed either way.
      for (std::size_t i : repliers) {
        if (states[i].replying()) states[i].on_query_rep();
      }
    }

    // Advance surviving tags to the next slot.
    const bool rep_heard = !rng.bernoulli(config_.command_jam_probability);
    if (rep_heard) {
      for (std::size_t i = 0; i < states.size(); ++i) {
        if (states[i].powered() && states[i].state() == TagProtocolState::Arbitrate) {
          states[i].on_query_rep();
        }
      }
    }
    result.duration_s += config_.timing.query_rep_s;

    // Q adaptation mid-round.
    if (config_.adjust_mid_round) {
      const int q_new = static_cast<int>(std::lround(qfp_));
      if (q_new != q) {
        q = q_new;
        result.duration_s += config_.timing.query_s;
        const bool adj_heard = !rng.bernoulli(config_.command_jam_probability);
        if (adj_heard) {
          for (auto& st : states) st.on_query_adjust(q, rng);
        }
        slots_remaining = static_cast<std::size_t>(1) << q;
      }
    }

    // Early exit once no tag is still contending (a real reader sees only
    // empties from here; cutting them short just saves simulated time).
    const bool any_active = std::any_of(states.begin(), states.end(), [](const TagState& s) {
      return s.powered() && (s.state() == TagProtocolState::Arbitrate ||
                             s.state() == TagProtocolState::Reply);
    });
    if (!any_active) break;
  }

  result.final_q = qfp_;
  if (obs::hooks_enabled()) tally_.record(result);
  return result;
}

}  // namespace rfidsim::gen2
