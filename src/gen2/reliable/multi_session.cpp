#include "gen2/reliable/multi_session.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rfidsim::gen2::reliable {

namespace {

/// Folds one round's outcome into its session's pass accumulator.
void accumulate(SessionPassResult& pass, const InventoryRoundResult& round,
                std::vector<std::size_t>& scratch_seen) {
  ++pass.rounds;
  pass.singulations += round.singulated.size();
  pass.mpr_decodes += round.mpr_decodes;
  pass.duration_s += round.duration_s;
  for (std::size_t tag : round.singulated) {
    if (tag >= scratch_seen.size()) scratch_seen.resize(tag + 1, 0);
    ++scratch_seen[tag];
  }
}

}  // namespace

MultiSessionInventory::MultiSessionInventory(MultiSessionConfig config)
    : config_(std::move(config)) {
  require(!config_.sessions.empty(),
          "MultiSessionInventory: need at least one session");
  require(config_.rounds_per_session > 0,
          "MultiSessionInventory: need at least one round per session");
  engines_.reserve(config_.sessions.size());
  for (Session s : config_.sessions) {
    InventoryConfig c = config_.base;
    c.session = s;
    engines_.emplace_back(c);
  }
}

void MultiSessionInventory::reset_q() {
  for (auto& e : engines_) e.reset_q();
}

MultiSessionResult MultiSessionInventory::run(std::vector<TagState>& states,
                                              const std::vector<TagLink>& links,
                                              double t_s, Rng& rng) {
  const std::size_t k = engines_.size();
  MultiSessionResult result;
  result.per_session.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    result.per_session[i].session = config_.sessions[i];
  }

  // Per-session singulation counts, grown lazily to the max tag index.
  std::vector<std::vector<std::size_t>> seen(k);

  // Both schedules advance ONE shared clock by each round's air time, so a
  // later round — whichever session it belongs to — observes the flag decay
  // produced by every earlier round. That ordering difference is the whole
  // point of having two schedules.
  double clock_s = t_s;
  auto run_one = [&](std::size_t idx) {
    const InventoryRoundResult round =
        engines_[idx].run_round(states, links, clock_s, rng);
    clock_s += round.duration_s;
    accumulate(result.per_session[idx], round, seen[idx]);
  };

  if (config_.schedule == SessionSchedule::kSequential) {
    for (std::size_t idx = 0; idx < k; ++idx) {
      for (std::size_t r = 0; r < config_.rounds_per_session; ++r) run_one(idx);
    }
  } else {
    for (std::size_t r = 0; r < config_.rounds_per_session; ++r) {
      for (std::size_t idx = 0; idx < k; ++idx) run_one(idx);
    }
  }

  result.total_duration_s = clock_s - t_s;
  for (auto& e : engines_) e.flush_metrics();

  // Collapse per-session counts into distinct-tag lists + the fusion input.
  std::size_t population = states.size();
  for (const auto& counts : seen) population = std::max(population, counts.size());
  result.sessions_seen.assign(population, 0);
  for (std::size_t idx = 0; idx < k; ++idx) {
    auto& pass = result.per_session[idx];
    for (std::size_t tag = 0; tag < seen[idx].size(); ++tag) {
      if (seen[idx][tag] > 0) {
        pass.read_tags.push_back(tag);
        ++result.sessions_seen[tag];
      }
    }
  }
  return result;
}

}  // namespace rfidsim::gen2::reliable
