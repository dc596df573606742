#include "system/portal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <unordered_set>

#include "common/error.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rf/link_budget.hpp"

namespace rfidsim::sys {

namespace {

// Gaussian tail probability P(N(0, sigma) > -margin).
double exceed_probability(double margin_db, double sigma_db) {
  if (sigma_db <= 0.0) return margin_db > 0.0 ? 1.0 : 0.0;
  return 0.5 * std::erfc(-margin_db / (sigma_db * std::numbers::sqrt2));
}

/// Portal-level registry metrics, published once per pass from the run's
/// stats (see publish_pass_metrics).
struct PortalMetrics {
  obs::Counter& rounds = obs::counter("sys.portal.rounds");
  obs::Counter& read_events = obs::counter("sys.portal.read_events");
  obs::Counter& crashes = obs::counter("sys.portal.reader_crashes");
  obs::Gauge& downtime_s = obs::gauge("sys.portal.reader_downtime_seconds");
  obs::Counter& jammed_rounds = obs::counter("sys.portal.jammed_rounds");
  obs::Counter& dead_antenna_rounds = obs::counter("sys.portal.dead_antenna_rounds");
  obs::Counter& passes = obs::counter("sys.portal.passes");
};

PortalMetrics& portal_metrics() {
  static PortalMetrics m;
  return m;
}

}  // namespace

void PortalSimulator::publish_pass_metrics(const EventLog& log) {
  for (ReaderRuntime& rt : readers_) {
    rt.engine.flush_metrics();
    for (auto& e : rt.session_engines) e.flush_metrics();
  }
  if (!obs::hooks_enabled()) return;
  if (reader_hooks_.empty()) {
    reader_hooks_.reserve(readers_.size());
    char label[24];
    for (std::size_t i = 0; i < readers_.size(); ++i) {
      std::snprintf(label, sizeof label, "r%zu", i);
      reader_hooks_.push_back(ReaderHooks{
          .rounds = &obs::counter("sys.portal.rounds", {{"reader", label}}),
          .read_events = &obs::counter("sys.portal.read_events", {{"reader", label}}),
          .crashes = &obs::counter("sys.portal.reader_crashes", {{"reader", label}}),
          .jammed_rounds = &obs::counter("sys.portal.jammed_rounds", {{"reader", label}}),
          .dead_antenna_rounds =
              &obs::counter("sys.portal.dead_antenna_rounds", {{"reader", label}}),
      });
    }
  }
  PortalMetrics& m = portal_metrics();
  auto add = [](obs::Counter& plain, obs::Counter* labelled, std::uint64_t n) {
    if (n == 0) return;
    plain.add(n);
    labelled->add(n);
  };
  for (std::size_t r = 0; r < stats_.per_reader.size(); ++r) {
    const ReaderRunStats& rs = stats_.per_reader[r];
    const ReaderHooks& rh = reader_hooks_[r];
    add(m.rounds, rh.rounds, rs.rounds);
    add(m.read_events, rh.read_events,
        static_cast<std::uint64_t>(std::count_if(
            log.begin(), log.end(), [r](const ReadEvent& ev) { return ev.reader_index == r; })));
    add(m.jammed_rounds, rh.jammed_rounds, rs.jammed_rounds);
    add(m.dead_antenna_rounds, rh.dead_antenna_rounds, rs.dead_antenna_rounds);
    add(m.crashes, rh.crashes, rs.crashes);
    if (rs.downtime_s > 0.0) m.downtime_s.add(rs.downtime_s);
  }
}

PortalSimulator::PortalSimulator(const scene::Scene& scene, PortalConfig config)
    : scene_(scene),
      config_(std::move(config)),
      evaluator_(scene, config_.evaluator),
      tags_(scene.all_tags()) {
  require(!config_.readers.empty(), "PortalSimulator: portal needs at least one reader");
  require(config_.end_time_s > config_.start_time_s,
          "PortalSimulator: end time must be after start time");

  // Compute static jam probabilities: in buffered continuous mode every
  // reader's carrier is on for the whole pass.
  std::vector<gen2::ReaderRfState> rf_states;
  for (const ReaderConfig& rc : config_.readers) {
    require(!rc.antenna_indices.empty(), "PortalSimulator: reader has no antennas");
    for (std::size_t a : rc.antenna_indices) {
      require(a < scene.antennas.size(), "PortalSimulator: antenna index out of range");
    }
    gen2::ReaderRfState st;
    st.position = scene.antennas[rc.antenna_indices.front()].pose.position;
    st.channel = rc.channel;
    st.dense_reader_mode = rc.dense_reader_mode;
    rf_states.push_back(st);
  }

  const gen2::ReaderInterference interference(config_.interference);
  for (std::size_t r = 0; r < config_.readers.size(); ++r) {
    const ReaderConfig& rc = config_.readers[r];
    std::vector<gen2::ReaderRfState> others;
    for (std::size_t o = 0; o < rf_states.size(); ++o) {
      if (o != r) others.push_back(rf_states[o]);
    }
    gen2::InventoryConfig inv = rc.inventory;
    inv.command_jam_probability =
        std::clamp(inv.command_jam_probability +
                       interference.command_jam_probability(rf_states[r], others),
                   0.0, 1.0);

    // Per-session engines for the multi-session strategy, built from the
    // same interference-adjusted config so each session pass sees the same
    // RF environment as the single-session baseline.
    std::vector<gen2::InventoryEngine> session_engines;
    if (rc.strategy.mode == InventoryMode::kMultiSession) {
      require(!rc.strategy.sessions.empty(),
              "PortalSimulator: multi-session strategy needs at least one session");
      session_engines.reserve(rc.strategy.sessions.size());
      for (gen2::Session s : rc.strategy.sessions) {
        gen2::InventoryConfig per_session = inv;
        per_session.session = s;
        session_engines.emplace_back(per_session);
      }
    }

    readers_.push_back(ReaderRuntime{
        .config = rc,
        .mux = AntennaMux(rc.antenna_indices, rc.antenna_dwell_s),
        .engine = gen2::InventoryEngine(inv),
        .session_engines = std::move(session_engines),
        .tag_states = std::vector<gen2::TagState>(tags_.size()),
        .clock_s = config_.start_time_s,
        .jam_probability = inv.command_jam_probability,
    });
  }
}

gen2::InventoryEngine& PortalSimulator::select_engine(ReaderRuntime& rt, double t_s) {
  if (rt.session_engines.empty()) return rt.engine;
  const std::size_t k = rt.session_engines.size();
  if (rt.config.strategy.interleaved) {
    return rt.session_engines[rt.round_index % k];
  }
  // Sequential: the pass is partitioned into K equal time segments, one
  // session each — session k's flags age (S1 decays) while k+1 runs.
  const double span = config_.end_time_s - config_.start_time_s;
  const double frac = span > 0.0 ? (t_s - config_.start_time_s) / span : 0.0;
  auto idx = static_cast<std::size_t>(std::max(frac, 0.0) * static_cast<double>(k));
  return rt.session_engines[std::min(idx, k - 1)];
}

double PortalSimulator::sample_shadow(std::size_t antenna, std::size_t tag_index,
                                      const Vec3& position, Rng& rng) {
  if (config_.shadow_sigma_db <= 0.0) return 0.0;
  ShadowState& st = shadow_[antenna][tag_index];
  if (!st.initialized) {
    st.value_db = rng.gaussian(0.0, config_.shadow_sigma_db);
    st.initialized = true;
  } else if (config_.shadow_coherence_m <= 0.0) {
    st.value_db = rng.gaussian(0.0, config_.shadow_sigma_db);
  } else {
    // Spatial decorrelation: a static tag keeps its realization; a moving
    // one walks through the fade pattern.
    const double moved = position.distance_to(st.last_position);
    const double rho = std::exp(-moved / config_.shadow_coherence_m);
    st.value_db = rho * st.value_db +
                  std::sqrt(std::max(1.0 - rho * rho, 0.0)) *
                      rng.gaussian(0.0, config_.shadow_sigma_db);
  }
  st.last_position = position;
  return st.value_db;
}

void PortalSimulator::reset_pass_state(Rng& rng) {
  shadow_.assign(scene_.antennas.size(), std::vector<ShadowState>(tags_.size()));
  pass_offset_db_.assign(tags_.size(), 0.0);
  for (double& offset : pass_offset_db_) {
    if (config_.pass_sigma_db > 0.0) {
      offset = rng.gaussian(0.0, config_.pass_sigma_db);
    }
    if (rng.bernoulli(config_.pass_outage_probability)) {
      offset -= config_.pass_outage_db;
    }
  }
}

std::vector<gen2::TagLink> PortalSimulator::build_links(
    const ReaderRuntime& rt, std::size_t antenna, double t_s, Rng& rng,
    std::vector<gen2::TagState>& states, double extra_loss_db) {
  const rf::LinkBudget budget(rt.config.radio);
  std::vector<gen2::TagLink> links(tags_.size());
  // One batch evaluation for the whole round: tags_ is scene.all_tags(),
  // the flat order evaluate_all produces. The kernel also hands back the
  // per-tag world positions, saving the shadow sampler its own pose
  // derivations (bit-identical to Entity::tag_position by contract).
  {
    const obs::prof::ScopedPhase phase(obs::prof::Phase::kPathEval);
    evaluator_.evaluate_all(antenna, t_s, terms_scratch_);
  }
  const std::vector<Vec3>& tag_positions = evaluator_.tag_positions();
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const rf::PathTerms& terms = terms_scratch_[i];
    const rf::TagDesign& design =
        scene_.entities[tags_[i].entity].tags()[tags_[i].tag].mount.design;
    const bool active = design.type == rf::TagType::ActiveBeacon;
    const rf::LinkResult fwd =
        active ? budget.forward_active(terms, design.active_rx_sensitivity)
               : budget.forward(terms);
    const rf::LinkResult rev = active
                                   ? budget.reverse_active(terms, design.active_tx_power)
                                   : budget.reverse(terms, fwd.received);

    // One shadowing realization per (antenna, tag) path, correlated in
    // space, plus the tag's per-pass systematic offset; both link
    // directions see the same obstacles.
    const double shadow =
        sample_shadow(antenna, i, tag_positions[i], rng) + pass_offset_db_[i] -
        extra_loss_db;
    const bool powered = fwd.margin.value() + shadow > 0.0;
    states[i].set_powered(powered, t_s);

    gen2::TagLink& link = links[i];
    link.powered = powered;
    link.rx_power = rev.received + Decibel(shadow);
    link.reply_decode_probability =
        exceed_probability(rev.margin.value() + shadow, config_.fast_sigma_db);
  }
  return links;
}

void PortalSimulator::run_reader_round(std::size_t r, EventLog& log, Rng& rng) {
  ReaderRuntime& rt = readers_[r];
  ReaderRunStats& rstats = stats_.per_reader[r];

  // Crashed reader: no carrier, no rounds. Jump the clock to the restart
  // and resume with a reset Q (a rebooting reader loses its Qfp state).
  if (fault_schedule_.reader_down(r, rt.clock_s)) {
    const double up = fault_schedule_.reader_up_after(r, rt.clock_s);
    ++rstats.crashes;
    rstats.downtime_s += up - rt.clock_s;
    rt.clock_s = up;
    rt.engine.reset_q();
    for (auto& e : rt.session_engines) e.reset_q();
    return;
  }

  const double t = rt.clock_s;
  const std::size_t antenna = rt.mux.active_at(t - config_.start_time_s);

  // A dead cable absorbs the round: the mux dwells on the port anyway
  // (the reader has no reflectometer), so the time is spent but no tag
  // powers up. Jamming bursts cost margin instead of the whole round.
  double extra_loss_db = fault_schedule_.jamming_loss_db(t);
  if (extra_loss_db > 0.0) ++rstats.jammed_rounds;
  if (fault_schedule_.antenna_dead(antenna)) {
    extra_loss_db += 1000.0;
    ++rstats.dead_antenna_rounds;
  }

  auto links = build_links(rt, antenna, t, rng, rt.tag_states, extra_loss_db);
  gen2::InventoryEngine& engine = select_engine(rt, t);
  ++rt.round_index;
  gen2::InventoryRoundResult round;
  {
    const obs::prof::ScopedPhase phase(obs::prof::Phase::kGen2Inventory);
    round = engine.run_round(rt.tag_states, links, t, rng);
  }

  {
    const obs::prof::ScopedPhase phase(obs::prof::Phase::kEventLogAppend);
    const auto session = static_cast<std::uint8_t>(engine.config().session);
    for (std::size_t idx : round.singulated) {
      ReadEvent ev;
      ev.tag = scene_.entities[tags_[idx].entity].tags()[tags_[idx].tag].id;
      ev.time_s = t + round.duration_s;  // Reported at end of round, as real readers do.
      ev.reader_index = r;
      ev.antenna_index = antenna;
      ev.rssi = links[idx].rx_power;
      ev.session = session;
      log.push_back(ev);
    }
  }

  ++stats_.rounds;
  stats_.total_slots += round.total_slots;
  stats_.collision_slots += round.collision_slots;
  stats_.success_slots += round.success_slots;
  stats_.busy_time_s += round.duration_s;
  ++rstats.rounds;
  rstats.total_slots += round.total_slots;
  rstats.collision_slots += round.collision_slots;
  rstats.success_slots += round.success_slots;
  rstats.busy_time_s += round.duration_s;
  rt.clock_s += round.duration_s;
}

namespace {
/// Label for forking the fault-schedule stream off the run RNG: keeps the
/// schedule a pure function of the run seed without advancing the event
/// stream, so all-off fault configs stay byte-identical to the pre-fault
/// simulator.
constexpr std::uint64_t kFaultStreamLabel = 0xFA1757ULL;
}  // namespace

EventLog PortalSimulator::run(Rng& rng) {
  const obs::TraceSpan span("sys.portal.run");
  const obs::prof::ScopedPhase phase(obs::prof::Phase::kPortalSim);
  if (obs::hooks_enabled()) portal_metrics().passes.add(1);
  stats_ = PortalRunStats{};
  stats_.per_reader.resize(readers_.size());
  Rng fault_rng = rng.fork(kFaultStreamLabel);
  fault_schedule_ =
      fault::FaultSchedule::sample(config_.faults, readers_.size(),
                                   scene_.antennas.size(), config_.start_time_s,
                                   config_.end_time_s, fault_rng);
  reset_pass_state(rng);
  for (auto& rt : readers_) {
    rt.clock_s = config_.start_time_s;
    rt.engine.reset_q();
    for (auto& e : rt.session_engines) e.reset_q();
    rt.round_index = 0;
    std::fill(rt.tag_states.begin(), rt.tag_states.end(), gen2::TagState{});
  }

  EventLog log;
  while (true) {
    // Advance the reader whose clock is furthest behind (concurrent rounds).
    std::size_t next = 0;
    for (std::size_t r = 1; r < readers_.size(); ++r) {
      if (readers_[r].clock_s < readers_[next].clock_s) next = r;
    }
    if (readers_[next].clock_s >= config_.end_time_s) break;
    run_reader_round(next, log, rng);
  }

  std::sort(log.begin(), log.end(),
            [](const ReadEvent& a, const ReadEvent& b) { return a.time_s < b.time_s; });
  publish_pass_metrics(log);
  return log;
}

obs::PassObservation PortalSimulator::pass_observation(const EventLog& log) const {
  obs::PassObservation out;
  out.window_begin_s = config_.start_time_s;
  out.window_end_s = config_.end_time_s;
  out.objects_total = tags_.size();
  out.readers.resize(readers_.size());
  for (std::size_t r = 0; r < readers_.size() && r < stats_.per_reader.size(); ++r) {
    out.readers[r].rounds = stats_.per_reader[r].rounds;
  }
  std::unordered_set<scene::TagId> all;
  std::vector<std::unordered_set<scene::TagId>> per_reader(readers_.size());
  for (const ReadEvent& ev : log) {
    all.insert(ev.tag);
    if (ev.reader_index < per_reader.size()) per_reader[ev.reader_index].insert(ev.tag);
  }
  out.objects_identified = all.size();
  for (std::size_t r = 0; r < per_reader.size(); ++r) {
    out.readers[r].objects_seen = per_reader[r].size();
  }
  return out;
}

EventLog PortalSimulator::run_single_round(double t_s, Rng& rng) {
  const obs::TraceSpan span("sys.portal.run_single_round");
  stats_ = PortalRunStats{};
  stats_.per_reader.resize(readers_.size());
  Rng fault_rng = rng.fork(kFaultStreamLabel);
  fault_schedule_ = fault::FaultSchedule::sample(
      config_.faults, readers_.size(), scene_.antennas.size(), t_s,
      t_s + config_.end_time_s - config_.start_time_s, fault_rng);
  reset_pass_state(rng);
  EventLog log;
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    readers_[r].clock_s = t_s;
    readers_[r].engine.reset_q();
    for (auto& e : readers_[r].session_engines) e.reset_q();
    readers_[r].round_index = 0;
    std::fill(readers_[r].tag_states.begin(), readers_[r].tag_states.end(),
              gen2::TagState{});
    run_reader_round(r, log, rng);
  }
  std::sort(log.begin(), log.end(),
            [](const ReadEvent& a, const ReadEvent& b) { return a.time_s < b.time_s; });
  publish_pass_metrics(log);
  return log;
}

}  // namespace rfidsim::sys
