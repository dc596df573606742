// paper_sweep: the Monte Carlo sweep behind the paper's Tables 3-5.
//
// Every row of Tables 3-5 (objects: 1/2 tags x 1/2 antennas; people:
// 1/2/4 badges x 1/2 antennas, one and two subjects) plus the section-3
// single-opportunity rows its R_C = 1 - prod(1 - P_i) compositions need,
// each estimated from kReps repetitions through
// reliability::run_repeated_parallel on min(4, nproc) sweep workers. One
// call is one row: the parallel sweep plus the per-object estimate. The
// timed loop repeats whole cycles of identical work (same per-row seeds),
// so every cycle must reproduce the first cycle's event-log digest, and
// the accuracy figure paper_rm_err_pp is a pure function of seed and code.
//
// The workload spends its time in system/scene/gen2/sweep and never
// touches wire, track or fleet.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "reliability/analytical.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "scene/batch_evaluator.hpp"
#include "sweep/sweep.hpp"
#include "system/portal.hpp"

namespace perfbench {
namespace {

using namespace rfidsim;
using namespace rfidsim::reliability;
using scene::BodySpot;
using scene::BoxFace;

constexpr std::size_t kReps = 80;

/// Single-opportunity reliabilities (section 3) the R_C column composes.
struct Singles {
  double obj_front = 0, obj_side = 0, obj_side_far = 0;
  // Humans, one antenna: [0] one subject, [1] two subjects closer,
  // [2] two subjects farther.
  double h_front[3] = {}, h_near[3] = {}, h_far[3] = {};
};

struct Row {
  std::string label;
  Scenario scenario;
  /// Paper R_M in percent; NaN for the section-3 singles (anchor rows,
  /// held out of the accuracy figure).
  double paper_rm = NAN;
  /// Stores this singles row's per-object estimates (singles rows only).
  std::function<void(Singles&, const std::vector<double>&)> record;
  /// Analytical R_C from the singles (Tables 3-5 rows only).
  std::function<double(const Singles&)> rc;
};

double rc_of(std::vector<double> ops) { return expected_reliability(ops); }

/// Human R_C opportunities: each badge offers its spot's single
/// reliability; the facing second antenna adds the mirrored spot.
double human_rc(const Singles& s, int who, const std::vector<BodySpot>& spots,
                std::size_t antennas) {
  std::vector<double> ops;
  for (BodySpot spot : spots) {
    switch (spot) {
      case BodySpot::Front:
      case BodySpot::Back:
        ops.push_back(s.h_front[who]);
        if (antennas == 2) ops.push_back(s.h_front[who]);
        break;
      case BodySpot::SideNear:
        ops.push_back(s.h_near[who]);
        if (antennas == 2) ops.push_back(s.h_far[who]);
        break;
      case BodySpot::SideFar:
        ops.push_back(s.h_far[who]);
        if (antennas == 2) ops.push_back(s.h_near[who]);
        break;
    }
  }
  return rc_of(ops);
}

std::vector<Row> make_rows() {
  const CalibrationProfile cal = CalibrationProfile::paper2006();
  std::vector<Row> rows;

  auto object = [&](std::vector<BoxFace> faces, std::size_t antennas) {
    ObjectScenarioOptions opt;
    opt.tag_faces = std::move(faces);
    opt.portal.antenna_count = antennas;
    return make_object_tracking_scenario(opt, cal);
  };
  auto human = [&](std::vector<BodySpot> spots, std::size_t antennas,
                   std::size_t subjects) {
    HumanScenarioOptions opt;
    opt.tag_spots = std::move(spots);
    opt.portal.antenna_count = antennas;
    opt.subject_count = subjects;
    return make_human_tracking_scenario(opt, cal);
  };

  // Section-3 singles: 1 antenna, 1 tag (objects) / 1 badge (people).
  rows.push_back({"s3 object front", object({BoxFace::Front}, 1), NAN,
                  [](Singles& s, const std::vector<double>& r) { s.obj_front = r[0]; }, {}});
  rows.push_back({"s3 object side near", object({BoxFace::SideNear}, 1), NAN,
                  [](Singles& s, const std::vector<double>& r) { s.obj_side = r[0]; }, {}});
  rows.push_back({"s3 object side far", object({BoxFace::SideFar}, 1), NAN,
                  [](Singles& s, const std::vector<double>& r) { s.obj_side_far = r[0]; },
                  {}});
  const std::pair<BodySpot, const char*> spots[] = {
      {BodySpot::Front, "front"}, {BodySpot::SideNear, "side near"},
      {BodySpot::SideFar, "side far"}};
  for (std::size_t subjects = 1; subjects <= 2; ++subjects) {
    for (const auto& [spot, name] : spots) {
      rows.push_back(
          {"s3 human " + std::to_string(subjects) + "subj " + name,
           human({spot}, 1, subjects), NAN,
           [spot = spot, subjects](Singles& s, const std::vector<double>& r) {
             double* slot = spot == BodySpot::Front      ? s.h_front
                            : spot == BodySpot::SideNear ? s.h_near
                                                         : s.h_far;
             if (subjects == 1) {
               slot[0] = r[0];
             } else {
               slot[1] = r[0];
               slot[2] = r[1];
             }
           },
           {}});
    }
  }

  // Table 3: object redundancy.
  rows.push_back({"T3 2ant 1tag front", object({BoxFace::Front}, 2), 92, {},
                  [](const Singles& s) { return rc_of({s.obj_front, s.obj_front}); }});
  rows.push_back({"T3 2ant 1tag side", object({BoxFace::SideNear}, 2), 79, {},
                  [](const Singles& s) { return rc_of({s.obj_side, s.obj_side_far}); }});
  rows.push_back({"T3 1ant 2tag front+side", object({BoxFace::Front, BoxFace::SideNear}, 1),
                  97, {},
                  [](const Singles& s) { return rc_of({s.obj_front, s.obj_side}); }});
  rows.push_back({"T3 1ant 2tag front+far", object({BoxFace::Front, BoxFace::SideFar}, 1),
                  96, {},
                  [](const Singles& s) { return rc_of({s.obj_front, s.obj_side_far}); }});
  rows.push_back({"T3 2ant 2tag front+side", object({BoxFace::Front, BoxFace::SideNear}, 2),
                  100, {}, [](const Singles& s) {
                    return rc_of({s.obj_front, s.obj_front, s.obj_side, s.obj_side_far});
                  }});

  // Tables 4 (one antenna) and 5 (two antennas): badge redundancy, one
  // subject and the two-subject average.
  struct HumanRow {
    const char* name;
    std::vector<BodySpot> spots;
    std::size_t antennas;
    double paper_one, paper_two;
  };
  const HumanRow human_rows[] = {
      {"T4 1ant 2 badges F/B", {BodySpot::Front, BodySpot::Back}, 1, 100, 88},
      {"T4 1ant 2 badges sides", {BodySpot::SideNear, BodySpot::SideFar}, 1, 93, 72},
      {"T4 1ant 4 badges",
       {BodySpot::Front, BodySpot::Back, BodySpot::SideNear, BodySpot::SideFar}, 1, 100, 94},
      {"T5 2ant 1 badge F/B", {BodySpot::Front}, 2, 80, 90},
      {"T5 2ant 1 badge side", {BodySpot::SideNear}, 2, 90, 80},
      {"T5 2ant 2 badges F/B", {BodySpot::Front, BodySpot::Back}, 2, 100, 100},
      {"T5 2ant 2 badges sides", {BodySpot::SideNear, BodySpot::SideFar}, 2, 100, 95},
      {"T5 2ant 4 badges",
       {BodySpot::Front, BodySpot::Back, BodySpot::SideNear, BodySpot::SideFar}, 2, 100, 100},
  };
  for (const HumanRow& h : human_rows) {
    rows.push_back({std::string(h.name) + " 1subj", human(h.spots, h.antennas, 1),
                    h.paper_one, {}, [h](const Singles& s) {
                      return human_rc(s, 0, h.spots, h.antennas);
                    }});
    rows.push_back({std::string(h.name) + " 2subj", human(h.spots, h.antennas, 2),
                    h.paper_two, {}, [h](const Singles& s) {
                      return 0.5 * (human_rc(s, 1, h.spots, h.antennas) +
                                    human_rc(s, 2, h.spots, h.antennas));
                    }});
  }
  return rows;
}

void digest_log(Digest& d, const sys::EventLog& log) {
  d.u64(log.size());
  for (const sys::ReadEvent& ev : log) {
    d.u64(ev.tag.value);
    d.f64(ev.time_s);
    d.u64(ev.reader_index);
    d.u64(ev.antenna_index);
    d.f64(ev.rssi.value());
    d.u64(ev.session);
  }
}

bool same_log(const sys::EventLog& a, const sys::EventLog& b) {
  Digest da, db;
  digest_log(da, a);
  digest_log(db, b);
  return da.value() == db.value();
}

/// Per-object estimates of one row, ordered by object id (closer subject
/// first), and their mean R_M.
struct RowEstimate {
  std::vector<double> per_object;
  double rm = 0.0;
};

RowEstimate estimate(const Scenario& sc, const RepeatedRuns& runs) {
  const auto per_obj = per_object_reliability(sc, runs);
  RowEstimate e;
  for (const track::ObjectId& obj : sc.registry.objects()) {
    const double p = per_obj.at(obj).estimate;
    e.per_object.push_back(p);
    e.rm += p;
  }
  e.rm /= static_cast<double>(e.per_object.size());
  return e;
}

/// Counters from the traced run's serial reference passes and probes.
struct LayerTally {
  Samples portal_run_s;
  Samples estimate_s;
  double serial_pass_s = 0, parallel_wall_s = 0, probe_s = 0, probed_pass_s = 0;
  std::uint64_t passes = 0, rounds = 0, events = 0, slots = 0, success = 0,
                collisions = 0, probe_rounds = 0;
  scene::PathCacheStats cache;
};

/// Serial reruns of one row's passes (PortalSimulator::run per pass, the
/// same per-repetition generators as the sweep) compared bit for bit with
/// the sweep's logs, plus the scene probe over one pass.
void trace_row(const Row& row, std::uint64_t row_seed, const RepeatedRuns& parallel,
               std::uint64_t request, Tracer& tracer, bool count, LayerTally& t,
               Outcome& out) {
  const Scenario& sc = row.scenario;
  sys::PortalSimulator sim(sc.scene, sc.portal);
  std::size_t probe_rounds = 0;
  double first_pass_s = 0;
  bool all_equal = true;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Rng rng = sweep::cell_rng(row_seed, rep);
    const auto t0 = Clock::now();
    sys::EventLog log;
    {
      const Scoped span(&tracer, "system.portal_run", request);
      log = sim.run(rng);
    }
    const double dt = seconds_since(t0);
    t.portal_run_s.add(dt);
    t.serial_pass_s += dt;
    if (rep == 0) {
      first_pass_s = dt;
      probe_rounds = sim.stats().rounds;
    }
    all_equal = all_equal && same_log(log, parallel.logs[rep]);
    if (count) {
      const sys::PortalRunStats& st = sim.stats();
      ++t.passes;
      t.rounds += st.rounds;
      t.events += log.size();
      t.slots += st.total_slots;
      t.success += st.success_slots;
      t.collisions += st.collision_slots;
    }
  }
  out.check(all_equal, "paper_sweep: serial PortalSimulator::run logs == parallel sweep logs (" +
                           row.label + ")");

  // Scene probe: one evaluate_all per (antenna, round) of one pass, round
  // instants spread evenly over the pass window.
  scene::BatchPathEvaluator evaluator(sc.scene, sc.portal.evaluator);
  std::vector<rf::PathTerms> terms;
  const std::size_t antennas = sc.scene.antennas.size();
  const double begin = sc.portal.start_time_s, end = sc.portal.end_time_s;
  const auto t0 = Clock::now();
  {
    const Scoped span(&tracer, "scene.evaluate_all", request);
    for (std::size_t k = 0; k < probe_rounds; ++k) {
      const double at = begin + (static_cast<double>(k) + 0.5) * (end - begin) /
                                    static_cast<double>(probe_rounds);
      evaluator.evaluate_all(k % antennas, at, terms);
    }
  }
  t.probe_s += seconds_since(t0);
  t.probed_pass_s += first_pass_s;
  t.probe_rounds += probe_rounds;
  if (count) {
    const scene::PathCacheStats& c = evaluator.cache_stats();
    t.cache.full_hits += c.full_hits;
    t.cache.full_misses += c.full_misses;
    t.cache.pair_hits += c.pair_hits;
    t.cache.pair_misses += c.pair_misses;
    t.cache.bypassed += c.bypassed;
  }
}

struct CycleResult {
  std::uint64_t digest = 0;
  double rm_err_pp = 0.0;
  std::vector<RowEstimate> estimates;
  std::vector<double> rc;
};

struct LoopResult {
  Samples call_s;
  std::vector<Samples> row_s;  ///< Call times of each row.
  std::uint64_t passes = 0;
  std::size_t cycles = 0;
  CycleResult first;
};

/// Runs whole cycles of the row set until `seconds` of host time have been
/// spent (at least one full cycle). Every cycle is checked against the
/// first; with a tracer, each row also gets its serial reruns and probe.
LoopResult run_loop(const std::vector<Row>& rows, const RunArgs& args, double seconds,
                    Tracer* tracer, LayerTally* tally, Outcome& out) {
  LoopResult loop;
  loop.row_s.resize(rows.size());
  const auto start = Clock::now();
  std::uint64_t request = 0;
  for (bool more = true; more; ++loop.cycles) {
    Digest digest;
    Singles singles;
    CycleResult cycle;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      const std::uint64_t row_seed = sweep::cell_rng(args.seed, r).seed();
      ++request;
      RepeatedRuns runs;
      RowEstimate est;
      const auto t0 = Clock::now();
      try {
        const Scoped root(tracer, "bench.row", request);
        {
          const Scoped span(tracer, "sweep.run_repeated_parallel", request);
          runs = run_repeated_parallel(row.scenario, kReps, row_seed, args.threads);
        }
        const auto e0 = Clock::now();
        {
          const Scoped span(tracer, "reliability.estimate", request);
          est = estimate(row.scenario, runs);
        }
        if (tally) {
          tally->parallel_wall_s += std::chrono::duration<double>(e0 - t0).count();
          tally->estimate_s.add(seconds_since(e0));
        }
      } catch (const std::exception& e) {
        ++out.attempted;
        out.fail("paper_sweep: " + row.label + " threw: " + e.what());
        return loop;
      }
      const double call = seconds_since(t0);
      loop.call_s.add(call);
      loop.passes += kReps;
      loop.row_s[r].add(call);
      ++out.attempted;
      if (tracer) {
        const Scoped root(tracer, "bench.check", request);
        trace_row(row, row_seed, runs, request, *tracer, loop.cycles == 0, *tally, out);
      }
      for (const sys::EventLog& log : runs.logs) digest_log(digest, log);
      for (double p : est.per_object) digest.f64(p);
      if (row.record) row.record(singles, est.per_object);
      cycle.estimates.push_back(std::move(est));
      if (r + 1 < rows.size() && loop.cycles > 0 && seconds_since(start) >= seconds) {
        return loop;  // Partial cycle: its calls count, its digest cannot.
      }
    }
    double err = 0.0;
    std::size_t scored = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double rc = rows[r].rc ? rows[r].rc(singles) : NAN;
      cycle.rc.push_back(rc);
      if (!std::isnan(rows[r].paper_rm)) {
        err += std::fabs(100.0 * cycle.estimates[r].rm - rows[r].paper_rm);
        ++scored;
      }
    }
    cycle.rm_err_pp = err / static_cast<double>(scored);
    digest.f64(cycle.rm_err_pp);
    cycle.digest = digest.value();
    if (loop.cycles == 0) {
      loop.first = std::move(cycle);
    } else {
      out.check(cycle.digest == loop.first.digest,
                "paper_sweep: cycle " + std::to_string(loop.cycles) +
                    " reproduces the first cycle's event-log digest");
    }
    more = seconds_since(start) < seconds;
  }
  return loop;
}

void print_rows(const std::vector<Row>& rows, const CycleResult& c) {
  std::printf("rows (R_M sim vs paper, R_C composed from the section-3 singles):\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::printf("  %-32s R_M %6.2f%%", rows[r].label.c_str(), 100.0 * c.estimates[r].rm);
    if (!std::isnan(c.rc[r])) std::printf("  R_C %6.2f%%", 100.0 * c.rc[r]);
    if (!std::isnan(rows[r].paper_rm)) std::printf("  paper R_M %5.1f%%", rows[r].paper_rm);
    std::printf("\n");
  }
}

}  // namespace

Outcome run_paper_sweep(const RunArgs& args) {
  Outcome out;
  std::printf("workload paper_sweep: Tables 3-5 rows, %zu repetitions per row, "
              "%zu sweep threads\n",
              kReps, args.threads);

  // Set-up: build every row's scenario and run one warm-up pass of each
  // (first-touch allocation, lazily registered metrics). Repeated; the
  // median is setup_s.
  Samples setup_s;
  std::vector<Row> rows;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    rows = make_rows();
    for (const Row& row : rows) {
      sys::PortalSimulator sim(row.scenario.scene, row.scenario.portal);
      Rng rng(args.seed);
      (void)sim.run(rng);
    }
    setup_s.add(seconds_since(t0));
  }
  std::size_t scored = 0;
  for (const Row& r : rows) scored += std::isnan(r.paper_rm) ? 0 : 1;
  std::printf("  rows: %zu (%zu Tables 3-5 rows scored against the paper, %zu "
              "section-3 singles)\n",
              rows.size(), scored, rows.size() - scored);

  if (!args.trace) {
    const LoopResult loop = run_loop(rows, args, args.seconds, nullptr, nullptr, out);
    if (loop.cycles == 0) return out;
    print_rows(rows, loop.first);
    const double busy = loop.call_s.sum();
    std::printf("end-to-end (tracing off):\n");
    report("setup_s", setup_s.p50(), "s", "host wall",
           "median of 3 scenario builds with one warm-up pass per row");
    // Each row at its fastest call across the cycles.
    Samples fastest_row;
    for (const Samples& r : loop.row_s) fastest_row.add(r.min());
    const double rate = static_cast<double>(rows.size() * kReps) / fastest_row.sum();
    const std::string over = "; each row at its fastest call over " +
                             std::to_string(loop.cycles) + " cycles";
    report("sweep_passes_per_s", rate, "1/s", "host wall",
           std::to_string(loop.passes) + " passes in " + std::to_string(busy) + " s" + over);
    report("row_call_us_p50", fastest_row.p50() * 1e6, "us", "host wall", "median row" + over);
    report_samples("row_call_all_us", loop.call_s, 1e6, "us");
    report("paper_rm_err_pp", loop.first.rm_err_pp, "pp", "exact, seeded");
    report("cycles", static_cast<double>(loop.cycles), "count", "count");
    report("ops_failed_ratio", static_cast<double>(out.failed) / std::max<double>(1, out.attempted),
           "ratio", "count");
    Digest d;
    d.u64(loop.first.digest);
    out.digests["paper_sweep.event_log"] = d.hex();
    out.metric("setup_s", setup_s.p50(), "s", "host wall");
    out.metric("throughput_per_s", rate, "1/s", "host wall");
    out.metric("call_p50_us", fastest_row.p50() * 1e6, "us", "host wall");
    out.metric("call_tail_us", loop.call_s.tail() * 1e6, "us", "host wall");
    return out;
  }

  // Traced run: an untraced half for reference and overhead, then the
  // traced half with serial reruns and probes.
  const LoopResult plain = run_loop(rows, args, 0.5 * args.seconds, nullptr, nullptr, out);
  Tracer tracer;
  LayerTally t;
  const LoopResult traced = run_loop(rows, args, 0.5 * args.seconds, &tracer, &t, out);
  if (plain.cycles == 0 || traced.cycles == 0) return out;
  out.check(traced.first.digest == plain.first.digest,
            "paper_sweep: traced run's event-log digest == untraced run's");
  Digest d;
  d.u64(traced.first.digest);
  out.digests["paper_sweep.event_log"] = d.hex();

  const double passes = static_cast<double>(t.passes);
  const double slots = static_cast<double>(t.slots);
  const double lookups = static_cast<double>(t.cache.full_hits + t.cache.full_misses +
                                             t.cache.pair_hits + t.cache.pair_misses +
                                             t.cache.bypassed);
  const double hits = static_cast<double>(t.cache.full_hits + t.cache.pair_hits);
  out.metric("system.portal_run_us_p50", t.portal_run_s.p50() * 1e6, "us", "host wall");
  out.metric("system.rounds_per_pass", static_cast<double>(t.rounds) / passes, "count", "count");
  out.metric("system.events_per_pass", static_cast<double>(t.events) / passes, "count", "count");
  out.metric("scene.evaluate_all_us_per_round",
             t.probe_s * 1e6 / static_cast<double>(t.probe_rounds), "us", "host wall");
  out.metric("scene.share_of_portal_run", t.probe_s / t.probed_pass_s, "ratio", "host wall");
  out.metric("scene.path_cache_hit_ratio", hits / lookups, "ratio", "count");
  out.metric("gen2.slots_per_pass", slots / passes, "count", "count");
  out.metric("gen2.slot_success_ratio", static_cast<double>(t.success) / slots, "ratio", "count");
  out.metric("gen2.collision_ratio", static_cast<double>(t.collisions) / slots, "ratio", "count");
  out.metric("sweep.parallel_efficiency",
             t.serial_pass_s / (static_cast<double>(args.threads) * t.parallel_wall_s), "ratio",
             "host wall");
  out.metric("reliability.estimate_ms", t.estimate_s.p50() * 1e3, "ms", "host wall");
  out.metric("obs.tracing_overhead_ratio",
             (traced.call_s.sum() / static_cast<double>(traced.passes)) /
                 (plain.call_s.sum() / static_cast<double>(plain.passes)),
             "ratio", "host wall");
  std::printf("traced run: %zu cycles; counts from the first cycle\n", traced.cycles);
  finish_trace(tracer, args, out);
  return out;
}

}  // namespace perfbench
