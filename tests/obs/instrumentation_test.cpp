// End-to-end checks that the instrumentation threaded through the
// simulator (a) never feeds back into simulated state and (b) actually
// counts what it claims to count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <sstream>
#include <string>

#include "fault/schedule.hpp"
#include "fleet/service.hpp"
#include "gen2/reliable/multi_session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/calibration.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "system/event_io.hpp"
#include "system/portal.hpp"
#include "system/uploader.hpp"
#include "track/resilient_ingest.hpp"

namespace rfidsim {
namespace {

/// With -DRFIDSIM_OBS=OFF every hook compiles to a constant false; the
/// counter-delta tests then assert that nothing moves.
#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kHooksLive = false;
#else
constexpr bool kHooksLive = true;
#endif

using reliability::CalibrationProfile;
using reliability::RepeatedRuns;
using reliability::Scenario;

class InstrumentationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_metrics_ = obs::enabled();
    saved_trace_ = obs::trace_enabled();
    obs::set_enabled(true);
    obs::set_trace_enabled(false);
  }
  void TearDown() override {
    obs::set_trace_enabled(saved_trace_);
    obs::set_enabled(saved_metrics_);
  }

 private:
  bool saved_metrics_ = false;
  bool saved_trace_ = false;
};

bool logs_equal(const RepeatedRuns& a, const RepeatedRuns& b) {
  if (a.logs.size() != b.logs.size()) return false;
  for (std::size_t r = 0; r < a.logs.size(); ++r) {
    if (a.logs[r].size() != b.logs[r].size()) return false;
    for (std::size_t i = 0; i < a.logs[r].size(); ++i) {
      const sys::ReadEvent& x = a.logs[r][i];
      const sys::ReadEvent& y = b.logs[r][i];
      if (x.tag != y.tag || x.time_s != y.time_s ||
          x.reader_index != y.reader_index || x.antenna_index != y.antenna_index ||
          x.rssi.value() != y.rssi.value()) {
        return false;
      }
    }
  }
  return true;
}

// The feedback-free contract, held end to end: the exact same seeds must
// produce the exact same event stream whether observability (metrics AND
// trace spans) is on or off. This is the same differential perf_baseline
// runs, kept in the tier-1 suite so a breach fails fast under ctest and
// the sanitizers.
TEST_F(InstrumentationTest, EventStreamsAreIdenticalWithObsOnAndOff) {
  const CalibrationProfile cal = CalibrationProfile::paper2006();
  reliability::ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front};
  const Scenario sc = reliability::make_object_tracking_scenario(opt, cal);
  constexpr std::size_t kReps = 3;
  constexpr std::uint64_t kSeed = 20070625;

  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  const RepeatedRuns with_obs = reliability::run_repeated(sc, kReps, kSeed);

  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  const RepeatedRuns without_obs = reliability::run_repeated(sc, kReps, kSeed);

  EXPECT_FALSE(with_obs.logs.empty());
  EXPECT_TRUE(logs_equal(with_obs, without_obs));
}

TEST_F(InstrumentationTest, PortalRunFeedsGen2AndPathCacheCounters) {
  const CalibrationProfile cal = CalibrationProfile::paper2006();
  const Scenario sc = reliability::make_read_range_scenario(3.0, cal);

  const std::uint64_t rounds_before = obs::counter("gen2.rounds").value();
  const std::uint64_t passes_before = obs::counter("sys.portal.passes").value();
  const std::uint64_t hits_before = obs::counter("scene.path_cache.full_hits").value();
  const std::uint64_t misses_before =
      obs::counter("scene.path_cache.full_misses").value();

  (void)reliability::run_repeated(sc, 2, 7);

  if (!kHooksLive) {
    EXPECT_EQ(obs::counter("gen2.rounds").value(), rounds_before);
    EXPECT_EQ(obs::counter("sys.portal.passes").value(), passes_before);
    return;
  }
  EXPECT_GT(obs::counter("gen2.rounds").value(), rounds_before);
  EXPECT_EQ(obs::counter("sys.portal.passes").value(), passes_before + 2);
  // The read-range scene is fully static: the first evaluation of each
  // (antenna, tag) pair misses, every later one hits.
  EXPECT_GT(obs::counter("scene.path_cache.full_misses").value(), misses_before);
  EXPECT_GT(obs::counter("scene.path_cache.full_hits").value(), hits_before);
}

TEST_F(InstrumentationTest, DisabledHooksRecordNothing) {
  obs::set_enabled(false);
  const CalibrationProfile cal = CalibrationProfile::paper2006();
  const Scenario sc = reliability::make_read_range_scenario(3.0, cal);
  const std::uint64_t rounds_before = obs::counter("gen2.rounds").value();
  const std::uint64_t passes_before = obs::counter("sys.portal.passes").value();
  (void)reliability::run_repeated(sc, 1, 7);
  EXPECT_EQ(obs::counter("gen2.rounds").value(), rounds_before);
  EXPECT_EQ(obs::counter("sys.portal.passes").value(), passes_before);
}

/// Every sample of the gen2.* and sys.portal.* counter families (labelled
/// children included) plus the histograms' _count samples, keyed by
/// exposition series name, read from the process-wide registry.
using SeriesTotals = std::map<std::string, std::uint64_t>;

SeriesTotals portal_series() {
  std::istringstream in(obs::registry().exposition());
  SeriesTotals out;
  std::string line;
  bool wanted_family = false;
  bool counter_family = false;
  while (std::getline(in, line)) {
    if (line.starts_with("# TYPE ")) {
      wanted_family = line.starts_with("# TYPE rfidsim_gen2_") ||
                      line.starts_with("# TYPE rfidsim_sys_portal_");
      counter_family = line.ends_with(" counter");
      continue;
    }
    if (!wanted_family || line.starts_with("#")) continue;
    const std::size_t space = line.rfind(' ');
    const std::string series = line.substr(0, space);
    if (counter_family || series.ends_with("_count")) {
      out[series] = std::stoull(line.substr(space + 1));
    }
  }
  return out;
}

/// after - before per series, dropping series that did not move.
SeriesTotals moved(const SeriesTotals& after, const SeriesTotals& before) {
  SeriesTotals out;
  for (const auto& [series, value] : after) {
    const auto it = before.find(series);
    const std::uint64_t d = value - (it == before.end() ? 0 : it->second);
    if (d != 0) out[series] = d;
  }
  return out;
}

void add_moved(SeriesTotals& totals, const std::string& series, std::uint64_t n) {
  if (n != 0) totals[series] += n;
}

/// Two readers on two antennas, two sessions each, with every fault
/// process on: every gen2.* / sys.portal.* family and child moves.
Scenario redundant_faulty_portal() {
  reliability::ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  opt.portal.antenna_count = 2;
  opt.portal.reader_count = 2;
  opt.portal.strategy.mode = sys::InventoryMode::kMultiSession;
  opt.portal.strategy.sessions = {gen2::Session::S0, gen2::Session::S2};
  Scenario sc =
      reliability::make_object_tracking_scenario(opt, CalibrationProfile::paper2006());
  sc.portal.faults.reader.mtbf_s = 1.5;
  sc.portal.faults.antenna.probability = 0.3;
  sc.portal.faults.jamming.mean_interarrival_s = 1.0;
  return sc;
}

// Registry totals are a pure function of the simulated passes, whichever
// lane ran them: a sweep at 1 and at 4 threads moves every gen2.* and
// sys.portal.* series by the same amount, and that amount is what the
// passes' own PortalRunStats and event logs add up to.
TEST_F(InstrumentationTest, SweepRegistryTotalsMatchRunStatsAtAnyThreadCount) {
  const Scenario sc = redundant_faulty_portal();
  constexpr std::size_t kReps = 12;
  constexpr std::uint64_t kSeed = 424242;

  const SeriesTotals before = portal_series();
  (void)reliability::run_repeated_parallel(sc, kReps, kSeed, 1);
  const SeriesTotals after_serial = portal_series();
  (void)reliability::run_repeated_parallel(sc, kReps, kSeed, 4);
  const SeriesTotals after_parallel = portal_series();
  const SeriesTotals serial = moved(after_serial, before);
  const SeriesTotals parallel = moved(after_parallel, after_serial);
  EXPECT_EQ(serial, parallel);

  // Recompute the same passes with hooks off, from the simulator's stats.
  obs::set_enabled(false);
  SeriesTotals expected;
  sys::PortalSimulator sim(sc.scene, sc.portal);
  const Rng root(kSeed);
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Rng rng = root.fork(rep);
    const sys::EventLog log = sim.run(rng);
    const sys::PortalRunStats& st = sim.stats();
    add_moved(expected, "rfidsim_sys_portal_passes", 1);
    add_moved(expected, "rfidsim_gen2_rounds", st.rounds);
    add_moved(expected, "rfidsim_gen2_round_duration_seconds_count", st.rounds);
    add_moved(expected, "rfidsim_gen2_total_slots", st.total_slots);
    add_moved(expected, "rfidsim_gen2_collision_slots", st.collision_slots);
    add_moved(expected, "rfidsim_gen2_success_slots", st.success_slots);
    add_moved(expected, "rfidsim_gen2_empty_slots",
              st.total_slots - st.collision_slots - st.success_slots);
    add_moved(expected, "rfidsim_gen2_singulations", log.size());
    add_moved(expected, "rfidsim_sys_portal_rounds", st.rounds);
    add_moved(expected, "rfidsim_sys_portal_read_events", log.size());
    for (const sys::ReadEvent& ev : log) {
      add_moved(expected,
                "rfidsim_gen2_sessions{session=\"s" + std::to_string(ev.session) + "\"}", 1);
      add_moved(expected,
                "rfidsim_sys_portal_read_events{reader=\"r" +
                    std::to_string(ev.reader_index) + "\"}",
                1);
    }
    for (std::size_t r = 0; r < st.per_reader.size(); ++r) {
      const sys::ReaderRunStats& rs = st.per_reader[r];
      const std::string reader = "{reader=\"r" + std::to_string(r) + "\"}";
      add_moved(expected, "rfidsim_sys_portal_rounds" + reader, rs.rounds);
      for (const auto& [family, n] :
           {std::pair{"rfidsim_sys_portal_reader_crashes", rs.crashes},
            std::pair{"rfidsim_sys_portal_jammed_rounds", rs.jammed_rounds},
            std::pair{"rfidsim_sys_portal_dead_antenna_rounds", rs.dead_antenna_rounds}}) {
        add_moved(expected, family, n);
        add_moved(expected, family + reader, n);
      }
    }
  }
  if (!kHooksLive) {
    EXPECT_TRUE(serial.empty());
    return;
  }
  // The scenario must exercise every family the portal publishes.
  for (const char* family :
       {"rfidsim_sys_portal_reader_crashes", "rfidsim_sys_portal_jammed_rounds",
        "rfidsim_sys_portal_dead_antenna_rounds", "rfidsim_gen2_sessions{session=\"s2\"}",
        "rfidsim_sys_portal_rounds{reader=\"r1\"}"}) {
    EXPECT_TRUE(expected.contains(family)) << family;
  }
  EXPECT_EQ(serial, expected);
}

// MultiSessionInventory drives its engines directly (no portal): each run
// flushes them, crediting every session's singulations to its own
// gen2.sessions{session=...} child.
TEST_F(InstrumentationTest, MultiSessionRunFeedsPerSessionCounters) {
  gen2::reliable::MultiSessionConfig cfg;
  cfg.sessions = {gen2::Session::S1, gen2::Session::S3};
  cfg.rounds_per_session = 4;
  gen2::reliable::MultiSessionInventory inv(cfg);
  std::vector<gen2::TagState> states(9);
  std::vector<gen2::TagLink> links(9);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i].set_powered(true, 0.0);
    links[i].powered = true;
    links[i].reply_decode_probability = 0.8;
    links[i].rx_power = DbmPower(-55.0);
  }
  Rng rng(9);
  const SeriesTotals before = portal_series();
  SeriesTotals expected;
  for (int sweep = 0; sweep < 3; ++sweep) {
    const gen2::reliable::MultiSessionResult r =
        inv.run(states, links, 0.5 * sweep, rng);
    for (const gen2::reliable::SessionPassResult& pass : r.per_session) {
      const std::string session =
          "{session=\"s" + std::to_string(static_cast<int>(pass.session)) + "\"}";
      add_moved(expected, "rfidsim_gen2_sessions" + session, pass.singulations);
      add_moved(expected, "rfidsim_gen2_singulations", pass.singulations);
      add_moved(expected, "rfidsim_gen2_rounds", pass.rounds);
      add_moved(expected, "rfidsim_gen2_round_duration_seconds_count", pass.rounds);
    }
  }
  const SeriesTotals got = moved(portal_series(), before);
  if (!kHooksLive) {
    EXPECT_TRUE(got.empty());
    return;
  }
  ASSERT_TRUE(expected.contains("rfidsim_gen2_sessions{session=\"s1\"}"));
  ASSERT_TRUE(expected.contains("rfidsim_gen2_sessions{session=\"s3\"}"));
  for (const auto& [series, n] : expected) {
    const auto it = got.find(series);
    EXPECT_EQ(it == got.end() ? 0 : it->second, n) << series;
  }
  // Sessions this inventory does not run stay untouched.
  EXPECT_FALSE(got.contains("rfidsim_gen2_sessions{session=\"s0\"}"));
  EXPECT_FALSE(got.contains("rfidsim_gen2_sessions{session=\"s2\"}"));
}

// Satellite fix for the lenient-parse blind spot: dropped rows now land in
// a registry counter even when the caller discards ParseStats.
// The fleet feed publishes per-pass tallies it already reports to its
// caller: over a lossy, bit-flipping 4-facility run, every fleet.feed.*
// {facility} counter, both per-facility latency histograms (bucket by
// bucket, plus _count), and the unlabelled sys.uploader.wire_* and
// obs.monitor.wire_* totals move by exactly what the FeedPassResults and
// the feeds' own stats add up to.
TEST_F(InstrumentationTest, FleetFeedRegistryTotalsMatchPassResults) {
  constexpr std::size_t kFacilities = 4;
  constexpr std::size_t kReaders = 2;
  constexpr std::size_t kPasses = 12;
  const obs::HistogramSpec latency_spec{1e-3, 4.0, 16};

  track::ObjectRegistry objects;
  for (std::uint64_t tag = 1; tag <= 24; ++tag) {
    objects.bind_tag(scene::TagId{tag}, objects.add_object("box"));
  }
  fleet::FleetService service(objects);
  for (std::size_t f = 0; f < kFacilities; ++f) {
    fleet::FeedConfig config;
    config.ingest.reader_count = kReaders;
    config.ingest.silence_gap_s = 3.0;
    config.objects_total = 24;
    config.uploader.batch_size = 16;
    config.uploader.loss_probability = 0.25;
    config.uploader.initial_backoff_s = 0.4;  // Retries land past the window.
    config.uploader.max_retries = 3;
    config.uploader.max_nak_retransmits = 2;  // Some batches quarantine.
    config.wire_corruption.bit_error_rate = 4e-4;
    config.stale_horizon_s = 0.5;
    service.add_facility(config);
  }

  // Counter families read through the registry, keyed by name + facility.
  const char* const kFeedFamilies[] = {
      "fleet.feed.wire_frames", "fleet.feed.wire_corrupt_frames",
      "fleet.feed.wire_recovered_batches", "fleet.feed.wire_quarantined_batches",
      "fleet.feed.stale_batches"};
  const char* const kPlainCounters[] = {
      "fleet.feed.passes", "fleet.feed.batches", "fleet.feed.quarantined",
      "fleet.feed.late_batches", "fleet.feed.lost_batches",
      "sys.uploader.wire_frames", "sys.uploader.wire_corrupt_frames",
      "sys.uploader.wire_retransmits", "sys.uploader.wire_quarantined",
      "obs.monitor.wire_frames", "obs.monitor.wire_corrupt_frames",
      "obs.monitor.wire_recovered_batches", "obs.monitor.wire_quarantined_batches",
      "obs.monitor.stale_batches"};
  const char* const kHistograms[] = {"fleet.feed.visibility_lag_seconds",
                                     "fleet.batch.visibility_latency_seconds"};
  auto snapshot = [&] {
    SeriesTotals out;
    for (const char* name : kPlainCounters) out[name] = obs::counter(name).value();
    for (std::size_t f = 0; f < kFacilities; ++f) {
      const std::string label = std::to_string(f);
      for (const char* name : kFeedFamilies) {
        out[std::string(name) + "/" + label] =
            obs::counter(name, {{"facility", label}}).value();
      }
      for (const char* name : kHistograms) {
        const obs::Histogram& h =
            obs::registry().histogram(name, {{"facility", label}}, latency_spec);
        out[std::string(name) + "/" + label + "/count"] = h.count();
        for (std::size_t b = 0; b <= h.edges().size(); ++b) {
          out[std::string(name) + "/" + label + "/" + std::to_string(b)] = h.bucket_count(b);
        }
      }
    }
    return out;
  };

  const SeriesTotals before = snapshot();
  SeriesTotals expected;
  std::deque<obs::Histogram> lag, latency;  // Reference tallies per facility.
  for (std::size_t f = 0; f < kFacilities; ++f) {
    lag.emplace_back(latency_spec);
    latency.emplace_back(latency_spec);
  }
  Rng rng(2007);
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (std::size_t f = 0; f < kFacilities; ++f) {
      const double begin_s = 10.0 * static_cast<double>(pass);
      sys::EventLog raw;
      double t = begin_s + 0.05;
      for (std::size_t i = 0; i < 60; ++i, t += 0.15) {
        sys::ReadEvent ev;
        ev.time_s = t;
        ev.tag = scene::TagId{1 + (i * 7 + f + pass) % 24};
        ev.reader_index = i % 13 == 5 ? 9 : i % kReaders;  // 9: quarantined.
        ev.antenna_index = i % 2;
        ev.rssi = DbmPower{-60.0};
        raw.push_back(ev);
      }
      const double end_s = t;
      const fleet::FeedPassResult r =
          service.ingest_pass(static_cast<fleet::FacilityId>(f), raw, begin_s, end_s, rng);
      const std::string label = std::to_string(f);
      expected["fleet.feed.wire_frames/" + label] += r.frames_sent;
      expected["fleet.feed.wire_corrupt_frames/" + label] += r.corrupt_frames;
      expected["fleet.feed.wire_recovered_batches/" + label] += r.recovered_batches;
      expected["fleet.feed.wire_quarantined_batches/" + label] += r.quarantined_batches;
      expected["fleet.feed.stale_batches/" + label] += r.stale_batches;
      expected["fleet.feed.passes"] += 1;
      expected["fleet.feed.batches"] += r.batches.size();
      expected["fleet.feed.quarantined"] += r.quarantined;
      expected["fleet.feed.late_batches"] += r.late_batches;
      expected["fleet.feed.lost_batches"] += r.lost_batches;
      for (const fleet::FacilityBatch& batch : r.batches) {
        for (const sys::ReadEvent& ev : batch.events) {
          lag[f].observe(batch.arrival_time_s - ev.time_s);
        }
        latency[f].observe(std::max(end_s, batch.arrival_time_s) - batch.sent_time_s);
      }
    }
  }
  for (std::size_t f = 0; f < kFacilities; ++f) {
    const fleet::FeedTotals& totals = service.feed(static_cast<fleet::FacilityId>(f)).totals();
    const sys::WireUploadStats& wire = service.feed(static_cast<fleet::FacilityId>(f)).wire_stats();
    expected["sys.uploader.wire_frames"] += totals.frames_sent;
    expected["sys.uploader.wire_corrupt_frames"] += totals.corrupt_frames;
    expected["sys.uploader.wire_retransmits"] += wire.nak_retransmits;
    expected["sys.uploader.wire_quarantined"] += totals.quarantined_batches;
    expected["obs.monitor.wire_frames"] += totals.frames_sent;
    expected["obs.monitor.wire_corrupt_frames"] += totals.corrupt_frames;
    expected["obs.monitor.wire_recovered_batches"] += totals.recovered_batches;
    expected["obs.monitor.wire_quarantined_batches"] += totals.quarantined_batches;
    expected["obs.monitor.stale_batches"] += totals.stale_batches;
    const std::string label = std::to_string(f);
    for (const auto& [name, h] : {std::pair{"fleet.feed.visibility_lag_seconds", &lag[f]},
                                  std::pair{"fleet.batch.visibility_latency_seconds",
                                            &latency[f]}}) {
      const std::string key = std::string(name) + "/" + label;
      expected[key + "/count"] += h->count();
      for (std::size_t b = 0; b <= h->edges().size(); ++b) {
        expected[key + "/" + std::to_string(b)] += h->bucket_count(b);
      }
    }
  }
  // Drop zero expectations so both sides list only what moved.
  std::erase_if(expected, [](const auto& kv) { return kv.second == 0; });

  const SeriesTotals delta = moved(snapshot(), before);
  if (!kHooksLive) {
    EXPECT_TRUE(delta.empty());
    return;
  }
  // The run must exercise loss, lateness, staleness, corruption, recovery,
  // quarantine at both layers, and both histograms.
  for (const char* key :
       {"fleet.feed.lost_batches", "fleet.feed.late_batches", "fleet.feed.quarantined",
        "fleet.feed.stale_batches/1", "fleet.feed.wire_corrupt_frames/2",
        "fleet.feed.wire_recovered_batches/3", "sys.uploader.wire_quarantined",
        "sys.uploader.wire_retransmits", "fleet.feed.visibility_lag_seconds/0/count",
        "fleet.batch.visibility_latency_seconds/3/count"}) {
    EXPECT_TRUE(expected.contains(key)) << key;
  }
  EXPECT_EQ(delta, expected);
}

TEST_F(InstrumentationTest, LenientCsvParseCountsDroppedRows) {
  const std::string csv =
      "time_s,tag,reader,antenna,rssi_dbm\n"
      "0.10,42,0,0,-55.0\n"
      "garbage,row,is,not,numeric_enough\n"
      "0.20,43,0,0,-58.0\n";
  const std::uint64_t ok_before = obs::counter("sys.read_csv.rows_ok").value();
  const std::uint64_t bad_before = obs::counter("sys.read_csv.rows_bad").value();
  const std::uint64_t parses_before = obs::counter("sys.read_csv.parses").value();

  // No ParseStats out-param: before the registry hook this caller had no
  // way of noticing the dropped row.
  const sys::EventLog log = sys::from_csv(csv, sys::ParseMode::Lenient, nullptr);

  EXPECT_EQ(log.size(), 2u);
  const std::uint64_t d = kHooksLive ? 1 : 0;
  EXPECT_EQ(obs::counter("sys.read_csv.rows_ok").value(), ok_before + 2 * d);
  EXPECT_EQ(obs::counter("sys.read_csv.rows_bad").value(), bad_before + d);
  EXPECT_EQ(obs::counter("sys.read_csv.parses").value(), parses_before + d);
}

TEST_F(InstrumentationTest, UploaderRetriesSurfaceInRegistry) {
  sys::UploaderConfig cfg;
  cfg.loss_probability = 0.3;
  cfg.max_retries = 16;
  sys::EventUploader up(cfg);
  sys::EventLog log;
  for (std::size_t i = 0; i < 320; ++i) {
    sys::ReadEvent ev;
    ev.time_s = 0.01 * static_cast<double>(i);
    ev.tag = scene::TagId{i};
    log.push_back(ev);
  }
  const std::uint64_t retries_before = obs::counter("sys.uploader.retries").value();
  const std::uint64_t batches_before = obs::counter("sys.uploader.batches").value();
  Rng rng(2);
  (void)up.upload(log, rng);
  EXPECT_GT(up.stats().retries, 0u);  // Old accessor still works...
  if (!kHooksLive) {
    EXPECT_EQ(obs::counter("sys.uploader.retries").value(), retries_before);
    return;
  }
  EXPECT_EQ(obs::counter("sys.uploader.retries").value(),
            retries_before + up.stats().retries);  // ...and the registry agrees.
  EXPECT_EQ(obs::counter("sys.uploader.batches").value(),
            batches_before + up.stats().batches);
}

TEST_F(InstrumentationTest, IngestQuarantineSurfacesInRegistry) {
  track::ResilientIngest ingest;
  sys::EventLog raw;
  sys::ReadEvent ok;
  ok.time_s = 1.0;
  ok.tag = scene::TagId{1};
  ok.rssi = DbmPower(-60.0);
  raw.push_back(ok);
  sys::ReadEvent outside = ok;
  outside.time_s = 99.0;  // Outside the pass window: quarantined.
  raw.push_back(outside);

  const std::uint64_t quarantined_before =
      obs::counter("track.ingest.quarantined").value();
  const std::uint64_t accepted_before = obs::counter("track.ingest.accepted").value();
  const track::IngestReport report = ingest.ingest(raw, 0.0, 10.0);
  EXPECT_EQ(report.quarantined, 1u);
  const std::uint64_t d = kHooksLive ? 1 : 0;
  EXPECT_EQ(obs::counter("track.ingest.quarantined").value(), quarantined_before + d);
  EXPECT_EQ(obs::counter("track.ingest.accepted").value(), accepted_before + d);
}

TEST_F(InstrumentationTest, FaultScheduleSamplingIsCounted) {
  fault::FaultConfig cfg;
  cfg.reader.mtbf_s = 2.0;
  cfg.reader.mttr_s = 0.5;
  const std::uint64_t sampled_before = obs::counter("fault.schedules_sampled").value();
  Rng rng(11);
  (void)fault::FaultSchedule::sample(cfg, 2, 2, 0.0, 20.0, rng);
  const std::uint64_t d = kHooksLive ? 1 : 0;
  EXPECT_EQ(obs::counter("fault.schedules_sampled").value(), sampled_before + d);

  // The all-off default config is deliberately not counted: it samples an
  // empty schedule on every run and would drown the signal.
  Rng rng2(11);
  (void)fault::FaultSchedule::sample({}, 2, 2, 0.0, 20.0, rng2);
  EXPECT_EQ(obs::counter("fault.schedules_sampled").value(), sampled_before + d);
}

}  // namespace
}  // namespace rfidsim
