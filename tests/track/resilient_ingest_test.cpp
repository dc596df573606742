#include "track/resilient_ingest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.hpp"

#include "common/error.hpp"
#include "fault/corruption.hpp"
#include "system/event_io.hpp"
#include "track/tracking.hpp"

namespace rfidsim::track {
namespace {

sys::ReadEvent event(double t, std::uint64_t tag, std::size_t reader,
                     std::size_t antenna, double rssi = -55.0) {
  sys::ReadEvent ev;
  ev.time_s = t;
  ev.tag = scene::TagId{tag};
  ev.reader_index = reader;
  ev.antenna_index = antenna;
  ev.rssi = DbmPower(rssi);
  return ev;
}

sys::EventLog dense_log(std::size_t n) {
  sys::EventLog log;
  for (std::size_t i = 0; i < n; ++i) {
    log.push_back(event(0.02 * static_cast<double>(i % 190), 1 + i % 12, i % 2, i % 2));
  }
  return log;
}

TEST(ResilientIngestTest, CleanLogPassesThroughUntouched) {
  ResilientIngest ingest;
  sys::EventLog log{event(0.1, 1, 0, 0), event(0.5, 2, 0, 0), event(0.9, 1, 0, 0)};
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.accepted, 3u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.reordered, 0u);
  EXPECT_FALSE(report.degraded());
}

TEST(ResilientIngestTest, QuarantinesImplausibleRecordsWithoutThrowing) {
  IngestConfig cfg;
  cfg.reader_count = 2;
  cfg.antenna_count = 2;
  ResilientIngest ingest(cfg);
  sys::EventLog log{
      event(0.1, 1, 0, 0),
      event(std::numeric_limits<double>::quiet_NaN(), 2, 0, 0),  // NaN time.
      event(0.2, 3, 0, 0, 55.0),                                 // +55 dBm: absurd.
      event(0.3, 4, 9, 0),                                       // No reader 9.
      event(0.4, 5, 0, 7),                                       // No antenna 7.
      event(99.0, 6, 0, 0),                                      // Outside window.
      event(0.5, 7, 1, 1),
  };
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.quarantined, 5u);
  EXPECT_EQ(report.quarantine_samples.size(), 5u);
}

TEST(ResilientIngestTest, RegistryCatchesBitFlippedTags) {
  ObjectRegistry registry;
  const ObjectId box = registry.add_object("box");
  registry.bind_tag(scene::TagId{1001}, box);

  IngestConfig cfg;
  cfg.registry = &registry;
  ResilientIngest ingest(cfg);
  sys::EventLog log{event(0.1, 1001, 0, 0), event(0.2, 1001 ^ 64, 0, 0)};
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.quarantined, 1u);
}

TEST(ResilientIngestTest, CollapsesTransportDuplicates) {
  ResilientIngest ingest;
  sys::EventLog log{
      event(0.100, 1, 0, 0), event(0.100, 1, 0, 0),   // Exact duplicate.
      event(0.1005, 1, 0, 0),                         // Within dedup window.
      event(0.200, 1, 0, 0),                          // A genuine re-read.
      event(0.100, 1, 1, 0),                          // Other reader: kept.
  };
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.accepted, 3u);
  EXPECT_EQ(report.duplicates, 2u);
}

TEST(ResilientIngestTest, RestoresOrderAndCountsInversions) {
  ResilientIngest ingest;
  sys::EventLog log{event(0.5, 1, 0, 0), event(0.1, 2, 0, 0), event(0.3, 3, 0, 0)};
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.reordered, 2u);
  ASSERT_EQ(report.events.size(), 3u);
  EXPECT_LT(report.events[0].time_s, report.events[1].time_s);
  EXPECT_LT(report.events[1].time_s, report.events[2].time_s);
}

TEST(ResilientIngestTest, DetectsSilenceGapsAndDeclaresReadersDown) {
  IngestConfig cfg;
  cfg.reader_count = 2;
  cfg.silence_gap_s = 1.0;
  ResilientIngest ingest(cfg);
  // Reader 0 speaks throughout; reader 1 dies at t = 2.
  sys::EventLog log;
  for (int i = 0; i < 80; ++i) log.push_back(event(0.1 * i, 1, 0, 0));
  for (int i = 0; i < 20; ++i) log.push_back(event(0.1 * i, 2, 1, 1));
  const IngestReport report = ingest.ingest(log, 0.0, 8.0);
  ASSERT_EQ(report.degraded_readers.size(), 1u);
  EXPECT_EQ(report.degraded_readers[0], 1u);
  EXPECT_TRUE(report.degraded());
  bool found_tail_gap = false;
  for (const SilenceGap& gap : report.gaps) {
    if (gap.reader == 1 && gap.to_window_end) {
      found_tail_gap = true;
      EXPECT_NEAR(gap.begin_s, 1.9, 1e-9);
      EXPECT_EQ(gap.end_s, 8.0);
    }
  }
  EXPECT_TRUE(found_tail_gap);
}

TEST(ResilientIngestTest, KnownReaderThatNeverSpeaksIsDown) {
  IngestConfig cfg;
  cfg.reader_count = 2;
  ResilientIngest ingest(cfg);
  sys::EventLog log;
  for (int i = 0; i < 40; ++i) log.push_back(event(0.1 * i, 1, 0, 0));
  const IngestReport report = ingest.ingest(log, 0.0, 4.0);
  ASSERT_EQ(report.degraded_readers.size(), 1u);
  EXPECT_EQ(report.degraded_readers[0], 1u);
}

TEST(ResilientIngestTest, SurvivesHeavilyCorruptedCsv) {
  // Acceptance criterion: >= 5% bad/dropped/duplicated rows, no throw,
  // quarantine counters populated.
  const sys::EventLog log = dense_log(1000);
  const std::string csv = sys::to_csv(log);
  fault::CorruptionConfig corr;
  corr.drop_probability = 0.03;
  corr.duplicate_probability = 0.03;
  corr.corrupt_probability = 0.05;
  corr.reorder_probability = 0.05;
  Rng rng(2024);
  fault::CorruptionStats cstats;
  const std::string bad = fault::corrupt_csv(csv, corr, rng, &cstats);
  ASSERT_GE(cstats.dropped + cstats.duplicated + cstats.corrupted, 50u);

  IngestConfig cfg;
  cfg.reader_count = 2;
  cfg.antenna_count = 2;
  ResilientIngest ingest(cfg);
  IngestReport report;
  ASSERT_NO_THROW(report = ingest.ingest_csv(bad, 0.0, 4.0));
  EXPECT_GT(report.parse.rows_bad, 0u);
  EXPECT_GT(report.duplicates, 0u);
  EXPECT_GT(report.accepted, 800u);  // The vast majority survives.
  EXPECT_EQ(report.accepted, report.events.size());
  // Everything the corruptor injected is either parsed, parse-failed, or
  // quarantined/deduped — nothing vanishes unaccounted.
  EXPECT_EQ(report.parse.rows_ok,
            report.accepted + report.duplicates + report.quarantined);
}

TEST(ResilientIngestTest, CsvPathMatchesInMemoryPathOnCleanInput) {
  const sys::EventLog log = dense_log(200);
  ResilientIngest ingest;
  const IngestReport a = ingest.ingest(log, 0.0, 4.0);
  const IngestReport b = ingest.ingest_csv(sys::to_csv(log), 0.0, 4.0);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.duplicates, b.duplicates);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].tag, b.events[i].tag);
  }
}

TEST(ResilientIngestTest, WrongHeaderStillThrows) {
  ResilientIngest ingest;
  EXPECT_THROW(ingest.ingest_csv(std::string("not,a,log\n1,2,3\n"), 0.0, 1.0),
               ConfigError);
}

TEST(ResilientIngestTest, OutOfOrderBatchArrivalConvergesToSortedStream) {
  // Two upload batches from the same pass delivered in the wrong order
  // (the second flush arrived first): the ingest output must be the same
  // time-sorted stream as the in-order delivery, with the inversion
  // tallied, not dropped.
  const sys::EventLog batch1{event(0.1, 1, 0, 0), event(0.2, 2, 0, 0),
                             event(0.3, 3, 0, 0)};
  const sys::EventLog batch2{event(0.6, 4, 1, 0), event(0.7, 5, 1, 0),
                             event(0.8, 1, 1, 0)};
  sys::EventLog in_order(batch1);
  in_order.insert(in_order.end(), batch2.begin(), batch2.end());
  sys::EventLog swapped(batch2);
  swapped.insert(swapped.end(), batch1.begin(), batch1.end());

  ResilientIngest ingest;
  const IngestReport a = ingest.ingest(in_order, 0.0, 1.0);
  const IngestReport b = ingest.ingest(swapped, 0.0, 1.0);
  EXPECT_EQ(a.reordered, 0u);
  EXPECT_EQ(b.reordered, 3u);  // All of batch1 arrived behind batch2's times.
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].tag, b.events[i].tag);
    EXPECT_DOUBLE_EQ(a.events[i].time_s, b.events[i].time_s);
  }
}

TEST(ResilientIngestTest, DuplicateBatchArrivalCollapsesToOneCopy) {
  // Middleware re-delivered a whole batch: every record is an exact
  // repeat of an already-seen (tag, reader, antenna, time) and must
  // collapse as a transport duplicate, leaving the accepted stream
  // identical to the single-delivery run.
  const sys::EventLog batch{event(0.1, 1, 0, 0), event(0.2, 2, 0, 1),
                            event(0.3, 3, 1, 0)};
  sys::EventLog redelivered(batch);
  redelivered.insert(redelivered.end(), batch.begin(), batch.end());

  ResilientIngest ingest;
  const IngestReport once = ingest.ingest(batch, 0.0, 1.0);
  const IngestReport twice = ingest.ingest(redelivered, 0.0, 1.0);
  EXPECT_EQ(twice.accepted, once.accepted);
  EXPECT_EQ(twice.duplicates, batch.size());
  ASSERT_EQ(twice.events.size(), once.events.size());
  for (std::size_t i = 0; i < once.events.size(); ++i) {
    EXPECT_EQ(twice.events[i].tag, once.events[i].tag);
  }
}

TEST(ResilientIngestTest, ValidateEventMatchesIngestQuarantineRules) {
  IngestConfig cfg;
  cfg.reader_count = 2;
  cfg.antenna_count = 2;
  const ResilientIngest ingest(cfg);
  const sys::EventLog log{
      event(0.1, 1, 0, 0),                                       // Clean.
      event(std::numeric_limits<double>::quiet_NaN(), 2, 0, 0),  // NaN time.
      event(0.2, 3, 0, 0, 55.0),                                 // Absurd RSSI.
      event(0.3, 4, 9, 0),                                       // No reader 9.
      event(99.0, 6, 0, 0),                                      // Outside window.
  };
  // Record-by-record verdicts agree with the pass-level tallies...
  std::size_t rejected = 0;
  for (const sys::ReadEvent& ev : log) {
    std::string reason;
    if (!validate_event(ev, cfg, 0.0, 1.0, &reason)) {
      ++rejected;
      EXPECT_FALSE(reason.empty());
    }
  }
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.quarantined, rejected);
  // ...and the sampled reasons are the exact strings ingest() records.
  ASSERT_EQ(report.quarantine_samples.size(), rejected);
  std::size_t sample = 0;
  for (const sys::ReadEvent& ev : log) {
    std::string reason;
    if (!validate_event(ev, cfg, 0.0, 1.0, &reason)) {
      EXPECT_EQ(report.quarantine_samples[sample++], reason);
    }
  }
}

/// The node-based ingest the flat-vector dedup replaced, kept as the
/// oracle: validate, stable-sort by time, collapse duplicates per
/// (tag, reader, antenna) stream through a std::map, scan for silence.
IngestReport reference_ingest(const IngestConfig& cfg, const sys::EventLog& raw,
                              double begin_s, double end_s) {
  IngestReport report;
  sys::EventLog valid;
  double high_water = -std::numeric_limits<double>::infinity();
  for (const sys::ReadEvent& ev : raw) {
    std::string reason;
    if (!validate_event(ev, cfg, begin_s, end_s, &reason)) {
      ++report.quarantined;
      if (report.quarantine_samples.size() < IngestReport::kMaxQuarantineSamples) {
        report.quarantine_samples.push_back(reason);
      }
      continue;
    }
    if (ev.time_s < high_water) ++report.reordered;
    high_water = std::max(high_water, ev.time_s);
    valid.push_back(ev);
  }
  std::stable_sort(valid.begin(), valid.end(),
                   [](const sys::ReadEvent& a, const sys::ReadEvent& b) {
                     return a.time_s < b.time_s;
                   });
  std::map<std::tuple<std::uint64_t, std::size_t, std::size_t>, double> last;
  for (const sys::ReadEvent& ev : valid) {
    const auto key = std::make_tuple(ev.tag.value, ev.reader_index, ev.antenna_index);
    const auto it = last.find(key);
    if (it != last.end() && ev.time_s - it->second <= cfg.dedup_window_s) {
      ++report.duplicates;
      continue;
    }
    last[key] = ev.time_s;
    report.events.push_back(ev);
  }
  report.accepted = report.events.size();
  std::size_t readers = cfg.reader_count;
  if (readers == 0) {
    for (const sys::ReadEvent& ev : report.events) {
      readers = std::max(readers, ev.reader_index + 1);
    }
  }
  for (std::size_t r = 0; r < readers; ++r) {
    double cursor = begin_s;
    for (const sys::ReadEvent& ev : report.events) {
      if (ev.reader_index != r) continue;
      if (ev.time_s - cursor > cfg.silence_gap_s) {
        report.gaps.push_back({r, cursor, ev.time_s, false});
      }
      cursor = ev.time_s;
    }
    if (end_s - cursor > cfg.silence_gap_s) {
      report.gaps.push_back({r, cursor, end_s, true});
      report.degraded_readers.push_back(r);
    }
  }
  return report;
}

/// The std::set-based monitor_observation the sort+unique version replaced.
obs::PassObservation reference_observation(const IngestReport& report,
                                           std::size_t reader_count,
                                           std::size_t objects_total,
                                           double begin_s, double end_s) {
  obs::PassObservation out;
  out.window_begin_s = begin_s;
  out.window_end_s = end_s;
  out.objects_total = objects_total;
  out.readers.resize(reader_count);
  std::set<std::uint64_t> all;
  std::vector<std::set<std::uint64_t>> per_reader(reader_count);
  for (const sys::ReadEvent& ev : report.events) {
    all.insert(ev.tag.value);
    if (ev.reader_index < reader_count) {
      per_reader[ev.reader_index].insert(ev.tag.value);
      ++out.readers[ev.reader_index].rounds;
    }
  }
  out.objects_identified = std::min<std::uint64_t>(all.size(), objects_total);
  for (std::size_t r = 0; r < reader_count; ++r) {
    out.readers[r].objects_seen = std::min<std::uint64_t>(per_reader[r].size(), objects_total);
  }
  return out;
}

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

void expect_same_report(const IngestReport& got, const IngestReport& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    const sys::ReadEvent& a = got.events[i];
    const sys::ReadEvent& b = want.events[i];
    EXPECT_EQ(a.tag, b.tag) << "event " << i;
    EXPECT_EQ(bits(a.time_s), bits(b.time_s)) << "event " << i;
    EXPECT_EQ(a.reader_index, b.reader_index) << "event " << i;
    EXPECT_EQ(a.antenna_index, b.antenna_index) << "event " << i;
    EXPECT_EQ(bits(a.rssi.value()), bits(b.rssi.value())) << "event " << i;
  }
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.quarantined, want.quarantined);
  EXPECT_EQ(got.reordered, want.reordered);
  EXPECT_EQ(got.quarantine_samples, want.quarantine_samples);
  ASSERT_EQ(got.gaps.size(), want.gaps.size());
  for (std::size_t i = 0; i < want.gaps.size(); ++i) {
    EXPECT_EQ(got.gaps[i].reader, want.gaps[i].reader);
    EXPECT_EQ(bits(got.gaps[i].begin_s), bits(want.gaps[i].begin_s));
    EXPECT_EQ(bits(got.gaps[i].end_s), bits(want.gaps[i].end_s));
    EXPECT_EQ(got.gaps[i].to_window_end, want.gaps[i].to_window_end);
  }
  EXPECT_EQ(got.degraded_readers, want.degraded_readers);
}

/// A pass-shaped log with transport damage: re-deliveries inside, exactly
/// at and outside the dedup window, whole stretches delivered out of
/// order, a few implausible records, several readers and antennas, a
/// reader that falls silent partway. Read times sit on a 2^-10 s grid, so
/// with a dyadic window a re-delivery shifted by exactly the window lands
/// exactly on the boundary.
sys::EventLog damaged_pass(Rng& rng, double dedup_window_s) {
  sys::EventLog log;
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 300));
  const std::size_t silent_from = static_cast<std::size_t>(rng.uniform_int(0, 300));
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += std::ldexp(static_cast<double>(rng.uniform_int(0, 30)), -10);
    const std::size_t reader = static_cast<std::size_t>(rng.uniform_int(0, 3));
    if (reader == 2 && i > silent_from) continue;
    sys::ReadEvent ev = event(t, static_cast<std::uint64_t>(rng.uniform_int(1, 25)), reader,
                              static_cast<std::size_t>(rng.uniform_int(0, 2)),
                              -50.0 - rng.uniform(0.0, 30.0));
    if (rng.bernoulli(0.03)) ev.rssi = DbmPower(40.0);  // Implausible.
    if (rng.bernoulli(0.02)) ev.reader_index = 7;       // No such reader.
    log.push_back(ev);
    if (rng.bernoulli(0.15)) {  // Re-delivered copy.
      sys::ReadEvent copy = ev;
      switch (rng.uniform_int(0, 3)) {
        case 0: break;  // Exact repeat.
        case 1: copy.time_s += rng.uniform(0.0, dedup_window_s); break;
        case 2: copy.time_s += dedup_window_s; break;  // On the boundary.
        default: copy.time_s += dedup_window_s * rng.uniform(1.0, 3.0); break;
      }
      log.push_back(copy);
    }
  }
  // Out-of-order batch arrival: rotate a few random stretches.
  for (int k = 0; k < 3 && log.size() > 2; ++k) {
    const auto a = static_cast<std::ptrdiff_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(log.size()) - 2));
    const auto b = static_cast<std::ptrdiff_t>(
        rng.uniform_int(a + 1, static_cast<std::int64_t>(log.size()) - 1));
    std::rotate(log.begin() + a, log.begin() + (a + b) / 2 + 1, log.begin() + b + 1);
  }
  return log;
}

TEST(ResilientIngestTest, MatchesNodeBasedReferenceOnDamagedLogs) {
  Rng rng(0x1D6E57);
  for (int trial = 0; trial < 300; ++trial) {
    IngestConfig cfg;
    // The default window, a dyadic one (exact boundary hits), or any.
    cfg.dedup_window_s = trial % 3 == 0   ? 0.002
                         : trial % 3 == 1 ? std::ldexp(1.0, -static_cast<int>(rng.uniform_int(5, 9)))
                                          : rng.uniform(0.0, 0.05);
    cfg.silence_gap_s = rng.uniform(0.2, 2.0);
    cfg.reader_count = trial % 4 == 0 ? 0 : 4;  // 0: roster from the data.
    cfg.antenna_count = trial % 2 == 0 ? 0 : 3;
    const ResilientIngest ingest(cfg);
    const sys::EventLog log = damaged_pass(rng, cfg.dedup_window_s);
    const double end_s = (log.empty() ? 0.0 : log.back().time_s) + rng.uniform(0.0, 3.0);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const IngestReport got = ingest.ingest(log, 0.0, end_s);
    const IngestReport want = reference_ingest(cfg, log, 0.0, end_s);
    expect_same_report(got, want);

    const std::size_t readers = 4;
    const std::size_t objects_total = static_cast<std::size_t>(rng.uniform_int(0, 30));
    const obs::PassObservation a = monitor_observation(got, readers, objects_total, 0.0, end_s);
    const obs::PassObservation b =
        reference_observation(want, readers, objects_total, 0.0, end_s);
    EXPECT_EQ(bits(a.window_begin_s), bits(b.window_begin_s));
    EXPECT_EQ(bits(a.window_end_s), bits(b.window_end_s));
    EXPECT_EQ(a.objects_total, b.objects_total);
    EXPECT_EQ(a.objects_identified, b.objects_identified);
    ASSERT_EQ(a.readers.size(), b.readers.size());
    for (std::size_t r = 0; r < readers; ++r) {
      EXPECT_EQ(a.readers[r].rounds, b.readers[r].rounds) << "reader " << r;
      EXPECT_EQ(a.readers[r].objects_seen, b.readers[r].objects_seen) << "reader " << r;
    }
  }
}

TEST(ResilientIngestTest, RejectsBadConfig) {
  IngestConfig inverted;
  inverted.min_rssi_dbm = 0.0;
  inverted.max_rssi_dbm = -10.0;
  EXPECT_THROW(ResilientIngest{inverted}, ConfigError);
  IngestConfig negative;
  negative.dedup_window_s = -1.0;
  EXPECT_THROW(ResilientIngest{negative}, ConfigError);
  ResilientIngest ok;
  EXPECT_THROW(ok.ingest({}, 1.0, 0.0), ConfigError);
}

}  // namespace
}  // namespace rfidsim::track
