#include "fleet/feed.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace rfidsim::fleet {

namespace {

/// Log-scale buckets from 1 ms (a clean serial hop) out past retry-backoff
/// territory, shared by both per-facility latency histograms.
constexpr obs::HistogramSpec kLatencySpec{1e-3, 4.0, 16};

}  // namespace

/// Feed registry hooks: per-pass aggregates across all feeds, plus
/// per-facility wire-transport counters (the facility label is what lets
/// an operator see *which* uplink is rotting).
void FacilityFeed::publish_pass_metrics(const FeedPassResult& result) {
  static const struct Metrics {
    obs::Counter& passes = obs::counter("fleet.feed.passes");
    obs::Counter& batches = obs::counter("fleet.feed.batches");
    obs::Counter& quarantined = obs::counter("fleet.feed.quarantined");
    obs::Counter& late = obs::counter("fleet.feed.late_batches");
    obs::Counter& lost = obs::counter("fleet.feed.lost_batches");
  } m;
  m.passes.add(1);
  m.batches.add(result.batches.size());
  m.quarantined.add(result.quarantined);
  m.late.add(result.late_batches);
  m.lost.add(result.lost_batches);

  if (hooks_.wire_frames == nullptr) {
    const std::string label = std::to_string(config_.facility);
    hooks_.wire_frames = &obs::counter("fleet.feed.wire_frames", {{"facility", label}});
    hooks_.wire_corrupt_frames =
        &obs::counter("fleet.feed.wire_corrupt_frames", {{"facility", label}});
    hooks_.wire_recovered_batches =
        &obs::counter("fleet.feed.wire_recovered_batches", {{"facility", label}});
    hooks_.wire_quarantined_batches =
        &obs::counter("fleet.feed.wire_quarantined_batches", {{"facility", label}});
    hooks_.stale_batches = &obs::counter("fleet.feed.stale_batches", {{"facility", label}});
  }
  hooks_.wire_frames->add(result.frames_sent);
  hooks_.wire_corrupt_frames->add(result.corrupt_frames);
  hooks_.wire_recovered_batches->add(result.recovered_batches);
  hooks_.wire_quarantined_batches->add(result.quarantined_batches);
  hooks_.stale_batches->add(result.stale_batches);
}

/// Published after a merge, labelled per facility so one rotting uplink's
/// lag does not hide inside a fleet-wide aggregate:
///   - the watermark and its age;
///   - visibility_lag_seconds: backend arrival minus event time per event,
///     i.e. how long a sighting was in flight before a query could see it.
///     Tallied locally and published with one bulk add;
///   - visibility_latency_seconds: end-to-end batch latency, uploader send
///     -> watermark-visible. A batch becomes queryable when its pass's
///     merge completes, which in simulated time is the later of its backend
///     arrival and the pass window close (the watermark only advances at
///     pass granularity). Observed per batch — the p50/p95/p99 the
///     exposition derives are what BENCH_FLEET regresses on.
void FacilityFeed::publish_ingest_metrics(const FeedPassResult& result,
                                          double window_end_s) {
  if (hooks_.watermark == nullptr) {
    const std::string label = std::to_string(config_.facility);
    hooks_.watermark = &obs::gauge("fleet.watermark.seconds", {{"facility", label}});
    hooks_.visibility_lag = &obs::registry().histogram(
        "fleet.feed.visibility_lag_seconds", {{"facility", label}}, kLatencySpec);
    hooks_.visibility_latency = &obs::registry().histogram(
        "fleet.batch.visibility_latency_seconds", {{"facility", label}}, kLatencySpec);
  }
  hooks_.watermark->set(watermark_s_);
  const double age_s = watermark_age_s();
  if (age_s < std::numeric_limits<double>::infinity()) {
    if (hooks_.watermark_age == nullptr) {
      hooks_.watermark_age = &obs::gauge(
          "fleet.watermark.age_seconds", {{"facility", std::to_string(config_.facility)}});
    }
    hooks_.watermark_age->set(age_s);
  }

  obs::Histogram& lag = *hooks_.visibility_lag;
  lag_buckets_.assign(lag.edges().size() + 1, 0);
  double lag_sum = 0.0;
  for (const FacilityBatch& batch : result.batches) {
    for (const sys::ReadEvent& ev : batch.events) {
      const double x = batch.arrival_time_s - ev.time_s;
      ++lag_buckets_[lag.bucket_index(x)];
      lag_sum += x;
    }
  }
  lag.add_bucketed(lag_buckets_, lag_sum);

  for (const FacilityBatch& batch : result.batches) {
    const double visible_s = std::max(window_end_s, batch.arrival_time_s);
    hooks_.visibility_latency->observe(visible_s - batch.sent_time_s);
    if (batch.batch_id != 0) {
      obs::provenance_log().record({batch.batch_id, obs::BatchHop::kVisible,
                                    batch.facility, batch.events.size(),
                                    visible_s});
    }
  }
}

FacilityFeed::FacilityFeed(FeedConfig config)
    : config_(std::move(config)),
      uploader_(config_.uploader),
      corruptor_(config_.wire_corruption),
      ingest_(config_.ingest),
      monitor_(config_.monitor) {
  require(config_.ingest.reader_count > 0,
          "FacilityFeed: ingest.reader_count must be set (the monitor needs "
          "the reader roster)");
}

FeedPassResult FacilityFeed::process_pass(const sys::EventLog& raw,
                                          double window_begin_s,
                                          double window_end_s, Rng& rng) {
  const obs::TraceSpan span("fleet.feed.pass");
  require(window_end_s >= window_begin_s, "FacilityFeed: inverted pass window");

  FeedPassResult result;
  const std::size_t batches_before = uploader_.stats().batches_lost;
  const sys::WireUploadStats wire_before = uploader_.wire_stats();
  std::vector<sys::DeliveredBatch> delivered =
      uploader_.upload_wire(raw, config_.facility, rng, &corruptor_);
  result.lost_batches = uploader_.stats().batches_lost - batches_before;
  const sys::WireUploadStats& wire_after = uploader_.wire_stats();
  result.frames_sent =
      static_cast<std::size_t>(wire_after.frames_sent - wire_before.frames_sent);
  result.corrupt_frames = static_cast<std::size_t>(wire_after.corrupt_frames -
                                                   wire_before.corrupt_frames);
  result.recovered_batches = static_cast<std::size_t>(
      wire_after.batches_recovered - wire_before.batches_recovered);
  result.quarantined_batches = static_cast<std::size_t>(
      wire_after.batches_quarantined - wire_before.batches_quarantined);

  // Per-batch validation: the same record rules ingest() applies, so the
  // store only ever sees plausible sightings. On-time batches additionally
  // feed the pass-level union below.
  sys::EventLog on_time;
  const bool hooked = obs::hooks_enabled();
  for (sys::DeliveredBatch& db : delivered) {
    FacilityBatch batch;
    batch.facility = config_.facility;
    batch.sent_time_s = db.sent_time_s;
    batch.arrival_time_s = db.arrival_time_s;
    batch.batch_id = db.batch_id;
    batch.events.reserve(db.events.size());
    for (const sys::ReadEvent& ev : db.events) {
      if (!track::validate_event(ev, config_.ingest, window_begin_s, window_end_s)) {
        ++result.quarantined;
        continue;
      }
      batch.events.push_back(ev);
      result.max_event_time_s = std::max(result.max_event_time_s, ev.time_s);
    }
    if (batch.events.empty()) continue;
    if (hooked && batch.batch_id != 0) {
      obs::provenance_log().record({batch.batch_id, obs::BatchHop::kValidated,
                                    batch.facility, batch.events.size(),
                                    batch.arrival_time_s});
    }
    if (batch.arrival_time_s > window_end_s + config_.stale_horizon_s) {
      // Past the staleness horizon: alerted below, still stored — the
      // sorted-idempotent store repairs truth however late the data is.
      ++result.stale_batches;
      if (hooked && batch.batch_id != 0) {
        obs::provenance_log().record({batch.batch_id, obs::BatchHop::kStale,
                                      batch.facility, batch.events.size(),
                                      batch.arrival_time_s});
      }
    }
    if (batch.arrival_time_s > window_end_s) {
      ++result.late_batches;
      if (hooked && batch.batch_id != 0) {
        obs::provenance_log().record({batch.batch_id, obs::BatchHop::kLate,
                                      batch.facility, batch.events.size(),
                                      batch.arrival_time_s});
      }
    } else {
      on_time.insert(on_time.end(), batch.events.begin(), batch.events.end());
    }
    result.batches.push_back(std::move(batch));
  }

  // Pass-level union over what arrived in time: dedup and silence signals,
  // then one monitor observation. A reader whose batches all slid past the
  // window end looks silent here — deliberately: that is the latency
  // degradation the confidence model must reflect.
  result.report = ingest_.ingest(on_time, window_begin_s, window_end_s);
  last_degraded_ = result.report.degraded_readers;
  monitor_.observe_pass(track::monitor_observation(
      result.report, config_.ingest.reader_count, config_.objects_total,
      window_begin_s, window_end_s));
  monitor_.observe_transport(obs::TransportObservation{
      result.frames_sent, result.corrupt_frames, result.recovered_batches,
      result.quarantined_batches, result.stale_batches, window_end_s});

  // Cumulative tallies for the health surface — always on (pure counting).
  last_window_end_s_ = window_end_s;
  totals_.passes += 1;
  totals_.delivered_batches += result.batches.size();
  for (const FacilityBatch& batch : result.batches) {
    totals_.stored_events += batch.events.size();
  }
  totals_.quarantined_records += result.quarantined;
  totals_.late_batches += result.late_batches;
  totals_.lost_batches += result.lost_batches;
  totals_.stale_batches += result.stale_batches;
  totals_.frames_sent += result.frames_sent;
  totals_.corrupt_frames += result.corrupt_frames;
  totals_.recovered_batches += result.recovered_batches;
  totals_.quarantined_batches += result.quarantined_batches;

  result.watermark_s = watermark_s_;
  if (hooked) publish_pass_metrics(result);
  return result;
}

FeedPassResult FacilityFeed::ingest_pass(TrackingStore& store,
                                         const sys::EventLog& raw,
                                         double window_begin_s, double window_end_s,
                                         Rng& rng) {
  FeedPassResult result = process_pass(raw, window_begin_s, window_end_s, rng);
  store.ingest(result.batches);
  // Everything this pass delivered is now merged, so the watermark may
  // advance to the pass's max event time. The stall detector is always-on
  // arithmetic (feedback-free contract: detection never gates on obs).
  watermark_s_ = std::max(watermark_s_, result.max_event_time_s);
  result.watermark_s = watermark_s_;
  monitor_.observe_watermark(
      obs::WatermarkObservation{watermark_s_, window_end_s});
  if (obs::hooks_enabled()) publish_ingest_metrics(result, window_end_s);
  return result;
}

double FacilityFeed::watermark_age_s() const {
  if (watermark_s_ < 0.0) return std::numeric_limits<double>::infinity();
  return last_window_end_s_ - watermark_s_;
}

FacilityModel FacilityFeed::model() const {
  FacilityModel model;
  const std::size_t readers = config_.ingest.reader_count;
  model.reader_read_rates.resize(readers, 0.0);
  model.reader_live.assign(readers, true);
  for (std::size_t r = 0; r < readers && r < monitor_.reader_count(); ++r) {
    model.reader_read_rates[r] = monitor_.reader_read_rate(r);
  }
  for (const std::size_t r : last_degraded_) {
    if (r < readers) model.reader_live[r] = false;
  }
  return model;
}

}  // namespace rfidsim::fleet
