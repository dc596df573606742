#include "system/uploader.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "wire/batch_codec.hpp"

namespace rfidsim::sys {

namespace {

/// Upload-channel registry hooks. The per-instance UploadStats struct
/// remains the per-uploader view (its accessors are unchanged); these are
/// the cross-instance totals the old ad-hoc fields could never give —
/// before, retry/backoff churn was invisible unless the caller remembered
/// to poll stats() on every uploader it created.
struct UploaderMetrics {
  obs::Counter& batches = obs::counter("sys.uploader.batches");
  obs::Counter& attempts = obs::counter("sys.uploader.attempts");
  obs::Counter& attempts_ok = obs::counter("sys.uploader.attempts",
                                           {{"result", "delivered"}});
  obs::Counter& attempts_lost = obs::counter("sys.uploader.attempts",
                                             {{"result", "lost"}});
  obs::Counter& retries = obs::counter("sys.uploader.retries");
  obs::Counter& batches_lost = obs::counter("sys.uploader.batches_lost");
  obs::Counter& giveups_retry = obs::counter("sys.uploader.giveups",
                                             {{"reason", "retry_budget"}});
  obs::Counter& giveups_nak = obs::counter("sys.uploader.giveups",
                                           {{"reason", "nak_budget"}});
  obs::Counter& events_delivered = obs::counter("sys.uploader.events_delivered");
  obs::Counter& events_lost = obs::counter("sys.uploader.events_lost");
  obs::Gauge& backoff_s = obs::gauge("sys.uploader.backoff_seconds");
};

UploaderMetrics& uploader_metrics() {
  static UploaderMetrics m;
  return m;
}

/// Bounded exponential backoff with optional seeded jitter. One instance
/// per batch: every retry/retransmit waits the current value (cap + jitter
/// applied) and escalates.
struct Backoff {
  double next_s;
  const UploaderConfig& config;
  explicit Backoff(const UploaderConfig& c) : next_s(c.initial_backoff_s), config(c) {}

  double take(Rng& rng) {
    double wait = std::min(next_s, config.max_backoff_s);
    if (config.jitter_fraction > 0.0) {
      wait += rng.uniform(0.0, config.jitter_fraction * wait);
    }
    next_s *= config.backoff_multiplier;
    return wait;
  }
};

}  // namespace

EventUploader::EventUploader(UploaderConfig config) : config_(config) {
  require(config_.batch_size > 0, "EventUploader: batch size must be positive");
  require(config_.loss_probability >= 0.0 && config_.loss_probability < 1.0,
          "EventUploader: loss probability must be in [0, 1)");
  require(config_.initial_backoff_s >= 0.0,
          "EventUploader: backoff must be non-negative");
  require(config_.backoff_multiplier >= 1.0,
          "EventUploader: backoff multiplier must be >= 1");
  require(config_.max_backoff_s >= 0.0,
          "EventUploader: max backoff must be non-negative");
  require(config_.jitter_fraction >= 0.0 && config_.jitter_fraction <= 1.0,
          "EventUploader: jitter fraction must be in [0, 1]");
}

EventLog EventUploader::upload(const EventLog& log, Rng& rng) {
  EventLog delivered;
  delivered.reserve(log.size());
  for (const DeliveredBatch& batch : upload_batches(log, rng)) {
    delivered.insert(delivered.end(), batch.events.begin(), batch.events.end());
  }
  return delivered;
}

std::vector<DeliveredBatch> EventUploader::upload_batches(const EventLog& log,
                                                          Rng& rng) {
  const obs::TraceSpan span("sys.uploader.upload");
  const UploadStats before = stats_;
  std::size_t attempts_ok = 0, attempts_lost = 0, giveups = 0;
  std::vector<DeliveredBatch> delivered;
  // The channel is serial: a batch cannot depart while the previous one is
  // still retrying, so backoff pushes every later batch's arrival back too.
  double channel_free_s = -std::numeric_limits<double>::infinity();

  for (std::size_t begin = 0; begin < log.size(); begin += config_.batch_size) {
    const std::size_t end = std::min(begin + config_.batch_size, log.size());
    ++stats_.batches;
    const double sent_s = log[end - 1].time_s;  // Flush at the last read.
    // Ids are minted unconditionally (they are plumbing, not telemetry);
    // only the hop records below gate on obs.
    const std::uint64_t batch_id =
        obs::provenance_batch_id(obs::kNoFacility, batch_sequence_++);
    if (obs::hooks_enabled()) {
      obs::provenance_log().record({batch_id, obs::BatchHop::kEnqueued,
                                    obs::kNoFacility, end - begin, sent_s});
    }

    bool ok = false;
    double waited_s = 0.0;
    Backoff backoff(config_);
    for (std::size_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
      ++stats_.attempts;
      if (attempt > 0) {
        ++stats_.retries;
        const double wait = backoff.take(rng);
        stats_.backoff_delay_s += wait;
        waited_s += wait;
      }
      if (!rng.bernoulli(config_.loss_probability)) {
        ok = true;
        ++attempts_ok;
        break;
      }
      ++attempts_lost;
    }

    const double departure_s = std::max(channel_free_s, sent_s);
    channel_free_s = departure_s + waited_s;  // Lost batches also hold the line.
    if (ok) {
      DeliveredBatch batch;
      batch.sent_time_s = sent_s;
      batch.arrival_time_s = channel_free_s;
      batch.batch_id = batch_id;
      batch.events.assign(log.begin() + static_cast<std::ptrdiff_t>(begin),
                          log.begin() + static_cast<std::ptrdiff_t>(end));
      delivered.push_back(std::move(batch));
      stats_.events_delivered += end - begin;
      if (obs::hooks_enabled()) {
        obs::provenance_log().record({batch_id, obs::BatchHop::kDelivered,
                                      obs::kNoFacility, end - begin,
                                      channel_free_s});
      }
    } else {
      ++stats_.batches_lost;
      ++giveups;
      stats_.events_lost += end - begin;
      if (obs::hooks_enabled()) {
        obs::provenance_log().record({batch_id, obs::BatchHop::kLost,
                                      obs::kNoFacility, end - begin, sent_s});
      }
    }
  }

  if (obs::hooks_enabled()) {
    UploaderMetrics& m = uploader_metrics();
    m.batches.add(stats_.batches - before.batches);
    m.attempts.add(stats_.attempts - before.attempts);
    m.attempts_ok.add(attempts_ok);
    m.attempts_lost.add(attempts_lost);
    m.retries.add(stats_.retries - before.retries);
    m.batches_lost.add(stats_.batches_lost - before.batches_lost);
    m.giveups_retry.add(giveups);
    m.events_delivered.add(stats_.events_delivered - before.events_delivered);
    m.events_lost.add(stats_.events_lost - before.events_lost);
    m.backoff_s.add(stats_.backoff_delay_s - before.backoff_delay_s);
  }
  return delivered;
}

std::vector<DeliveredBatch> EventUploader::upload_wire(
    const EventLog& log, std::uint32_t facility, Rng& rng,
    fault::WireCorruptor* corruptor) {
  const obs::TraceSpan span("sys.uploader.upload_wire");
  const UploadStats before = stats_;
  const WireUploadStats wire_before = wire_stats_;
  std::size_t attempts_ok = 0, attempts_lost = 0;
  std::size_t giveups_retry = 0, giveups_nak = 0;
  const bool channel_dirty = corruptor != nullptr && !corruptor->identity();
  std::vector<DeliveredBatch> delivered;
  std::vector<std::uint8_t> damaged;  // Dirty channel: the received copy.
  double channel_free_s = -std::numeric_limits<double>::infinity();

  for (std::size_t begin = 0; begin < log.size(); begin += config_.batch_size) {
    const std::size_t end = std::min(begin + config_.batch_size, log.size());
    ++stats_.batches;
    const double sent_s = log[end - 1].time_s;
    const std::uint64_t batch_id =
        obs::provenance_batch_id(facility, batch_sequence_++);
    if (obs::hooks_enabled()) {
      obs::provenance_log().record({batch_id, obs::BatchHop::kEnqueued, facility,
                                    end - begin, sent_s});
    }

    // Stage 1 — link: same loss/backoff model as upload_batches, same
    // draw sequence (the wire hop below must not perturb clean-channel
    // determinism).
    bool link_ok = false;
    double waited_s = 0.0;
    Backoff backoff(config_);
    for (std::size_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
      ++stats_.attempts;
      if (attempt > 0) {
        ++stats_.retries;
        const double wait = backoff.take(rng);
        stats_.backoff_delay_s += wait;
        waited_s += wait;
      }
      if (!rng.bernoulli(config_.loss_probability)) {
        link_ok = true;
        ++attempts_ok;
        break;
      }
      ++attempts_lost;
    }

    // Stage 2 — wire: frame the batch, let the channel damage bits, decode
    // strictly; every classified failure is a NAK and a retransmission.
    bool wire_ok = false;
    std::size_t naks = 0;
    wire::EventBatch sent_batch;
    if (link_ok) {
      sent_batch.facility = facility;
      sent_batch.sent_time_s = sent_s;
      sent_batch.arrival_time_s = 0.0;  // Stamped by the receiver (below).
      sent_batch.events.assign(log.begin() + static_cast<std::ptrdiff_t>(begin),
                               log.begin() + static_cast<std::ptrdiff_t>(end));
      const std::vector<std::uint8_t> frame =
          wire::encode_event_batch_frame(sent_batch);
      if (obs::hooks_enabled()) {
        obs::provenance_log().record({batch_id, obs::BatchHop::kEncoded, facility,
                                      frame.size(), sent_s});
      }

      wire::EventBatch received;
      for (std::size_t attempt = 0; attempt <= config_.max_nak_retransmits;
           ++attempt) {
        ++wire_stats_.frames_sent;
        wire_stats_.bytes_sent += frame.size();
        if (attempt > 0) {
          ++wire_stats_.nak_retransmits;
          const double wait = backoff.take(rng);
          stats_.backoff_delay_s += wait;
          waited_s += wait;
        }
        // Clean channel: decode the canonical frame without copying.
        const std::vector<std::uint8_t>* received_bytes = &frame;
        if (channel_dirty) {
          damaged.assign(frame.begin(), frame.end());
          corruptor->corrupt_frame(damaged, rng);
          received_bytes = &damaged;
        }
        const wire::DecodeResult result = wire::next_frame(*received_bytes, 0);
        if (!result.ok) {
          ++wire_stats_.corrupt_frames;
          ++wire_stats_.corrupt_by_kind[static_cast<std::size_t>(result.error)];
          ++naks;
          if (obs::hooks_enabled()) {
            obs::provenance_log().record(
                {batch_id, obs::BatchHop::kNak, facility, naks, sent_s});
          }
          continue;
        }
        std::optional<wire::EventBatch> decoded =
            wire::decode_event_batch(result.frame);
        if (!decoded.has_value()) {
          ++wire_stats_.corrupt_frames;
          ++wire_stats_.corrupt_by_kind[static_cast<std::size_t>(
              wire::DecodeErrorKind::kBadPayload)];
          ++naks;
          if (obs::hooks_enabled()) {
            obs::provenance_log().record(
                {batch_id, obs::BatchHop::kNak, facility, naks, sent_s});
          }
          continue;
        }
        if (!(*decoded == sent_batch)) {
          // CRC collision: the receiver cannot see this — the simulator
          // tallies it as ground truth and still delivers what decoded,
          // because that is exactly what a real backend would store.
          ++wire_stats_.undetected_corruptions;
        }
        received = std::move(*decoded);
        wire_ok = true;
        break;
      }
      if (wire_ok && naks > 0) ++wire_stats_.batches_recovered;
      if (wire_ok) {
        const double departure_s = std::max(channel_free_s, sent_s);
        channel_free_s = departure_s + waited_s;
        DeliveredBatch batch;
        batch.sent_time_s = received.sent_time_s;
        batch.arrival_time_s = channel_free_s;
        batch.nak_retransmits = naks;
        batch.batch_id = batch_id;
        batch.events = std::move(received.events);
        stats_.events_delivered += batch.events.size();
        if (obs::hooks_enabled()) {
          obs::provenance_log().record({batch_id, obs::BatchHop::kDelivered,
                                        facility, batch.events.size(),
                                        channel_free_s});
        }
        delivered.push_back(std::move(batch));
        continue;
      }
    }

    // Not delivered: the channel still burned the wait time, and the
    // events are gone either way — but the *cause* is typed.
    const double departure_s = std::max(channel_free_s, sent_s);
    channel_free_s = departure_s + waited_s;
    ++stats_.batches_lost;
    stats_.events_lost += end - begin;
    if (link_ok) {
      ++wire_stats_.batches_quarantined;
      wire_stats_.events_quarantined += end - begin;
      ++giveups_nak;
      if (obs::hooks_enabled()) {
        obs::provenance_log().record({batch_id, obs::BatchHop::kQuarantined,
                                      facility, end - begin, sent_s});
      }
    } else {
      ++giveups_retry;
      if (obs::hooks_enabled()) {
        obs::provenance_log().record({batch_id, obs::BatchHop::kLost, facility,
                                      end - begin, sent_s});
      }
    }
  }

  if (obs::hooks_enabled()) {
    UploaderMetrics& m = uploader_metrics();
    m.batches.add(stats_.batches - before.batches);
    m.attempts.add(stats_.attempts - before.attempts);
    m.attempts_ok.add(attempts_ok);
    m.attempts_lost.add(attempts_lost);
    m.retries.add(stats_.retries - before.retries);
    m.batches_lost.add(stats_.batches_lost - before.batches_lost);
    m.giveups_retry.add(giveups_retry);
    m.giveups_nak.add(giveups_nak);
    m.events_delivered.add(stats_.events_delivered - before.events_delivered);
    m.events_lost.add(stats_.events_lost - before.events_lost);
    m.backoff_s.add(stats_.backoff_delay_s - before.backoff_delay_s);
    static const struct WireMetrics {
      obs::Counter& frames = obs::counter("sys.uploader.wire_frames");
      obs::Counter& corrupt_frames = obs::counter("sys.uploader.wire_corrupt_frames");
      obs::Counter& retransmits = obs::counter("sys.uploader.wire_retransmits");
      obs::Counter& quarantined = obs::counter("sys.uploader.wire_quarantined");
    } w;
    w.frames.add(wire_stats_.frames_sent - wire_before.frames_sent);
    w.corrupt_frames.add(wire_stats_.corrupt_frames - wire_before.corrupt_frames);
    w.retransmits.add(wire_stats_.nak_retransmits - wire_before.nak_retransmits);
    w.quarantined.add(wire_stats_.batches_quarantined -
                      wire_before.batches_quarantined);
  }
  return delivered;
}

}  // namespace rfidsim::sys
