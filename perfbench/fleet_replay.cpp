// fleet_replay: four facilities push portal-shaped passes through
// FleetService::ingest_pass.
//
// One episode replays the whole stream (every one of the 20k objects
// crosses all four facilities once) into a fresh back end, taking an
// incremental Checkpointer snapshot every kCheckpointEvery passes and one
// at the end. The timed loop repeats identical episodes, so each must
// reproduce the first episode's store digest. Physics runs only in set-up;
// the timed phase is the uploader, wire, track and fleet layers.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet_stream.hpp"
#include "sweep/sweep.hpp"
#include "track/resilient_ingest.hpp"
#include "wire/batch_codec.hpp"

namespace perfbench {
namespace {

using namespace rfidsim;

constexpr std::size_t kCarts = (kObjects + kObjectsPerCart - 1) / kObjectsPerCart;
constexpr std::size_t kCheckpointEvery = 2000;  ///< Passes between snapshots.

std::uint64_t heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;  // Small chunks plus mmapped large ones.
}

/// Per-layer observations of a traced episode.
struct Probes {
  Samples feed_s, store_s, track_s;
  double encode_s = 0, decode_s = 0;
  std::uint64_t wire_events = 0, wire_bytes = 0;
  Samples locate_tag_s, locate_object_s, missing_s, inventory_s;
  std::uint64_t locates = 0, found = 0;  ///< First traced episode's query set.
};

struct Episode {
  std::uint64_t store_digest = 0;
  std::uint64_t query_digest = 0;
  std::size_t sightings = 0;
  Samples pass_s;        ///< Host time of each ingest_pass, in call order.
  Samples checkpoint_s;  ///< Host time of each checkpoint, in call order.
  std::uint64_t events = 0;
  std::vector<std::uint8_t> chain;
  std::uint64_t shards_written = 0, shards_skipped = 0, checkpoint_bytes = 0,
                checkpoint_sightings = 0;
  std::uint64_t heap_growth = 0;
  std::uint64_t undetected = 0, corrupt_frames = 0, frames = 0, naks = 0, retries = 0;
  fleet::StoreStats store;
};

/// Wire probe: the pass's delivered batches encoded as frames, then framed
/// and payload-decoded again, checked equal.
void probe_wire(const fleet::FeedPassResult& r, Tracer& tracer, std::uint64_t request,
                Probes& p, Outcome& out) {
  std::vector<wire::EventBatch> sent;
  for (const fleet::FacilityBatch& b : r.batches) {
    sent.push_back({b.facility, b.sent_time_s, b.arrival_time_s, b.events});
    p.wire_events += b.events.size();
  }
  std::vector<std::vector<std::uint8_t>> frames(sent.size());
  auto t0 = Clock::now();
  {
    const Scoped span(&tracer, "wire.encode", request);
    for (std::size_t i = 0; i < sent.size(); ++i) frames[i] = wire::encode_event_batch_frame(sent[i]);
  }
  p.encode_s += seconds_since(t0);
  for (const auto& f : frames) p.wire_bytes += f.size();
  bool equal = true;
  t0 = Clock::now();
  {
    const Scoped span(&tracer, "wire.decode", request);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const wire::DecodeResult d = wire::next_frame(frames[i], 0);
      const auto batch = d.ok ? wire::decode_event_batch(d.frame) : std::nullopt;
      equal = equal && batch.has_value() && *batch == sent[i];
    }
  }
  p.decode_s += seconds_since(t0);
  if (!equal) out.fail("fleet_replay: wire probe round trip changed a batch");
}

/// Track probe: ResilientIngest over the pass's on-time events.
void probe_track(const PassJob& job, const fleet::FeedPassResult& r,
                 const track::IngestConfig& config, Tracer& tracer, std::uint64_t request,
                 Probes& p) {
  sys::EventLog on_time;
  for (const fleet::FacilityBatch& b : r.batches) {
    if (b.arrival_time_s <= job.window_end_s) on_time.insert(on_time.end(), b.events.begin(), b.events.end());
  }
  track::ResilientIngest ingest(config);
  const auto t0 = Clock::now();
  {
    const Scoped span(&tracer, "track.ingest", request);
    (void)ingest.ingest(on_time, job.window_begin_s, job.window_end_s);
  }
  p.track_s.add(seconds_since(t0));
}

/// Times one query call into `samples` (traced episodes only) under a span.
template <typename Call>
auto timed_query(Tracer* tracer, const char* name, std::uint64_t request, Samples* samples,
                 Call&& call) {
  const auto t0 = Clock::now();
  const Scoped span(tracer, name, request);
  auto result = call();
  if (samples) samples->add(seconds_since(t0));
  return result;
}

/// Fixed query set over the finished episode: tag and object locates at
/// times spread over the whole stream, one inventory and one manifest
/// reconciliation per facility. With a reference, every locate and every
/// "present" verdict is checked against it. With probes, each call is timed.
std::uint64_t query_digest(const FleetStream& stream, const Backend& backend,
                           std::uint64_t seed, const Reference* ref, Tracer* tracer,
                           Probes* probes, bool count, Outcome& out) {
  const fleet::QueryService& q = backend.query();
  const double t_end = stream.passes.back().window_end_s;
  Rng rng = sweep::cell_rng(seed, 3000);
  Digest d;
  std::size_t mismatches = 0;
  const std::uint64_t request = stream.passes.size() + 2;
  const Scoped root(tracer, "bench.queries", request);
  for (int i = 0; i < 3000; ++i) {
    const std::size_t o = static_cast<std::size_t>(rng.uniform_int(0, kObjects - 1));
    const double t = rng.uniform(0.0, t_end);
    const bool by_object = i % 3 == 0;
    const std::vector<scene::TagId> tags =
        by_object ? std::vector<scene::TagId>{tag_of(o, 0), tag_of(o, 1)}
                  : std::vector<scene::TagId>{tag_of(o, static_cast<std::size_t>(i) % 2)};
    const fleet::LocateResult r =
        by_object ? timed_query(tracer, "fleet.query.locate_object", request,
                                probes ? &probes->locate_object_s : nullptr,
                                [&] { return q.locate(stream.objects[o], t); })
                  : timed_query(tracer, "fleet.query.locate_tag", request,
                                probes ? &probes->locate_tag_s : nullptr,
                                [&] { return q.locate(tags[0], t); });
    if (probes && count) {
      ++probes->locates;
      probes->found += r.found;
    }
    digest_locate(d, r);
    if (ref) {
      const fleet::LocateResult e = ref->locate(tags, t);
      mismatches += (r.found != e.found || r.facility != e.facility || r.time_s != e.time_s);
    }
  }
  for (std::size_t f = 0; f < kFacilities; ++f) {
    const auto inv = timed_query(tracer, "fleet.query.inventory", request,
                                 probes ? &probes->inventory_s : nullptr,
                                 [&] { return q.inventory(static_cast<fleet::FacilityId>(f), t_end); });
    d.u64(inv.size());
    for (const track::ObjectId& o : inv) d.u64(o.value);
    const ManifestQuery m = manifest_for(stream, static_cast<fleet::FacilityId>(f), kCarts - 2);
    const fleet::MissingReport rep =
        timed_query(tracer, "fleet.query.missing", request, probes ? &probes->missing_s : nullptr,
                    [&] { return q.missing(m.manifest, m.facility, m.begin_s, m.end_s); });
    digest_missing(d, rep);
    if (ref) {
      for (const fleet::Reconciliation& item : rep.items) {
        const std::size_t o = static_cast<std::size_t>(
            std::find(stream.objects.begin(), stream.objects.end(), item.object) -
            stream.objects.begin());
        const bool seen = ref->sighted_at({tag_of(o, 0), tag_of(o, 1)}, m.facility, m.begin_s, m.end_s);
        mismatches += seen != (item.verdict == fleet::MissingVerdict::kPresent);
      }
    }
  }
  if (ref) {
    out.check(mismatches == 0, "fleet_replay: " + std::to_string(mismatches) +
                                   " query answers differ from the bench-side reference");
  }
  return d.value();
}

/// Replays the stream into a fresh back end. Per-call host times go to the
/// episode; bench-side bookkeeping (reference, traffic tally, probes)
/// happens between calls.
Episode run_episode(const FleetStream& stream, std::uint64_t seed, Tracer* tracer,
                    Probes* probes, Reference* ref, TrafficTally* tally, Outcome& out) {
  Episode ep;
  const std::uint64_t heap_before = heap_in_use();
  Backend backend(stream, seed, tracer != nullptr);
  fleet::Checkpointer checkpointer;
  const track::IngestConfig ingest_config = feed_config(stream.registry).ingest;
  auto checkpoint = [&](std::uint64_t request) {
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> bytes;
    {
      const Scoped span(tracer, "fleet.checkpoint.incremental", request);
      bytes = checkpointer.incremental(backend.store());
    }
    const double dt = seconds_since(t0);
    ep.checkpoint_s.add(dt);
    const fleet::CheckpointStats& st = checkpointer.last_stats();
    ep.shards_written += st.shards_written;
    ep.shards_skipped += st.shards_skipped;
    ep.checkpoint_bytes += st.bytes;
    ep.checkpoint_sightings += st.sightings_written;
    ep.chain.insert(ep.chain.end(), bytes.begin(), bytes.end());
  };
  std::uint64_t request = 0;
  for (const PassJob& job : stream.passes) {
    ++request;
    fleet::FeedPassResult result;
    PassTiming timing;
    const auto t0 = Clock::now();
    try {
      const Scoped root(tracer, "bench.pass", request);
      result = backend.ingest(job, tracer, request, &timing);
    } catch (const std::exception& e) {
      ++out.attempted;
      out.fail(std::string("fleet_replay: ingest threw: ") + e.what());
      return ep;
    }
    const double dt = seconds_since(t0);
    ++out.attempted;
    ep.pass_s.add(dt);
    ep.events += job.log.size();
    if (probes) {
      const Scoped root(tracer, "bench.probe", request);
      probes->feed_s.add(timing.feed_s);
      probes->store_s.add(timing.store_s);
      probe_wire(result, *tracer, request, *probes, out);
      probe_track(job, result, ingest_config, *tracer, request, *probes);
    }
    if (ref) ref->apply(result);
    if (tally) tally->add(job, result);
    if (request % kCheckpointEvery == 0) checkpoint(request);
  }
  checkpoint(request + 1);
  ++out.attempted;
  const std::uint64_t heap_after = heap_in_use() - ep.chain.capacity();
  ep.heap_growth = heap_after > heap_before ? heap_after - heap_before : 0;

  ep.store = backend.store().stats();
  ep.store_digest = backend.store().digest();
  ep.sightings = backend.store().sighting_count();
  for (std::size_t f = 0; f < kFacilities; ++f) {
    const auto& w = backend.feed(f).wire_stats();
    ep.undetected += w.undetected_corruptions;
    ep.corrupt_frames += w.corrupt_frames;
    ep.frames += w.frames_sent;
    ep.naks += w.nak_retransmits;
    ep.retries += backend.feed(f).upload_stats().retries;
  }
  out.check(ep.undetected == 0, "fleet_replay: wire.undetected_corruptions == 0");
  if (ref) {
    out.check(ref->sightings() == ep.sightings,
              "fleet_replay: store holds " + std::to_string(ep.sightings) +
                  " sightings, the reference " + std::to_string(ref->sightings()));
  }
  ep.query_digest = query_digest(stream, backend, seed, ref, tracer, probes,
                                 probes != nullptr && probes->locates == 0, out);
  return ep;
}

/// Restores the episode's checkpoint chain and checks it against the live
/// digest; returns the host time of the restore.
double verify_restore(const Episode& ep, Outcome& out) {
  const auto t0 = Clock::now();
  std::uint64_t restored = 0;
  try {
    restored = fleet::restore_checkpoint(ep.chain).digest();
  } catch (const std::exception& e) {
    out.fail(std::string("fleet_replay: restore threw: ") + e.what());
  }
  const double dt = seconds_since(t0);
  out.check(restored == ep.store_digest, "fleet_replay: restored digest == live digest");
  return dt;
}

void record_digests(const Episode& ep, Outcome& out) {
  Digest s, q;
  s.u64(ep.store_digest);
  q.u64(ep.query_digest);
  out.digests["fleet_replay.store"] = s.hex();
  out.digests["fleet_replay.query"] = q.hex();
}

/// Each call's fastest host time across the episodes, in call order.
Samples fastest_calls(const std::vector<Episode>& eps, Samples Episode::*calls) {
  std::vector<double> best = (eps.front().*calls).values();
  for (const Episode& ep : eps) {
    const std::vector<double>& times = (ep.*calls).values();
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], times[i]);
  }
  Samples out;
  for (double v : best) out.add(v);
  return out;
}

/// Runs episodes for `seconds` (at least one), checking each against the
/// first.
std::vector<Episode> run_episodes(const FleetStream& stream, const RunArgs& args,
                                  double seconds, Tracer* tracer, Probes* probes,
                                  Outcome& out) {
  std::vector<Episode> eps;
  const auto start = Clock::now();
  while (eps.empty() || seconds_since(start) < seconds) {
    Episode ep = run_episode(stream, args.seed, tracer, probes, nullptr, nullptr, out);
    if (!eps.empty()) {
      out.check(ep.store_digest == eps.front().store_digest &&
                    ep.query_digest == eps.front().query_digest,
                "fleet_replay: episode " + std::to_string(eps.size()) +
                    " reproduces the first episode's store and query digests");
      ep.chain.clear();  // Only the first episode's chain is restored.
      ep.chain.shrink_to_fit();
    }
    eps.push_back(std::move(ep));
    if (out.failed != 0) break;
  }
  return eps;
}

}  // namespace

Outcome run_fleet_replay(const RunArgs& args) {
  Outcome out;
  std::printf("workload fleet_replay: %zu facilities, %zu carts x %zu objects x 2 tags, "
              "incremental checkpoint every %zu passes\n",
              kFacilities, kCarts, kObjectsPerCart, kCheckpointEvery);
  Samples setup_s;
  std::unique_ptr<FleetStream> stream;
  for (int i = 0; i < (args.trace ? 1 : 3); ++i) {
    stream.reset();
    const auto t0 = Clock::now();
    stream = make_fleet_stream(args.seed, kCarts);
    setup_s.add(seconds_since(t0));
  }

  // Verification episode: every answer checked against the bench-side
  // reference, and the traffic shape recorded. Not timed.
  Reference ref;
  TrafficTally tally;
  const Episode verified = run_episode(*stream, args.seed, nullptr, nullptr, &ref, &tally, out);
  tally.print();
  print_store_shape(verified.store, verified.sightings);
  report("traffic.checkpoint_shard_skip_share",
         static_cast<double>(verified.shards_skipped) /
             static_cast<double>(verified.shards_written + verified.shards_skipped),
         "ratio", "count");
  // Simulated-time values are exact: the pass windows and delivery times
  // of the stream, and the tallies they decide (late batches, repairs).
  Digest traffic;
  for (const PassJob& job : stream->passes) {
    traffic.f64(job.window_begin_s);
    traffic.f64(job.window_end_s);
    traffic.f64(job.delivered_s);
  }
  for (const std::uint64_t v :
       {tally.delivered_batches, tally.late_batches, tally.lost_batches,
        tally.quarantined_records, verified.store.accepted, verified.store.duplicates,
        verified.store.repairs, verified.store.late_batches}) {
    traffic.u64(v);
  }
  out.digests["fleet_replay.traffic"] = traffic.hex();
  if (out.failed != 0) return out;

  if (!args.trace) {
    const std::vector<Episode> eps = run_episodes(*stream, args, args.seconds, nullptr, nullptr, out);
    // A failed episode may have stopped early; its timings are not summarised.
    if (out.failed != 0) return out;
    const Episode& first = eps.front();
    out.check(first.store_digest == verified.store_digest && first.query_digest == verified.query_digest,
              "fleet_replay: timed episodes reproduce the verified episode's digests");
    const double restore_s = verify_restore(first, out);
    record_digests(first, out);
    // Every episode makes the same calls in the same order, so call i does
    // the same work each time; each call is taken at its fastest time.
    const Samples passes = fastest_calls(eps, &Episode::pass_s);
    const Samples checkpoints = fastest_calls(eps, &Episode::checkpoint_s);
    const double busy = passes.sum() + checkpoints.sum();
    const double rate = static_cast<double>(first.events) / busy;
    const std::string fastest =
        "each call at its fastest over " + std::to_string(eps.size()) + " episodes";
    std::printf("end-to-end (tracing off, %zu episodes):\n", eps.size());
    report("setup_s", setup_s.p50(), "s", "host wall", "median of 3 stream builds");
    report("ingest_events_per_s", rate, "1/s", "host wall", "checkpoints included; " + fastest);
    report("pass_visible_us_p50", passes.p50() * 1e6, "us", "host wall",
           "median of " + std::to_string(passes.count()) + " passes; " + fastest);
    report("pass_visible_us_tail", passes.tail() * 1e6, "us", "host wall",
           "p" + std::to_string(passes.tail_percentile()) + "; " + fastest);
    report("rss_bytes_per_sighting",
           static_cast<double>(first.heap_growth) / static_cast<double>(first.sightings), "bytes",
           "malloc in-use growth", "first episode, checkpoint chain excluded");
    report_samples("checkpoint_incremental_ms", checkpoints, 1e3, "ms");
    report("restore_ms", restore_s * 1e3, "ms", "host wall");
    report("checkpoint_share_of_busy", checkpoints.sum() / busy, "ratio", "host wall");
    report("ops_failed_ratio", static_cast<double>(out.failed) / std::max<double>(1, out.attempted),
           "ratio", "count");
    out.metric("setup_s", setup_s.p50(), "s", "host wall");
    out.metric("throughput_per_s", rate, "1/s", "host wall");
    out.metric("call_p50_us", passes.p50() * 1e6, "us", "host wall");
    out.metric("call_tail_us", passes.tail() * 1e6, "us", "host wall");
    return out;
  }

  // Traced run: untraced episodes for the overhead baseline, then traced
  // split-mode episodes with probes.
  const std::vector<Episode> plain = run_episodes(*stream, args, 0.5 * args.seconds, nullptr, nullptr, out);
  Tracer tracer;
  Probes p;
  const std::vector<Episode> traced = run_episodes(*stream, args, 0.5 * args.seconds, &tracer, &p, out);
  if (out.failed != 0) return out;
  const Episode& t = traced.front();
  out.check(t.store_digest == verified.store_digest && t.query_digest == verified.query_digest,
            "fleet_replay: traced (process_pass + TrackingStore::ingest) digests == untraced");
  const double restore_s = verify_restore(t, out);
  record_digests(t, out);

  auto per_pass = [](const std::vector<Episode>& eps) {
    double busy = 0, passes = 0;
    for (const Episode& ep : eps) {
      busy += ep.pass_s.sum();
      passes += static_cast<double>(ep.pass_s.count());
    }
    return busy / passes;
  };
  Samples checkpoint_s;
  for (const Episode& ep : traced) {
    for (double v : ep.checkpoint_s.values()) checkpoint_s.add(v);
  }
  auto ratio = [](auto a, auto b) { return static_cast<double>(a) / static_cast<double>(b); };
  out.metric("fleet.feed.process_pass_us_p50", p.feed_s.p50() * 1e6, "us", "host wall");
  out.metric("fleet.feed.process_pass_us_tail", p.feed_s.tail() * 1e6, "us", "host wall");
  out.metric("fleet.store.ingest_us_p50", p.store_s.p50() * 1e6, "us", "host wall");
  out.metric("fleet.store.ingest_us_tail", p.store_s.tail() * 1e6, "us", "host wall");
  out.metric("track.ingest_us_p50", p.track_s.p50() * 1e6, "us", "host wall");
  out.metric("wire.encode_ns_per_event", ratio(p.encode_s * 1e9, p.wire_events), "ns", "host wall");
  out.metric("wire.decode_ns_per_event", ratio(p.decode_s * 1e9, p.wire_events), "ns", "host wall");
  out.metric("wire.bytes_per_event", ratio(p.wire_bytes, p.wire_events), "bytes", "bytes");
  out.metric("wire.corrupt_frame_ratio", ratio(t.corrupt_frames, t.frames), "ratio", "count");
  out.metric("wire.nak_retransmits", static_cast<double>(t.naks), "count", "count");
  out.metric("wire.undetected_corruptions", static_cast<double>(t.undetected), "count", "count");
  out.metric("system.uploader.retries", static_cast<double>(t.retries), "count", "count");
  out.metric("fleet.feed.late_batch_ratio", ratio(tally.late_batches, tally.delivered_batches),
             "ratio", "count");
  out.metric("fleet.feed.quarantined_records", static_cast<double>(tally.quarantined_records),
             "count", "count");
  out.metric("fleet.store.repair_ratio", ratio(t.store.repairs, t.store.accepted), "ratio", "count");
  out.metric("fleet.store.duplicate_ratio", ratio(t.store.duplicates, t.store.events), "ratio",
             "count");
  out.metric("fleet.checkpoint.incremental_ms_p50", checkpoint_s.p50() * 1e3, "ms", "host wall");
  out.metric("fleet.checkpoint.shards_skipped_ratio",
             ratio(t.shards_skipped, t.shards_written + t.shards_skipped), "ratio", "count");
  out.metric("fleet.checkpoint.bytes_per_sighting",
             ratio(t.checkpoint_bytes, t.checkpoint_sightings), "bytes", "bytes");
  out.metric("fleet.checkpoint.restore_ms", restore_s * 1e3, "ms", "host wall");
  out.metric("fleet.query.locate_tag_us_p50", p.locate_tag_s.p50() * 1e6, "us", "host wall");
  out.metric("fleet.query.locate_object_us_p50", p.locate_object_s.p50() * 1e6, "us", "host wall");
  out.metric("fleet.query.missing_ms_p50", p.missing_s.p50() * 1e3, "ms", "host wall");
  out.metric("fleet.query.inventory_ms_p50", p.inventory_s.p50() * 1e3, "ms", "host wall");
  out.metric("fleet.query.locate_found_ratio", ratio(p.found, p.locates), "ratio", "count");
  out.metric("obs.tracing_overhead_ratio", per_pass(traced) / per_pass(plain), "ratio",
             "host wall");
  std::printf("traced run: %zu untraced + %zu traced episodes; counts from the first traced "
              "episode\n",
              plain.size(), traced.size());
  finish_trace(tracer, args, out);
  return out;
}

}  // namespace perfbench
