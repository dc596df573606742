#include "fleet_stream.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "reliability/scenarios.hpp"
#include "sweep/sweep.hpp"
#include "system/portal.hpp"

namespace perfbench {

using namespace rfidsim;

namespace {

constexpr std::uint64_t kEpcBase = 0x30F4257800000000ULL;  // SGTIN-like serials.
constexpr std::size_t kSourcePasses = 6;
constexpr double kCartSpacingS = 6.0;   ///< Between carts at one portal.
constexpr double kTransitS = 45.0;      ///< Between consecutive facilities.
constexpr double kCloseAfterS = 0.02;   ///< Window closes after the last read.
constexpr fleet::FacilityId kBacklogFacility = 1;
constexpr std::size_t kBacklogPasses = 8;  ///< Passes held per outage.
constexpr double kDrainDelayS = 20.0;      ///< After the outage's last pass.

bool sighting_before(const fleet::Sighting& a, const fleet::Sighting& b) {
  return std::tie(a.time_s, a.facility, a.reader, a.antenna) <
         std::tie(b.time_s, b.facility, b.reader, b.antenna);
}

}  // namespace

std::size_t tag_slot(scene::TagId tag) { return static_cast<std::size_t>(tag.value - kEpcBase); }

scene::TagId tag_of(std::size_t object, std::size_t which) {
  return scene::TagId{kEpcBase + 2 * object + which};
}

std::unique_ptr<FleetStream> make_fleet_stream(std::uint64_t seed, std::size_t carts) {
  auto stream = std::make_unique<FleetStream>();

  // The Table-3 rig with full redundancy: 12 boxes, front + side tags,
  // facing antenna pair.
  reliability::ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  opt.portal.antenna_count = 2;
  const reliability::Scenario sc = reliability::make_object_tracking_scenario(
      opt, reliability::CalibrationProfile::paper2006());
  // Scene tag -> (box, tag-within-box).
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> slot_of;
  const auto& boxes = sc.registry.objects();
  for (std::size_t b = 0; b < boxes.size(); ++b) {
    const auto tags = sc.registry.tags_of(boxes[b]);
    for (std::size_t j = 0; j < tags.size(); ++j) slot_of[tags[j].value] = {b, j};
  }
  std::vector<sys::EventLog> source;
  sys::PortalSimulator sim(sc.scene, sc.portal);
  for (std::size_t i = 0; i < kSourcePasses; ++i) {
    Rng rng = sweep::cell_rng(seed, 1000 + i);
    source.push_back(sim.run(rng));
  }

  for (std::size_t o = 0; o < kObjects; ++o) {
    char name[24];
    std::snprintf(name, sizeof name, "case-%05zu", o);
    stream->objects.push_back(stream->registry.add_object(name));
    for (std::size_t j = 0; j < 2; ++j) {
      stream->registry.bind_tag(tag_of(o, j), stream->objects.back());
    }
  }

  const double pass_s = sc.portal.end_time_s - sc.portal.start_time_s;
  stream->passes.reserve(carts * kFacilities);
  for (std::size_t c = 0; c < carts; ++c) {
    for (std::size_t f = 0; f < kFacilities; ++f) {
      const sys::EventLog& src = source[(7 * c + 3 * f) % kSourcePasses];
      PassJob job;
      job.facility = static_cast<fleet::FacilityId>(f);
      job.cart = c;
      const double t0 = static_cast<double>(f) * kTransitS + static_cast<double>(c) * kCartSpacingS;
      job.window_begin_s = t0 + sc.portal.start_time_s;
      job.window_end_s = src.empty() ? t0 + pass_s : t0 + src.back().time_s + kCloseAfterS;
      job.log.reserve(src.size());
      for (const sys::ReadEvent& ev : src) {
        const auto [box, which] = slot_of.at(ev.tag.value);
        sys::ReadEvent out = ev;
        out.tag = tag_of((c * kObjectsPerCart + box) % kObjects, which);
        out.time_s = t0 + ev.time_s;
        job.log.push_back(out);
      }
      job.delivered_s = job.window_end_s;
      stream->passes.push_back(std::move(job));
    }
  }
  // Facility 1's outages: each run of kBacklogPasses passes is delivered
  // together, kDrainDelayS after the run's last pass closed.
  for (PassJob& job : stream->passes) {
    if (job.facility != kBacklogFacility) continue;
    const std::size_t last = std::min(carts - 1, (job.cart / kBacklogPasses + 1) * kBacklogPasses - 1);
    job.delivered_s = stream->passes[last * kFacilities + kBacklogFacility].window_end_s + kDrainDelayS;
  }
  // At-least-once delivery: the first pass of each drained outage is sent
  // twice (its acknowledgement was lost), so the store sees exact
  // duplicates.
  const std::size_t held = stream->passes.size();
  for (std::size_t i = 0; i < held; ++i) {
    const PassJob& job = stream->passes[i];
    if (job.facility != kBacklogFacility || job.cart % kBacklogPasses != 0) continue;
    PassJob again = job;
    again.delivered_s += 1e-3;
    stream->passes.push_back(std::move(again));
  }
  std::stable_sort(stream->passes.begin(), stream->passes.end(),
                   [](const PassJob& a, const PassJob& b) {
                     return std::tie(a.delivered_s, a.facility, a.cart) <
                            std::tie(b.delivered_s, b.facility, b.cart);
                   });
  return stream;
}

fleet::FeedConfig feed_config(const track::ObjectRegistry& registry) {
  fleet::FeedConfig config;
  config.objects_total = kObjectsPerCart;
  config.uploader.batch_size = 32;
  config.uploader.loss_probability = 0.03;
  config.uploader.jitter_fraction = 0.1;
  config.ingest.reader_count = 1;
  config.ingest.antenna_count = 2;
  config.ingest.registry = &registry;
  config.wire_corruption.bit_error_rate = 2e-5;
  config.stale_horizon_s = 10.0;
  return config;
}

ManifestQuery manifest_for(const FleetStream& stream, fleet::FacilityId facility,
                           std::size_t last_cart) {
  constexpr std::size_t kCartsInWindow = 41;
  const std::size_t first = last_cart + 1 >= kCartsInWindow ? last_cart + 1 - kCartsInWindow : 0;
  ManifestQuery q;
  q.facility = facility;
  const double base = static_cast<double>(facility) * kTransitS;
  q.begin_s = base + static_cast<double>(first) * kCartSpacingS;
  q.end_s = base + static_cast<double>(last_cart + 1) * kCartSpacingS;
  for (std::size_t c = first; c <= last_cart + 1; ++c) {
    const std::size_t boxes = c <= last_cart ? kObjectsPerCart : 8;
    for (std::size_t b = 0; b < boxes; ++b) {
      q.manifest.expected.insert(stream.objects[(c * kObjectsPerCart + b) % kObjects]);
    }
  }
  return q;
}

// --- Backend ----------------------------------------------------------------

Backend::Backend(const FleetStream& stream, std::uint64_t seed, bool split) {
  for (std::size_t f = 0; f < kFacilities; ++f) rngs_.push_back(sweep::cell_rng(seed, 2000 + f));
  const fleet::StoreConfig store_config{.shard_count = 64, .threads = 1};
  if (!split) {
    service_ = std::make_unique<fleet::FleetService>(stream.registry, store_config);
    for (std::size_t f = 0; f < kFacilities; ++f) service_->add_facility(feed_config(stream.registry));
    return;
  }
  store_ = std::make_unique<fleet::TrackingStore>(store_config);
  query_ = std::make_unique<fleet::QueryService>(*store_, stream.registry);
  for (std::size_t f = 0; f < kFacilities; ++f) {
    fleet::FeedConfig config = feed_config(stream.registry);
    config.facility = static_cast<fleet::FacilityId>(f);
    feeds_.push_back(std::make_unique<fleet::FacilityFeed>(config));
  }
}

fleet::FeedPassResult Backend::ingest(const PassJob& job, Tracer* tracer,
                                      std::uint64_t request, PassTiming* timing) {
  Rng& rng = rngs_[job.facility];
  if (service_) {
    return service_->ingest_pass(job.facility, job.log, job.window_begin_s,
                                 job.window_end_s, rng);
  }
  fleet::FacilityFeed& feed = *feeds_[job.facility];
  const auto t0 = Clock::now();
  fleet::FeedPassResult result;
  {
    const Scoped span(tracer, "fleet.feed.process_pass", request);
    result = feed.process_pass(job.log, job.window_begin_s, job.window_end_s, rng);
  }
  const auto t1 = Clock::now();
  {
    const Scoped span(tracer, "fleet.store.ingest", request);
    store_->ingest(result.batches);
  }
  query_->set_facility_model(job.facility, feed.model());
  if (timing) {
    timing->feed_s = std::chrono::duration<double>(t1 - t0).count();
    timing->store_s = seconds_since(t1);
  }
  return result;
}

const fleet::TrackingStore& Backend::store() const {
  return service_ ? service_->store() : *store_;
}

const fleet::QueryService& Backend::query() const {
  return service_ ? service_->query() : *query_;
}

const fleet::FacilityFeed& Backend::feed(std::size_t facility) const {
  return service_ ? service_->feed(static_cast<fleet::FacilityId>(facility)) : *feeds_[facility];
}

// --- Reference --------------------------------------------------------------

Reference::Reference() : by_slot_(2 * kObjects) {}

void Reference::apply(const fleet::FeedPassResult& result) {
  for (const fleet::FacilityBatch& batch : result.batches) {
    for (const sys::ReadEvent& ev : batch.events) {
      const fleet::Sighting s{ev.time_s, batch.facility,
                              static_cast<std::uint32_t>(ev.reader_index),
                              static_cast<std::uint32_t>(ev.antenna_index)};
      auto& tl = by_slot_.at(tag_slot(ev.tag));
      const auto pos = std::upper_bound(tl.begin(), tl.end(), s, sighting_before);
      if (pos != tl.begin() && *(pos - 1) == s) continue;  // exact duplicate
      tl.insert(pos, s);
      ++sightings_;
    }
  }
}

fleet::LocateResult Reference::locate(const std::vector<scene::TagId>& tags, double t) const {
  fleet::LocateResult best;
  for (const scene::TagId tag : tags) {
    const auto& tl = by_slot_.at(tag_slot(tag));
    const auto pos = std::upper_bound(tl.begin(), tl.end(), t,
                                      [](double v, const fleet::Sighting& s) { return v < s.time_s; });
    if (pos == tl.begin()) continue;
    const fleet::Sighting& s = *(pos - 1);
    if (!best.found || s.time_s > best.time_s) {
      best.found = true;
      best.facility = s.facility;
      best.time_s = s.time_s;
    }
  }
  return best;
}

bool Reference::sighted_at(const std::vector<scene::TagId>& tags, fleet::FacilityId facility,
                           double begin, double end) const {
  for (const scene::TagId tag : tags) {
    for (const fleet::Sighting& s : by_slot_.at(tag_slot(tag))) {
      if (s.facility == facility && s.time_s >= begin && s.time_s <= end) return true;
    }
  }
  return false;
}

// --- Digests and traffic ----------------------------------------------------

void digest_locate(Digest& d, const fleet::LocateResult& r) {
  d.u64(r.found ? 1 : 0);
  d.u64(r.facility);
  d.f64(r.time_s);
  d.f64(r.confidence);
}

void digest_missing(Digest& d, const fleet::MissingReport& r) {
  d.u64(r.items.size());
  for (const fleet::Reconciliation& item : r.items) {
    d.u64(item.object.value);
    d.u64(static_cast<std::uint64_t>(item.verdict));
    d.f64(item.posterior_present);
    d.u64(item.custody_evidence ? 1 : 0);
  }
  d.u64(r.unexpected.size());
  for (const track::ObjectId& o : r.unexpected) d.u64(o.value);
}

void TrafficTally::add(const PassJob& job, const fleet::FeedPassResult& r) {
  ++passes;
  raw_events += job.log.size();
  std::set<std::uint64_t> tags;
  for (const sys::ReadEvent& ev : job.log) tags.insert(ev.tag.value);
  distinct_tags += tags.size();
  delivered_batches += r.batches.size();
  late_batches += r.late_batches;
  lost_batches += r.lost_batches;
  quarantined_records += r.quarantined;
}

void TrafficTally::print() const {
  const double p = static_cast<double>(passes);
  std::printf("traffic (exact, seeded):\n");
  report("traffic.passes", p, "count", "count");
  report("traffic.events_per_pass", static_cast<double>(raw_events) / p, "count", "count");
  report("traffic.distinct_tags_per_pass", static_cast<double>(distinct_tags) / p, "count",
         "count");
  report("traffic.late_batch_share",
         static_cast<double>(late_batches) / static_cast<double>(delivered_batches), "ratio",
         "count", "arrived after the pass window closed (sim time)");
  report("traffic.lost_batches", static_cast<double>(lost_batches), "count", "count");
  report("traffic.quarantined_records", static_cast<double>(quarantined_records), "count",
         "count");
}

void print_store_shape(const fleet::StoreStats& s, std::size_t sightings) {
  report("traffic.stored_sightings", static_cast<double>(sightings), "count",
         "count");
  report("traffic.repair_share",
         static_cast<double>(s.repairs) / static_cast<double>(s.accepted), "ratio", "count",
         "sightings inserted behind a newer one");
  report("traffic.duplicate_share",
         static_cast<double>(s.duplicates) / static_cast<double>(s.events), "ratio", "count",
         "exact re-deliveries dropped");
}

}  // namespace perfbench
