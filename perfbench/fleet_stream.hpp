// Portal-shaped fleet traffic for fleet_replay.
//
// Set-up simulates a handful of real cart passes (Table-3 rig: twelve
// boxes, two tags each, two antennas) through sys::PortalSimulator once,
// then replays them onto a 40k-tag population: cart c carries objects
// 12c..12c+11 (modulo the population), and every cart visits the four
// facilities in sequence, so each object's sightings form a custody chain.
// Each facility pass is one FeedPassResult-producing call; its window
// closes shortly after the pass's last read, so retried uplink batches
// can arrive after it (late batches). Facility 1's uplink is down in
// stretches: its passes are held and drained together several passes
// late, after the next facility has already stored newer sightings of the
// same tags — the store repairs those timelines — and the first pass of
// each outage is delivered twice (exact duplicates).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "fleet/service.hpp"
#include "track/manifest.hpp"
#include "track/registry.hpp"

namespace perfbench {

inline constexpr std::size_t kFacilities = 4;
inline constexpr std::size_t kObjectsPerCart = 12;
inline constexpr std::size_t kObjects = 20000;  ///< Two tags each: 40k tags.

/// One ingest_pass call: a facility's raw log of one cart pass.
struct PassJob {
  rfidsim::fleet::FacilityId facility = 0;
  std::size_t cart = 0;
  double window_begin_s = 0.0;
  double window_end_s = 0.0;
  double delivered_s = 0.0;  ///< When the middleware hands it over.
  rfidsim::sys::EventLog log;
};

/// The population and its chronological pass stream.
struct FleetStream {
  rfidsim::track::ObjectRegistry registry;
  std::vector<rfidsim::track::ObjectId> objects;  ///< Index = population slot.
  std::vector<PassJob> passes;                    ///< In delivery order.
};

/// Builds the stream of `carts` cart trips (each visiting every facility)
/// from portal passes simulated with `seed`. Pure function of its inputs.
std::unique_ptr<FleetStream> make_fleet_stream(std::uint64_t seed, std::size_t carts);

/// Deterministic per-facility feed configuration (lossy uplink with BER).
rfidsim::fleet::FeedConfig feed_config(const rfidsim::track::ObjectRegistry& registry);

/// Host time of one pass, split where the traced run can see the seam.
struct PassTiming {
  double feed_s = 0.0;   ///< FacilityFeed::process_pass (split mode only).
  double store_s = 0.0;  ///< TrackingStore::ingest (split mode only).
};

/// The fleet back end in one of two shapes: the production FleetService
/// (ingest_pass), or the same pieces driven separately
/// (FacilityFeed::process_pass, then TrackingStore::ingest) so the traced
/// run can time feed and store apart. Both give the same store and answers.
class Backend {
 public:
  Backend(const FleetStream& stream, std::uint64_t seed, bool split);
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Runs one pass. In split mode the feed and store calls get their own
  /// spans (when traced) and host times in `timing`.
  rfidsim::fleet::FeedPassResult ingest(const PassJob& job, Tracer* tracer,
                                        std::uint64_t request, PassTiming* timing);

  const rfidsim::fleet::TrackingStore& store() const;
  const rfidsim::fleet::QueryService& query() const;
  const rfidsim::fleet::FacilityFeed& feed(std::size_t facility) const;

 private:
  std::vector<rfidsim::Rng> rngs_;
  std::unique_ptr<rfidsim::fleet::FleetService> service_;
  // Split mode.
  std::unique_ptr<rfidsim::fleet::TrackingStore> store_;
  std::unique_ptr<rfidsim::fleet::QueryService> query_;
  std::vector<std::unique_ptr<rfidsim::fleet::FacilityFeed>> feeds_;
};

/// Bench-side model of what the store must hold: every delivered sighting
/// per tag, kept sorted with exact duplicates dropped. Answers locate()
/// independently of the library.
class Reference {
 public:
  Reference();
  void apply(const rfidsim::fleet::FeedPassResult& result);
  std::size_t sightings() const { return sightings_; }
  /// Latest sighting at or before t across the given tags.
  rfidsim::fleet::LocateResult locate(const std::vector<rfidsim::scene::TagId>& tags,
                                      double t) const;
  bool sighted_at(const std::vector<rfidsim::scene::TagId>& tags,
                  rfidsim::fleet::FacilityId facility, double begin, double end) const;

 private:
  std::vector<std::vector<rfidsim::fleet::Sighting>> by_slot_;
  std::size_t sightings_ = 0;
};

/// Maps a population tag to its dense slot (EPC base + slot).
std::size_t tag_slot(rfidsim::scene::TagId tag);
rfidsim::scene::TagId tag_of(std::size_t object, std::size_t which);

/// Folds one locate answer into a digest.
void digest_locate(Digest& d, const rfidsim::fleet::LocateResult& r);
/// Folds one reconciliation into a digest.
void digest_missing(Digest& d, const rfidsim::fleet::MissingReport& r);

/// A reconciliation request: 500 expected objects against a recent window
/// of one facility — the 41 carts up to and including `last_cart` plus
/// eight objects of the cart after it, which has not passed yet.
struct ManifestQuery {
  rfidsim::track::Manifest manifest;
  rfidsim::fleet::FacilityId facility = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
};
ManifestQuery manifest_for(const FleetStream& stream, rfidsim::fleet::FacilityId facility,
                           std::size_t last_cart);

/// Traffic shape of one run of the stream, for the traffic record.
struct TrafficTally {
  std::uint64_t passes = 0, raw_events = 0, distinct_tags = 0;
  std::uint64_t delivered_batches = 0, late_batches = 0, lost_batches = 0,
                quarantined_records = 0;
  void add(const PassJob& job, const rfidsim::fleet::FeedPassResult& r);
  void print() const;
};

/// Store-side shares from its deterministic stats.
void print_store_shape(const rfidsim::fleet::StoreStats& stats, std::size_t sightings);

}  // namespace perfbench
