// Google-benchmark micro-benchmarks for the simulator's hot paths: the
// per-round link evaluation, the Gen 2 inventory engine, and the wire
// framing every uploaded read crosses. These guard
// against performance regressions that would make the Monte Carlo
// experiment sweeps (hundreds of passes per table) painful.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "gen2/inventory.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "reliability/calibration.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "scene/path_evaluator.hpp"
#include "system/portal.hpp"
#include "wire/batch_codec.hpp"
#include "wire/wire.hpp"

namespace {

using namespace rfidsim;

void BM_PathEvaluation(benchmark::State& state) {
  const auto cal = reliability::CalibrationProfile::paper2006();
  reliability::ObjectScenarioOptions opt;
  opt.tag_faces = {scene::BoxFace::Front, scene::BoxFace::SideNear};
  const reliability::Scenario sc = reliability::make_object_tracking_scenario(opt, cal);
  const scene::PathEvaluator evaluator(sc.scene, cal.evaluator);
  const auto tags = sc.scene.all_tags();
  double t = 0.0;
  for (auto _ : state) {
    for (const auto& tag : tags) {
      benchmark::DoNotOptimize(evaluator.evaluate(0, tag, t));
    }
    t += 0.025;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tags.size()));
}
BENCHMARK(BM_PathEvaluation);

void BM_InventoryRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gen2::InventoryConfig cfg;
  gen2::InventoryEngine engine(cfg);
  Rng rng(1);
  double t = 0.0;
  for (auto _ : state) {
    // Fresh, fully powered population each round (worst case: everyone
    // contends).
    std::vector<gen2::TagState> states(n);
    std::vector<gen2::TagLink> links(n);
    for (std::size_t i = 0; i < n; ++i) {
      states[i].set_powered(true, t);
      links[i].powered = true;
      links[i].rx_power = DbmPower(-55.0);
    }
    benchmark::DoNotOptimize(engine.run_round(states, links, t, rng));
    t += 0.1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InventoryRound)->Arg(1)->Arg(10)->Arg(100);

void BM_FullPass(benchmark::State& state) {
  const auto cal = reliability::CalibrationProfile::paper2006();
  reliability::ObjectScenarioOptions opt;
  const reliability::Scenario sc = reliability::make_object_tracking_scenario(opt, cal);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sys::PortalSimulator sim(sc.scene, sc.portal);
    Rng rng(++seed);
    benchmark::DoNotOptimize(sim.run(rng));
  }
}
BENCHMARK(BM_FullPass);

/// Cached path evaluation with observability toggled at runtime. The pair
/// exists so `--check-obs-overhead` (and anyone eyeballing the regular
/// benchmark output) can see that the hot loop costs the same either way:
/// the evaluator keeps plain per-instance counters and only touches the
/// registry when it is destroyed.
void BM_PathEvaluationCached(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  const bool saved = obs::enabled();
  obs::set_enabled(obs_on);
  const auto cal = reliability::CalibrationProfile::paper2006();
  const reliability::Scenario sc = reliability::make_read_range_scenario(4.0, cal);
  scene::EvaluatorParams params = sc.portal.evaluator;
  params.static_geometry_cache = true;
  const scene::PathEvaluator evaluator(sc.scene, params);
  const auto tags = sc.scene.all_tags();
  for (auto _ : state) {
    for (const auto& tag : tags) {
      benchmark::DoNotOptimize(evaluator.evaluate(0, tag, 0.0));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tags.size()));
  obs::set_enabled(saved);
}
BENCHMARK(BM_PathEvaluationCached)->Arg(0)->Arg(1)->ArgNames({"obs"});

/// CRC-16 over a frame-sized buffer: 64 B, a typical 32-event batch frame
/// (584 B), and 1 MiB (checkpoint-shard scale).
void BM_Crc16(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(16);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::crc16(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc16)->Arg(64)->Arg(584)->Arg(1 << 20);

/// One 32-event upload batch across the wire: encode the frame, find it
/// with next_frame (CRC check included), decode the payload.
void BM_EventBatchFrameRoundTrip(benchmark::State& state) {
  Rng rng(32);
  wire::EventBatch batch;
  batch.facility = 3;
  batch.sent_time_s = 120.0;
  double t = 119.0;
  for (std::size_t i = 0; i < 32; ++i) {
    sys::ReadEvent ev;
    ev.tag = scene::TagId{0x3000'0000'0000'0000ULL + static_cast<std::uint64_t>(rng.uniform_int(0, 21))};
    t += rng.uniform(0.0, 0.03);
    ev.time_s = t;
    ev.reader_index = static_cast<std::size_t>(rng.uniform_int(0, 1));
    ev.antenna_index = static_cast<std::size_t>(rng.uniform_int(0, 1));
    ev.rssi = DbmPower{-60.0 + rng.gaussian(0.0, 4.0)};
    batch.events.push_back(ev);
  }
  for (auto _ : state) {
    const std::vector<std::uint8_t> frame = wire::encode_event_batch_frame(batch);
    const wire::DecodeResult res = wire::next_frame(frame, 0);
    std::optional<wire::EventBatch> decoded = wire::decode_event_batch(res.frame);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.events.size()));
}
BENCHMARK(BM_EventBatchFrameRoundTrip);

/// Shared A/B overhead gate: finely interleaved slices in a
/// deterministically shuffled order, compared by per-mode medians, with
/// `budget` (a fraction) on mode-true vs mode-false. A rigid A/B/B/A pattern measurably
/// aliases with periodic system activity (timer ticks, frequency-scaling
/// oscillation) on shared hardware — a null experiment with the flag held
/// constant still showed ~1% "overhead" under that pattern. Shuffling
/// decorrelates the mode from any such period and the median shrugs off
/// the occasional descheduled slice.
int run_ab_gate(const char* label, double budget,
                const std::function<double(bool)>& time_slice) {
  constexpr int kSlicesPerMode = 100;
  std::vector<char> order;
  for (int s = 0; s < kSlicesPerMode; ++s) {
    order.push_back(0);
    order.push_back(1);
  }
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;  // Fixed seed: run is reproducible.
  auto next = [&lcg] {
    lcg ^= lcg << 13;
    lcg ^= lcg >> 7;
    lcg ^= lcg << 17;
    return lcg;
  };
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[next() % i]);
  }
  std::vector<double> off_s, on_s;
  time_slice(false);  // Warm caches before the first measured slice.
  time_slice(true);
  for (const char mode : order) {
    (mode != 0 ? on_s : off_s).push_back(time_slice(mode != 0));
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double med_off = median(off_s);
  const double med_on = median(on_s);
  const double overhead = med_on / med_off - 1.0;
  std::printf("%s: off %.6fs/slice, on %.6fs/slice, %+.3f%%\n", label, med_off,
              med_on, overhead * 100.0);
  if (overhead > budget) {
    std::printf("FAIL: %s costs more than %.0f%%\n", label, budget * 100.0);
    return 1;
  }
  std::printf("OK: within the %.0f%% overhead budget\n", budget * 100.0);
  return 0;
}

/// `--check-obs-overhead`: times the cached path-eval hot loop with obs
/// enabled vs disabled and fails if the enabled loop is more than 1%
/// slower. The hot loop compiles identically in both modes, so this holds
/// with plenty of margin; a regression here means someone put registry
/// traffic back on the per-evaluation path. Also gates the disabled
/// ScopedPhase markers (check_phase_overhead below) under the same budget,
/// and a parallel sweep (check_parallel_obs_overhead) under 5%.
int check_obs_overhead() {
  const auto cal = reliability::CalibrationProfile::paper2006();
  const reliability::Scenario sc = reliability::make_read_range_scenario(4.0, cal);
  scene::EvaluatorParams params = sc.portal.evaluator;
  params.static_geometry_cache = true;
  const auto tags = sc.scene.all_tags();

  const scene::PathEvaluator evaluator(sc.scene, params);
  double sink = 0.0;
  // Thread CPU time, not wall time: a preempted slice would otherwise
  // charge the whole scheduling gap to whichever mode was running.
  auto thread_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  auto time_slice = [&](bool obs_on) {
    obs::set_enabled(obs_on);
    constexpr std::size_t kPasses = 5000;  // ~5 ms per slice.
    const double t0 = thread_seconds();
    for (std::size_t p = 0; p < kPasses; ++p) {
      for (const auto& tag : tags) {
        sink += evaluator.evaluate(0, tag, 0.0).distance_m;
      }
    }
    return thread_seconds() - t0;
  };

  const int rc = run_ab_gate("obs overhead on cached path eval", 0.01, time_slice);
  obs::set_enabled(true);
  if (sink == 42.0) std::puts("");  // Defeat dead-code elimination.
  return rc;
}

/// Disabled-profiler-hook overhead: the same cached path-eval loop, with
/// every pass wrapped in a ScopedPhase marker whose attribution switch is
/// off, vs the bare loop. Markers live on per-round orchestration paths
/// (portal run, store route/merge), so a disabled marker must cost no more
/// than the disabled metric hooks it sits next to — the same 1% budget.
int check_phase_overhead() {
  const auto cal = reliability::CalibrationProfile::paper2006();
  const reliability::Scenario sc = reliability::make_read_range_scenario(4.0, cal);
  scene::EvaluatorParams params = sc.portal.evaluator;
  params.static_geometry_cache = true;
  const auto tags = sc.scene.all_tags();

  const scene::PathEvaluator evaluator(sc.scene, params);
  double sink = 0.0;
  auto thread_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const bool saved = obs::prof::attribution_enabled();
  obs::prof::set_attribution_enabled(false);
  auto time_slice = [&](bool with_markers) {
    constexpr std::size_t kPasses = 5000;  // ~5 ms per slice.
    const double t0 = thread_seconds();
    for (std::size_t p = 0; p < kPasses; ++p) {
      if (with_markers) {
        const obs::prof::ScopedPhase phase(obs::prof::Phase::kPathEval);
        for (const auto& tag : tags) {
          sink += evaluator.evaluate(0, tag, 0.0).distance_m;
        }
      } else {
        for (const auto& tag : tags) {
          sink += evaluator.evaluate(0, tag, 0.0).distance_m;
        }
      }
    }
    return thread_seconds() - t0;
  };
  const int rc =
      run_ab_gate("disabled phase markers on cached path eval", 0.01, time_slice);
  obs::prof::set_attribution_enabled(saved);
  if (sink == 42.0) std::puts("");  // Defeat dead-code elimination.
  return rc;
}

/// Parallel obs overhead: one 80-repetition run_repeated_parallel call on
/// 4 lanes over the one-badge human scenario, obs on vs off, compared by
/// interleaved wall-time medians with a 5% budget. The single-thread gate
/// above cannot see hooks that are cheap alone but contend across lanes:
/// per-round registry writes from 4 lanes cost this call about 2x before
/// gen2 and the portal moved to per-pass tallies. Needs 2+ hardware
/// threads to mean anything, so it prints SKIP on smaller machines.
int check_parallel_obs_overhead() {
  if (std::thread::hardware_concurrency() < 2) {
    std::printf("SKIP: parallel obs overhead needs >= 2 hardware threads\n");
    return 0;
  }
  const auto cal = reliability::CalibrationProfile::paper2006();
  const reliability::Scenario sc =
      reliability::make_human_tracking_scenario(reliability::HumanScenarioOptions{}, cal);
  constexpr std::size_t kReps = 80;
  constexpr std::size_t kLanes = 4;
  std::size_t sink = 0;
  auto time_slice = [&](bool obs_on) {
    obs::set_enabled(obs_on);
    const auto t0 = std::chrono::steady_clock::now();
    const reliability::RepeatedRuns runs =
        reliability::run_repeated_parallel(sc, kReps, 20070625, kLanes);
    const auto t1 = std::chrono::steady_clock::now();
    for (const auto& log : runs.logs) sink += log.size();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  const int rc = run_ab_gate("obs overhead on a 4-lane repeated-pass sweep", 0.05, time_slice);
  obs::set_enabled(true);
  if (sink == 42) std::puts("");  // Defeat dead-code elimination.
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--check-obs-overhead") {
      int rc = check_obs_overhead();
      if (rc == 0) rc = check_phase_overhead();
      return rc != 0 ? rc : check_parallel_obs_overhead();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
