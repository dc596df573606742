// Unit and determinism tests for rfidsim::sweep — the thread pool, the
// per-cell RNG derivation, and parallel_for's contract that thread count
// can change wall-clock only, never results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"

namespace rfidsim::sweep {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.wait_idle();
}

TEST(ThreadPoolTest, SurvivesMultipleBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 40; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 40 * (batch + 1));
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(counter.load(), 64);
}

// Lane metrics are registered by the constructor, on the constructing
// thread, never lazily by a worker (a worker registering during static
// teardown could find the registry already destroyed). So a pool built
// with hooks on has every lane's gauges before any task has run.
TEST(ThreadPoolTest, LaneMetricsAreRegisteredBeforeTheFirstTask) {
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  {
    const ThreadPool pool(3);
    const std::string exposition = obs::registry().exposition();
#ifdef RFIDSIM_OBS_DISABLED
    EXPECT_EQ(exposition.find("lane_busy_seconds"), std::string::npos);
#else
    for (const char* lane : {"0", "1", "2"}) {
      for (const char* family : {"busy", "idle", "queue_wait"}) {
        const std::string series = std::string("rfidsim_sweep_pool_lane_") + family +
                                   "_seconds{lane=\"" + lane + "\"}";
        EXPECT_NE(exposition.find(series), std::string::npos) << series;
      }
    }
#endif
  }
  obs::set_enabled(saved);
}

TEST(CellRngTest, IsAPureFunctionOfSeedAndCell) {
  for (const std::uint64_t seed : {0ull, 1ull, 20070625ull}) {
    for (std::uint64_t cell = 0; cell < 16; ++cell) {
      Rng a = cell_rng(seed, cell);
      Rng b = cell_rng(seed, cell);
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "seed " << seed << " cell " << cell;
      }
    }
  }
}

TEST(CellRngTest, MatchesTheSerialForkConvention) {
  // run_repeated derives repetition i's generator as Rng(seed).fork(i);
  // byte-identity between serial and sweep paths rests on this equality.
  for (std::uint64_t cell = 0; cell < 8; ++cell) {
    Rng serial = Rng(321).fork(cell);
    Rng sweep = cell_rng(321, cell);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(serial.next_u64(), sweep.next_u64());
    }
  }
}

TEST(CellRngTest, DistinctCellsGetDistinctStreams) {
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t cell = 0; cell < 64; ++cell) {
    first_draws.insert(cell_rng(99, cell).next_u64());
  }
  EXPECT_EQ(first_draws.size(), 64u);
}

TEST(CellRngTest, GridCellRngNestsTwoForkLevels) {
  Rng direct = grid_cell_rng(7, 3, 5);
  Rng nested = cell_rng(cell_rng(7, 3).seed(), 5);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(direct.next_u64(), nested.next_u64());
  }
  // Scenario and repetition axes must be independent: transposing indices
  // lands in a different stream.
  EXPECT_NE(grid_cell_rng(7, 5, 3).next_u64(), grid_cell_rng(7, 3, 5).next_u64());
}

TEST(ParallelForTest, EveryCellRunsExactlyOnce) {
  constexpr std::size_t kCells = 137;
  std::vector<std::atomic<int>> hits(kCells);
  parallel_for(kCells, SweepOptions{.threads = 4}, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

TEST(ParallelForTest, ResultsIndependentOfThreadCount) {
  // The determinism contract, end to end: per-cell RNG consumption through
  // any thread count produces the identical result vector.
  constexpr std::size_t kCells = 64;
  auto run_with = [&](std::size_t threads) {
    std::vector<std::uint64_t> out(kCells);
    parallel_for(kCells, SweepOptions{.threads = threads}, [&](std::size_t i) {
      Rng rng = cell_rng(20070625, i);
      std::uint64_t acc = 0;
      for (int d = 0; d < 100; ++d) acc ^= rng.next_u64();
      out[i] = acc;
    });
    return out;
  };
  const auto serial = run_with(1);
  EXPECT_EQ(serial, run_with(2));
  EXPECT_EQ(serial, run_with(3));
  EXPECT_EQ(serial, run_with(8));
  EXPECT_EQ(serial, run_with(0));  // Shared engine, hardware concurrency.
}

TEST(ParallelForTest, ZeroAndOneCellsAreHandled) {
  int calls = 0;
  parallel_for(0, SweepOptions{.threads = 4}, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, SweepOptions{.threads = 4}, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, LaneAwareSetupAndLaneBounds) {
  constexpr std::size_t kCells = 50;
  std::size_t lanes_seen = 0;
  std::mutex mu;
  std::vector<int> hits(kCells, 0);
  std::set<std::size_t> lanes_used;
  parallel_for(
      kCells, SweepOptions{.threads = 4},
      [&](std::size_t lanes) { lanes_seen = lanes; },
      [&](std::size_t cell, std::size_t lane) {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(lane, lanes_seen);
        ++hits[cell];
        lanes_used.insert(lane);
      });
  ASSERT_GE(lanes_seen, 1u);
  ASSERT_LE(lanes_seen, 4u);
  EXPECT_GE(lanes_used.size(), 1u);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(hits[i], 1) << "cell " << i;
  }
}

TEST(ParallelForTest, LaneCountNeverExceedsCellCount) {
  parallel_for(
      2, SweepOptions{.threads = 16},
      [&](std::size_t lanes) { EXPECT_LE(lanes, 2u); },
      [](std::size_t, std::size_t) {});
}

TEST(SweepEngineTest, SingleThreadEngineHasNoPool) {
  SweepEngine engine(SweepOptions{.threads = 1});
  EXPECT_EQ(engine.thread_count(), 1u);
  std::vector<std::size_t> order;
  engine.run(5, [&](std::size_t i) { order.push_back(i); });
  // The inline path runs cells in index order on the calling thread.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepEngineTest, EngineIsReusableAcrossSweeps) {
  SweepEngine engine(SweepOptions{.threads = 3});
  for (int sweep = 0; sweep < 4; ++sweep) {
    std::atomic<std::size_t> sum{0};
    engine.run(100, [&](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(SweepEngineTest, SharedEngineUsesHardwareConcurrency) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(shared_engine().thread_count(), hw);
  EXPECT_EQ(&shared_engine(), &shared_engine());
}

}  // namespace
}  // namespace rfidsim::sweep
