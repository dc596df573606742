// rfidsim::obs::prof — Linux signal-driven sampling profiler.
//
// Per-thread CPU-time sampling: every registered thread gets a POSIX timer
// (timer_create on the thread's own CPU clock, SIGEV_THREAD_ID delivery)
// that raises SIGPROF on that thread at a fixed CPU-time interval. The handler
// captures a backtrace() stack into the thread's bounded sample ring — the
// flight recorder's per-thread-ring pattern, but with a lock-free
// single-writer ring because a signal handler cannot take a mutex it might
// already hold. Symbolization (backtrace_symbols + __cxa_demangle) happens
// offline at dump time, never in the handler.
//
// Async-signal-safety rules the handler obeys (DESIGN.md section 13):
//   - no allocation, no locks, no iostream: it writes POD fields into a
//     preallocated slot and publishes with one release store;
//   - backtrace() is primed once in start() (its first call may allocate
//     libgcc state), after which glibc documents it signal-safe;
//   - errno is saved and restored;
//   - a per-ring test_and_set guard lets stop() wait out an in-flight
//     handler before the rings are read, so dumps never race a straggler.
//
// Feedback-free: sampling observes thread CPU time only; SA_RESTART keeps
// interrupted syscalls invisible to the simulation, and the bench event
// streams are held byte-identical with RFIDSIM_OBS=prof vs off. On
// non-Linux platforms (and under -DRFIDSIM_OBS=OFF) start() returns false
// and every other entry point degenerates to a no-op.
//
// Exports: folded stacks ("frame;frame;frame count" — flamegraph.pl
// input) and Chrome trace_event instant events, both deterministic given
// the same sample set.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace rfidsim::obs::prof {

/// Samples retained per thread before the ring wraps (newest win; drops
/// are tallied, never silent).
inline constexpr std::size_t kSampleRingCapacity = 8192;

/// Frames captured per sample. Deep enough to reach the portal/sweep
/// orchestration layers from any leaf; deeper stacks are truncated.
inline constexpr std::size_t kMaxFrames = 24;

/// Lane value for samples from threads that are not sweep-pool workers.
inline constexpr std::uint32_t kNoLane = 0xffffffffu;

struct ProfilerConfig {
  /// Per-thread CPU-time sampling period. Prime by default so the sampler
  /// cannot phase-lock with millisecond-periodic work.
  std::uint32_t interval_usec = 997;
  /// Frames to capture per sample (clamped to kMaxFrames).
  std::size_t max_depth = kMaxFrames;
};

/// One captured sample (POD: written from the signal handler).
struct Sample {
  std::uint64_t wall_ns = 0;  ///< CLOCK_MONOTONIC at capture.
  std::uint32_t lane = kNoLane;  ///< Sweep lane id, or kNoLane.
  std::uint32_t depth = 0;
  std::array<void*, kMaxFrames> frames{};  ///< Leaf first (backtrace order).
};

/// Registers the calling thread for sampling; idempotent (re-registering
/// only updates the lane id). The main thread is registered by start();
/// sweep::ThreadPool workers register themselves with their lane id. If
/// the profiler is already active, the thread's timer is armed
/// immediately. Unregistration is automatic at thread exit.
void register_thread(std::uint32_t lane = kNoLane);

/// Arms per-thread sample timers for every registered thread (and the
/// caller). Returns false when profiling is unavailable: non-Linux
/// platform, obs compiled out, obs runtime-disabled, or already active.
bool start(const ProfilerConfig& config = {});

/// Disarms every timer and waits out in-flight handlers; after stop() the
/// rings are quiescent and safe to dump.
void stop();

bool profiling_active();

std::uint64_t samples_recorded();  ///< Samples accepted (monotonic).
std::uint64_t samples_dropped();   ///< Samples overwritten by ring wrap.

/// Merged copy of every thread's retained samples (per-ring oldest-first).
/// Call after stop().
std::vector<Sample> samples_snapshot();

/// Aggregates samples into folded-stack form: "root;...;leaf" -> count.
/// The profiler's own handler frames (the top two: handler + signal
/// trampoline) are stripped. Exposed so tests can fold fabricated samples.
std::map<std::string, std::uint64_t> fold_samples(const std::vector<Sample>& samples);

/// Folded stacks, one "stack count" line each, sorted by stack — the
/// flamegraph.pl input format.
void write_folded(std::ostream& out);

/// Chrome trace_event instant events (ts = wall microseconds, tid = lane).
void write_profile_chrome_trace(std::ostream& out);

/// Atomically writes the folded-stack dump to `path` (tmp + rename).
/// Returns false if the file could not be written.
bool dump_profile(const std::string& path);

/// Discards every thread's samples and zeroes the tallies (registrations
/// survive).
void clear_profile();

}  // namespace rfidsim::obs::prof
