#include "obs/prof.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>

#include "obs/metrics.hpp"

#if defined(__linux__) && !defined(RFIDSIM_OBS_DISABLED)
#define RFIDSIM_PROF_HAS_TIMERS 1
#endif

#ifdef RFIDSIM_PROF_HAS_TIMERS
#include <errno.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

// Raw-struct fallbacks for libcs that support SIGEV_THREAD_ID delivery but
// do not expose the glibc convenience names.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // RFIDSIM_PROF_HAS_TIMERS

#if defined(__GLIBC__)
#include <cxxabi.h>
#include <execinfo.h>
#define RFIDSIM_PROF_HAS_SYMBOLS 1
#endif

namespace rfidsim::obs::prof {

namespace {

#ifdef RFIDSIM_PROF_HAS_TIMERS

/// One thread's sample storage. Single writer (the owning thread's SIGPROF
/// handler); readers synchronize through `written` (release/acquire) and
/// only run after stop() has waited out in-flight handlers via `busy`.
struct SampleRing {
  std::array<Sample, kSampleRingCapacity> slots;
  std::atomic<std::uint64_t> written{0};
  std::atomic_flag busy = ATOMIC_FLAG_INIT;
};

/// Per-thread registration. Registration itself is cheap (~100 bytes);
/// the multi-megabyte ring is only allocated when profiling first starts,
/// so pool workers in a never-profiled run cost nothing but this stub.
struct ThreadEntry {
  std::atomic<SampleRing*> ring{nullptr};  ///< Set once, under the mutex.
  std::shared_ptr<SampleRing> holder;      ///< Owns *ring; mutex-guarded.
  std::atomic<std::uint32_t> lane{kNoLane};
  std::atomic<bool> alive{true};
  pid_t tid = 0;
  /// The thread's own CPU clock. CLOCK_THREAD_CPUTIME_ID would name the
  /// clock of whichever thread arms the timer — start() arms every
  /// registered thread's timer from the caller's thread.
  clockid_t cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  timer_t timer{};
  bool timer_armed = false;  ///< Guarded by EntryRegistry::mutex.
};

struct EntryRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadEntry>> entries;
};

EntryRegistry& entry_registry() {
  static EntryRegistry* r = new EntryRegistry;  // Never destroyed: handlers
  return *r;                                    // may outlive static teardown.
}

std::atomic<bool> g_active{false};
std::atomic<std::uint64_t> g_recorded{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint32_t> g_interval_usec{997};
std::atomic<std::uint32_t> g_max_depth{kMaxFrames};
struct sigaction g_old_action;

thread_local ThreadEntry* t_entry = nullptr;

/// The SIGPROF handler. Async-signal-safe by construction: POD stores into
/// a preallocated slot, one primed backtrace() call, errno save/restore,
/// and a try-lock (`busy`) instead of any blocking primitive.
void sigprof_handler(int, siginfo_t*, void*) {
  ThreadEntry* entry = t_entry;
  if (entry == nullptr || !g_active.load(std::memory_order_relaxed)) return;
  SampleRing* ring = entry->ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  if (ring->busy.test_and_set(std::memory_order_acquire)) return;
  const int saved_errno = errno;
  const std::uint64_t idx = ring->written.load(std::memory_order_relaxed);
  Sample& slot = ring->slots[idx % kSampleRingCapacity];
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  slot.wall_ns = static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
                 static_cast<std::uint64_t>(ts.tv_nsec);
  slot.lane = entry->lane.load(std::memory_order_relaxed);
  const int depth = ::backtrace(
      slot.frames.data(),
      static_cast<int>(g_max_depth.load(std::memory_order_relaxed)));
  slot.depth = depth > 0 ? static_cast<std::uint32_t>(depth) : 0;
  ring->written.store(idx + 1, std::memory_order_release);
  g_recorded.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kSampleRingCapacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  errno = saved_errno;
  ring->busy.clear(std::memory_order_release);
}

/// Allocates the entry's ring if it does not exist yet. Caller holds
/// EntryRegistry::mutex; the release store publishes the fully constructed
/// ring to the handler.
void ensure_ring_locked(ThreadEntry& entry) {
  if (entry.holder) return;
  entry.holder = std::make_shared<SampleRing>();
  entry.ring.store(entry.holder.get(), std::memory_order_release);
}

/// Arms one thread's CPU-time timer. Caller holds EntryRegistry::mutex.
void arm_timer_locked(ThreadEntry& entry) {
  if (entry.timer_armed || !entry.alive.load(std::memory_order_relaxed)) return;
  ensure_ring_locked(entry);
  struct sigevent sev;
  std::memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = entry.tid;
  if (timer_create(entry.cpu_clock, &sev, &entry.timer) != 0) return;
  const long interval_ns =
      static_cast<long>(g_interval_usec.load(std::memory_order_relaxed)) * 1000L;
  itimerspec spec{};
  spec.it_interval.tv_sec = interval_ns / 1000000000L;
  spec.it_interval.tv_nsec = interval_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(entry.timer, 0, &spec, nullptr) != 0) {
    timer_delete(entry.timer);
    return;
  }
  entry.timer_armed = true;
}

void disarm_timer_locked(ThreadEntry& entry) {
  if (!entry.timer_armed) return;
  timer_delete(entry.timer);
  entry.timer_armed = false;
}

/// Thread-exit hook: disarm this thread's timer and mark the entry dead
/// (its retained samples stay dumpable, like flight-recorder rings).
struct ThreadRegistration {
  std::shared_ptr<ThreadEntry> entry;
  ~ThreadRegistration() {
    if (!entry) return;
    std::lock_guard lock(entry_registry().mutex);
    disarm_timer_locked(*entry);
    entry->alive.store(false, std::memory_order_relaxed);
    t_entry = nullptr;
  }
};

thread_local ThreadRegistration t_registration;

#endif  // RFIDSIM_PROF_HAS_TIMERS

/// Turns one backtrace_symbols() line into a frame name: the demangled
/// function (argument list stripped), the mangled symbol when demangling
/// fails, or the raw address when the frame has no symbol at all. Spaces
/// and semicolons are replaced — both are folded-format separators.
std::string frame_name(const char* symbol, void* addr) {
  std::string name;
#ifdef RFIDSIM_PROF_HAS_SYMBOLS
  if (symbol != nullptr) {
    const std::string s(symbol);
    const std::size_t open = s.find('(');
    const std::size_t plus = s.rfind('+');
    const std::size_t close = s.rfind(')');
    if (open != std::string::npos && plus != std::string::npos &&
        close != std::string::npos && open + 1 < plus && plus < close) {
      std::string mangled = s.substr(open + 1, plus - open - 1);
      if (!mangled.empty()) {
        int status = -1;
        char* demangled =
            abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
        if (status == 0 && demangled != nullptr) {
          name.assign(demangled);
          std::free(demangled);
          // Strip the argument list: stacks fold by function, not overload.
          if (const std::size_t args = name.find('('); args != std::string::npos) {
            name.erase(args);
          }
        } else {
          name = std::move(mangled);
        }
      }
    }
  }
#else
  (void)symbol;
#endif
  if (name.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%zx", reinterpret_cast<std::size_t>(addr));
    name = buf;
  }
  for (char& c : name) {
    if (c == ' ' || c == ';') c = '_';
  }
  return name;
}

/// Symbolizes each unique address once (backtrace_symbols is one malloc
/// per call — fine offline, forbidden in the handler).
std::map<void*, std::string> symbolize(const std::vector<Sample>& samples) {
  std::map<void*, std::string> names;
  std::vector<void*> unique;
  for (const Sample& sample : samples) {
    const std::size_t depth = std::min<std::size_t>(sample.depth, kMaxFrames);
    for (std::size_t i = 0; i < depth; ++i) {
      if (names.emplace(sample.frames[i], std::string()).second) {
        unique.push_back(sample.frames[i]);
      }
    }
  }
#ifdef RFIDSIM_PROF_HAS_SYMBOLS
  char** symbols = unique.empty()
                       ? nullptr
                       : ::backtrace_symbols(unique.data(),
                                             static_cast<int>(unique.size()));
  for (std::size_t i = 0; i < unique.size(); ++i) {
    names[unique[i]] =
        frame_name(symbols != nullptr ? symbols[i] : nullptr, unique[i]);
  }
  std::free(symbols);
#else
  for (void* addr : unique) names[addr] = frame_name(nullptr, addr);
#endif
  return names;
}

/// First retained frame index: the handler and the kernel signal
/// trampoline occupy the top two frames of every signal-captured stack.
std::size_t first_frame(const Sample& sample) {
  return sample.depth > 2 ? 2 : 0;
}

}  // namespace

void register_thread(std::uint32_t lane) {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  if (t_entry != nullptr) {
    t_entry->lane.store(lane, std::memory_order_relaxed);
    return;
  }
  auto entry = std::make_shared<ThreadEntry>();
  entry->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  // On failure keep the calling-thread clock: still right for a thread
  // that registers after start() and so arms its own timer.
  if (pthread_getcpuclockid(pthread_self(), &entry->cpu_clock) != 0) {
    entry->cpu_clock = CLOCK_THREAD_CPUTIME_ID;
  }
  entry->lane.store(lane, std::memory_order_relaxed);
  std::lock_guard lock(entry_registry().mutex);
  entry_registry().entries.push_back(entry);
  t_registration.entry = entry;
  t_entry = entry.get();
  if (g_active.load(std::memory_order_relaxed)) arm_timer_locked(*entry);
#else
  (void)lane;
#endif
}

bool start(const ProfilerConfig& config) {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  if (!hooks_enabled()) return false;
  bool expected = false;
  if (!g_active.compare_exchange_strong(expected, true)) return false;
  g_interval_usec.store(std::max<std::uint32_t>(100, config.interval_usec),
                        std::memory_order_relaxed);
  g_max_depth.store(
      static_cast<std::uint32_t>(std::clamp<std::size_t>(config.max_depth, 1,
                                                         kMaxFrames)),
      std::memory_order_relaxed);
  // Prime backtrace(): its first call may allocate unwinder state, which
  // must never happen inside the handler.
  void* primer[4];
  ::backtrace(primer, 4);
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_sigaction = sigprof_handler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, &g_old_action) != 0) {
    g_active.store(false, std::memory_order_relaxed);
    return false;
  }
  if (t_entry == nullptr) register_thread(kNoLane);
  std::lock_guard lock(entry_registry().mutex);
  for (const auto& entry : entry_registry().entries) arm_timer_locked(*entry);
  return true;
#else
  (void)config;
  return false;
#endif
}

void stop() {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  if (!g_active.exchange(false)) return;
  std::vector<std::shared_ptr<ThreadEntry>> entries;
  {
    std::lock_guard lock(entry_registry().mutex);
    for (const auto& entry : entry_registry().entries) {
      disarm_timer_locked(*entry);
    }
    entries = entry_registry().entries;
  }
  // Wait out in-flight handlers: once each ring's busy flag has been
  // acquired here, every handler write happens-before the dump reads.
  for (const auto& entry : entries) {
    SampleRing* ring = entry->ring.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    while (ring->busy.test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ring->busy.clear(std::memory_order_release);
  }
  sigaction(SIGPROF, &g_old_action, nullptr);
#endif
}

bool profiling_active() {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  return g_active.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

std::uint64_t samples_recorded() {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  return g_recorded.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

std::uint64_t samples_dropped() {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  return g_dropped.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

std::vector<Sample> samples_snapshot() {
  std::vector<Sample> out;
#ifdef RFIDSIM_PROF_HAS_TIMERS
  std::lock_guard lock(entry_registry().mutex);
  for (const auto& entry : entry_registry().entries) {
    const SampleRing* ring = entry->holder.get();
    if (ring == nullptr) continue;
    const std::uint64_t written = ring->written.load(std::memory_order_acquire);
    const std::uint64_t retained =
        std::min<std::uint64_t>(written, kSampleRingCapacity);
    for (std::uint64_t i = written - retained; i < written; ++i) {
      out.push_back(ring->slots[i % kSampleRingCapacity]);
    }
  }
#endif
  return out;
}

std::map<std::string, std::uint64_t> fold_samples(
    const std::vector<Sample>& samples) {
  const std::map<void*, std::string> names = symbolize(samples);
  std::map<std::string, std::uint64_t> folded;
  for (const Sample& sample : samples) {
    const std::size_t depth = std::min<std::size_t>(sample.depth, kMaxFrames);
    const std::size_t start = first_frame(sample);
    if (depth <= start) continue;
    std::string stack;
    for (std::size_t i = depth; i > start; --i) {  // Root first.
      stack += names.at(sample.frames[i - 1]);
      if (i - 1 > start) stack += ';';
    }
    ++folded[stack];
  }
  return folded;
}

void write_folded(std::ostream& out) {
  for (const auto& [stack, count] : fold_samples(samples_snapshot())) {
    out << stack << " " << count << "\n";
  }
}

void write_profile_chrome_trace(std::ostream& out) {
  const std::vector<Sample> samples = samples_snapshot();
  const std::map<void*, std::string> names = symbolize(samples);
  out << "[";
  bool first = true;
  for (const Sample& sample : samples) {
    const std::size_t depth = std::min<std::size_t>(sample.depth, kMaxFrames);
    const std::size_t start = first_frame(sample);
    if (depth <= start) continue;
    if (!first) out << ",\n ";
    first = false;
    char ts[32];
    std::snprintf(ts, sizeof ts, "%.3f",
                  static_cast<double>(sample.wall_ns) / 1000.0);
    out << "{\"name\":\"" << names.at(sample.frames[start])
        << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":"
        << (sample.lane == kNoLane ? 0xffffu : sample.lane) << ",\"ts\":" << ts
        << "}";
  }
  out << "]\n";
}

bool dump_profile(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    write_folded(out);
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void clear_profile() {
#ifdef RFIDSIM_PROF_HAS_TIMERS
  std::lock_guard lock(entry_registry().mutex);
  for (const auto& entry : entry_registry().entries) {
    if (entry->holder) entry->holder->written.store(0, std::memory_order_relaxed);
  }
  g_recorded.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
#endif
}

}  // namespace rfidsim::obs::prof
