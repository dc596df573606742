#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

double Samples::sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

std::vector<double> Samples::sorted() const {
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  return v;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  const std::vector<double> v = sorted();
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Samples::min() const {
  return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
}

double Samples::tail() const {
  if (values_.empty()) return 0.0;
  const std::vector<double> v = sorted();
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double Samples::tail_percentile() const {
  const std::size_t n = values_.size();
  if (n <= 10) return 100.0;
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024ULL;
}

void Outcome::fail(const std::string& what) {
  ++failed;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void report(const char* name, double value, const char* unit, const char* clock,
            const std::string& note) {
  std::printf("  %-40s = %-14.6g %-6s [%s]%s%s\n", name, value, unit, clock,
              note.empty() ? "" : "  ", note.c_str());
}

void report_samples(const char* name, const Samples& s, double scale,
                    const char* unit) {
  char note[96];
  std::snprintf(note, sizeof note, "p%.3f, n=%zu", s.tail_percentile(), s.count());
  const std::string base = name;
  report((base + "_p50").c_str(), s.p50() * scale, unit, "host wall");
  report((base + "_tail").c_str(), s.tail() * scale, unit, "host wall", note);
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

std::int32_t Tracer::open(std::string name, std::uint64_t request) {
  Span s;
  s.name = std::move(name);
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order (RAII); pop through the closed one.
  while (!open_.empty()) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

namespace {

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  // Children of one span run on the same thread inside it and do not
  // overlap each other, so the time they cover is the sum of their
  // durations. Spans are appended in start order, so a child always comes
  // after its parent.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[layer_of(s.name)] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
  }
  return self;
}

double Tracer::root_seconds() const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(total);
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"request\":%" PRIu64 "}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), layer_of(s.name).c_str(),
                 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i, s.parent,
                 s.request);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void finish_trace(const Tracer& tracer, const RunArgs& args, Outcome& out) {
  const double total = tracer.root_seconds();
  std::printf("per-layer self time (span time minus child spans), host wall:\n");
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
    const double share = total > 0.0 ? seconds / total : 0.0;
    report((layer + ".self_s").c_str(), seconds, "s", "host wall",
           "share " + std::to_string(share));
    out.metric(layer + ".self_share", share, "ratio", "host wall");
  }
  report("trace.spans", static_cast<double>(tracer.spans().size()), "count", "count");
  if (!args.trace_out.empty()) {
    if (tracer.write_chrome_trace(args.trace_out)) {
      std::printf("  spans written to %s\n", args.trace_out.c_str());
    } else {
      out.fail("cannot write span file " + args.trace_out);
    }
  }
}

}  // namespace perfbench
