// In-memory span recorder for the traced benchmark run, after the
// per-worker timers of aprell/tasking-2.0's profile.h: the harness wraps
// each call into a module's public API in a span (name, start, end, parent,
// run id). Spans stay in memory and are written out when the benchmark
// ends. When disabled, Begin/End cost one branch and record nothing.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name;  // string literal naming the API call
  int64_t start_ns;  // since the tracer's epoch
  int64_t end_ns;
  int parent;        // index of the enclosing span, -1 = top level
  int run;           // benchmark iteration the span belongs to
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_run(int run) { run_ = run; }

  // Opens a span nested in the innermost open one; returns its id (-1 when
  // disabled). Spans must be closed in LIFO order.
  int Begin(const char* name);
  void End(int id);

  // Seconds spent in spans named `name` of `run`, minus the time their
  // direct children cover (a layer's self time).
  double SelfSeconds(int run, std::string_view name) const;
  // Seconds covered by the top-level spans of `run`.
  double TopLevelSeconds(int run) const;

  // One JSON object per span, as a JSON array.
  void WriteJson(std::FILE* out) const;

 private:
  Clock::time_point epoch_;
  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
