#include "trace.h"

namespace perfbench {
namespace {

int64_t SinceEpoch(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

double Seconds(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns) * 1e-9; }

}  // namespace

int Tracer::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, SinceEpoch(epoch_), 0, parent, run_});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_ns = SinceEpoch(epoch_);
  open_.pop_back();
}

double Tracer::SelfSeconds(int run, std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.run != run) {
      continue;
    }
    if (name == s.name) {
      total += Seconds(s);
    }
    if (s.parent >= 0 && name == spans_[static_cast<size_t>(s.parent)].name) {
      total -= Seconds(s);
    }
  }
  return total;
}

double Tracer::TopLevelSeconds(int run) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.run == run && s.parent < 0) {
      total += Seconds(s);
    }
  }
  return total;
}

void Tracer::WriteJson(std::FILE* out) const {
  std::fprintf(out, "[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"run\": %d}",
                 i == 0 ? "" : ",", i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.run);
  }
  std::fprintf(out, "\n]");
}

}  // namespace perfbench
