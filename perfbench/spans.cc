#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int64_t SelfTimeNs(const Span& span, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  int64_t covered = 0;
  int64_t reach = span.start_ns;  // end of the covered prefix so far
  for (const Span& child : children) {
    const int64_t begin = std::max(child.start_ns, reach);
    const int64_t end = std::min(child.end_ns, span.end_ns);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return span.duration_ns() - covered;
}

uint32_t SpanRecorder::Begin(const char* name, uint64_t op, uint32_t parent,
                             const char* note) {
  if (!enabled_) return 0;
  Span span;
  span.op = op;
  span.parent = parent;
  span.name = name;
  span.note = note;
  span.start_ns = NowNs();
  hyperion::MutexLock lock(mu_);
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::End(uint32_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  hyperion::MutexLock lock(mu_);
  spans_[id - 1].end_ns = now;
}

void SpanRecorder::SetNote(uint32_t id, const char* note) {
  if (id == 0) return;
  hyperion::MutexLock lock(mu_);
  spans_[id - 1].note = note;
}

std::vector<Span> SpanRecorder::spans() const {
  hyperion::MutexLock lock(mu_);
  return spans_;
}

std::vector<Span> SpanRecorder::spans_since(uint32_t first) const {
  hyperion::MutexLock lock(mu_);
  if (first == 0 || first > spans_.size()) return {};
  return std::vector<Span>(spans_.begin() + (first - 1), spans_.end());
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  hyperion::MutexLock lock(mu_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"op\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"note\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.op), s.id, s.parent,
                 s.name, s.note, (s.start_ns - origin) / 1e3,
                 s.duration_ns() / 1e3);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
