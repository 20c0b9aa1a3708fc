// In-memory span recording for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files, around its calls
// into each layer's public functions; the program itself is not
// instrumented.  Every span of one operation shares that operation's id.
// The recorder keeps everything in memory and writes it out once, after
// the measured phase, so recording costs a clock read and a vector push.

#ifndef HYPERION_PERFBENCH_SPANS_H_
#define HYPERION_PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/synchronization.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t op = 0;      // operation id, shared by every span of the op
  uint32_t id = 0;      // unique in the run, 1-based
  uint32_t parent = 0;  // causing span; 0 for an operation's top level
  const char* name = "";
  const char* note = "";  // e.g. "hit" / "miss" on service.execute
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// \brief Span duration minus the part of its interval that `children`
/// cover (overlapping children are counted once; parts of a child outside
/// the span are ignored).
int64_t SelfTimeNs(const Span& span, std::vector<Span> children);

/// \brief Thread-safe span sink.  Disabled, every call is a no-op that
/// returns id 0, so untraced runs pay one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// \brief Opens a span now; returns its id for End().
  uint32_t Begin(const char* name, uint64_t op, uint32_t parent,
                 const char* note = "");
  void End(uint32_t id);
  /// \brief Replaces the note of an open or closed span.
  void SetNote(uint32_t id, const char* note);

  /// \brief The span layer calls made on other threads attach to: set by
  /// the client thread before each call into the service, read by the
  /// source decorator on the service's worker thread.
  void SetContext(uint64_t op, uint32_t parent) {
    context_op_.store(op, std::memory_order_release);
    context_parent_.store(parent, std::memory_order_release);
  }
  uint64_t context_op() const {
    return context_op_.load(std::memory_order_acquire);
  }
  uint32_t context_parent() const {
    return context_parent_.load(std::memory_order_acquire);
  }

  std::vector<Span> spans() const;
  /// \brief Spans with an id of at least `first`, in id order.
  std::vector<Span> spans_since(uint32_t first) const;

  /// \brief Writes one JSON object per line; false when the file cannot
  /// be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> context_op_{0};
  std::atomic<uint32_t> context_parent_{0};
  mutable hyperion::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);  // spans_[id - 1] has id
};

}  // namespace perfbench

#endif  // HYPERION_PERFBENCH_SPANS_H_
