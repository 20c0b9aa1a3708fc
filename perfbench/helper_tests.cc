// Tests of the benchmark's own helpers: the quantile floor, the seeded
// operation stream, and span self-time arithmetic.  Exits non-zero on the
// first failed check (checks stay on in optimized builds).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestQuantileNeedsTenSamplesBeyond() {
  // p99 of 1..1000 is the 990th value, with exactly ten above it.
  auto p99 = perfbench::Quantile(Ramp(1000), 0.99);
  CHECK(p99.has_value());
  CHECK(p99 && *p99 == 990.0);
  // One sample fewer leaves nine beyond: refused.
  CHECK(!perfbench::Quantile(Ramp(999), 0.99).has_value());
  // p95 needs 200 samples.
  CHECK(perfbench::Quantile(Ramp(200), 0.95).has_value());
  CHECK(!perfbench::Quantile(Ramp(199), 0.95).has_value());
  CHECK(!perfbench::Quantile({}, 0.5).has_value());
  // The median of 1..21 is 11.
  auto p50 = perfbench::Quantile(Ramp(21), 0.5);
  CHECK(p50 && *p50 == 11.0);
}

void TestFailedSamplesMissEveryLimit() {
  std::vector<double> v = Ramp(1000);
  for (size_t i = 0; i < 11; ++i) v[i] = perfbench::kFailedLatency;
  // Eleven failures sort above everything: the p99 rank lands on one.
  auto p99 = perfbench::Quantile(v, 0.99);
  CHECK(p99 && std::isinf(*p99));
}

void TestOpStreamIsDeterministicBySeed() {
  perfbench::OpStream a(42, 7, 0.25), b(42, 7, 0.25), c(43, 7, 0.25);
  bool differs = false;
  std::vector<size_t> path_counts(7, 0);
  size_t writes = 0;
  for (int i = 0; i < 20000; ++i) {
    perfbench::Op x = a.Next(), y = b.Next(), z = c.Next();
    CHECK(x.write == y.write && x.path == y.path &&
          x.pick_table == y.pick_table && x.pick_x == y.pick_x &&
          x.pick_y == y.pick_y);
    differs |= x.write != z.write || x.path != z.path;
    CHECK(x.path < 7);
    if (!x.write) ++path_counts[x.path];
    writes += x.write;
  }
  CHECK(differs);
  // Zipf with exponent 1 over 7 ranks, apportioned to a 100-card deck:
  // 39, 19, 13, 10, 8, 6, 5 cards (rank 1 draws 1/H(7) = 38.6%).
  const std::vector<size_t> deck = {39, 19, 13, 10, 8, 6, 5};
  for (size_t p = 0; p < 7; ++p) CHECK(path_counts[p] == deck[p] * 150);
  CHECK(writes == 5000);
}

void TestOpStreamIsStratified() {
  // Every block of 1 / share operations holds exactly one write, and
  // every 100 consecutive queries from a deck boundary follow the deck.
  perfbench::OpStream stream(7, 7, 0.10);
  std::vector<size_t> counts(7, 0);
  size_t queries = 0;
  for (int i = 0; i < 1000; ++i) {
    size_t block_writes = 0;
    for (int k = 0; k < 10; ++k) {
      perfbench::Op op = stream.Next();
      block_writes += op.write;
      if (op.write) continue;
      ++counts[op.path];
      if (++queries % 100 == 0) {
        CHECK(counts[0] == 39 && counts[6] == 5);
        counts.assign(7, 0);
      }
    }
    CHECK(block_writes == 1);
  }
  perfbench::OpStream reads(7, 7, 0.0), all_writes(7, 7, 1.0);
  for (int i = 0; i < 100; ++i) {
    CHECK(!reads.Next().write);
    CHECK(all_writes.Next().write);
  }
}

perfbench::Span MakeSpan(int64_t start, int64_t end) {
  perfbench::Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  const perfbench::Span parent = MakeSpan(100, 200);
  CHECK(perfbench::SelfTimeNs(parent, {}) == 100);
  // Two disjoint children.
  CHECK(perfbench::SelfTimeNs(parent, {MakeSpan(110, 120),
                                       MakeSpan(150, 170)}) == 70);
  // Overlapping children count once, given in any order.
  CHECK(perfbench::SelfTimeNs(parent, {MakeSpan(140, 160),
                                       MakeSpan(110, 150)}) == 50);
  // A child nested in another adds nothing.
  CHECK(perfbench::SelfTimeNs(parent, {MakeSpan(110, 190),
                                       MakeSpan(120, 130)}) == 20);
  // Parts outside the parent are clipped.
  CHECK(perfbench::SelfTimeNs(parent, {MakeSpan(50, 120),
                                       MakeSpan(190, 260)}) == 70);
}

void TestRecorderIds() {
  perfbench::SpanRecorder off(false);
  CHECK(off.Begin("x", 1, 0) == 0);
  CHECK(off.spans().empty());
  perfbench::SpanRecorder on(true);
  uint32_t root = on.Begin("op", 7, 0);
  uint32_t child = on.Begin("service.execute", 7, root);
  on.End(child);
  on.End(root);
  CHECK(root == 1 && child == 2);
  auto tail = on.spans_since(child);
  CHECK(tail.size() == 1 && tail[0].parent == root && tail[0].op == 7);
  CHECK(on.spans()[0].end_ns >= on.spans()[1].end_ns);
}

}  // namespace

int main() {
  TestQuantileNeedsTenSamplesBeyond();
  TestFailedSamplesMissEveryLimit();
  TestOpStreamIsDeterministicBySeed();
  TestOpStreamIsStratified();
  TestSelfTime();
  TestRecorderIds();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helper tests passed\n");
  return 0;
}
