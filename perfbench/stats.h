// Measurement helpers of the repository benchmark: the quantile rule and
// the seeded operation stream.  Header-only so the helper tests link
// nothing but this file.

#ifndef HYPERION_PERFBENCH_STATS_H_
#define HYPERION_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// A failed operation's latency: it misses every limit, so it sorts above
/// every measured sample.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Samples strictly above a quantile's rank that the quantile needs before
/// it may be reported (a p99 therefore needs at least 1000 samples).
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
inline size_t QuantileRank(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

/// Nearest-rank quantile `q` of `samples`, or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond its rank.  The median of a
/// non-empty set always qualifies once n >= 20.
inline std::optional<double> Quantile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t rank = QuantileRank(n, q);
  if (n - 1 - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

/// Plain median (no samples-beyond floor); for the handful of set-up
/// repetitions and per-layer medians.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t rank = QuantileRank(samples.size(), 0.5);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

/// splitmix64: a fixed, platform-independent generator, so one seed gives
/// one operation stream on every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }

 private:
  uint64_t state_;
};

/// One operation of a workload's closed loop.
struct Op {
  bool write = false;
  size_t path = 0;          // query: index into the query paths
  uint64_t pick_table = 0;  // write: picks the table that gets the row
  uint64_t pick_x = 0;      // write: picks the existing row lending its X
  uint64_t pick_y = 0;      // write: picks the existing row lending its Y
};

/// Seeded stream of operations, stratified so that every seed runs the
/// same mix and only the order differs:
///  * writes: each block of round(1 / write_share) operations holds exactly
///    one write, at a seeded position (write_share 0: no writes); a write
///    carries seeded picks of its table and rows;
///  * query paths: a Zipf law (exponent 1) in which path i has rank i + 1,
///    drawn without replacement from a deck of kDeck cards whose counts
///    follow the law; the deck is reshuffled with the seed when it runs
///    out.
class OpStream {
 public:
  static constexpr size_t kDeck = 100;

  OpStream(uint64_t seed, size_t num_paths, double write_share)
      : rng_(seed),
        period_(write_share > 0 ? static_cast<size_t>(
                                      std::lround(1.0 / write_share))
                                : 0) {
    // Largest-remainder apportionment of the deck to the Zipf weights.
    double total = 0;
    for (size_t rank = 1; rank <= num_paths; ++rank) total += 1.0 / rank;
    std::vector<size_t> counts(num_paths);
    std::vector<std::pair<double, size_t>> remainders;
    size_t dealt = 0;
    for (size_t i = 0; i < num_paths; ++i) {
      const double share = kDeck / (total * static_cast<double>(i + 1));
      counts[i] = static_cast<size_t>(share);
      dealt += counts[i];
      remainders.push_back({share - static_cast<double>(counts[i]), i});
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (size_t k = 0; dealt < kDeck; ++k, ++dealt) {
      ++counts[remainders[k % num_paths].second];
    }
    for (size_t i = 0; i < num_paths; ++i) {
      deck_.insert(deck_.end(), counts[i], i);
    }
    next_card_ = deck_.size();
  }

  Op Next() {
    Op op;
    if (period_ > 0) {
      if (block_pos_ == 0) write_at_ = rng_.Below(period_);
      op.write = block_pos_ == write_at_;
      block_pos_ = (block_pos_ + 1) % period_;
    }
    if (op.write) {
      op.pick_table = rng_.Next();
      op.pick_x = rng_.Next();
      op.pick_y = rng_.Next();
      return op;
    }
    if (next_card_ == deck_.size()) {
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Below(i)]);
      }
      next_card_ = 0;
    }
    op.path = deck_[next_card_++];
    return op;
  }

 private:
  Rng rng_;
  const size_t period_;
  size_t block_pos_ = 0;
  size_t write_at_ = 0;
  std::vector<size_t> deck_;
  size_t next_card_ = 0;
};

}  // namespace perfbench

#endif  // HYPERION_PERFBENCH_STATS_H_
