// Centralized cover computation over a constraint path (paper §6).
//
// The cover μ : X --m--> Y of a path's constraint set Σ satisfies
//   1. Σ is consistent iff ext(μ) is nonempty, and
//   2. Σ ⊨ μ' iff ext(μ) ⊆ ext(μ'),
// so it solves both the inference and the consistency problem.  The engine
// computes it per inferred partition (join of the member tables, eagerly
// projected), then recombines: Cartesian product of the per-partition
// covers plus unconstrained variables for endpoint attributes no
// constraint mentions — the paper's final step (§6.3.2, the A6 case).
//
// The distributed implementation in src/p2p runs the same per-partition
// computation split across peers; this engine is the reference and the
// oracle the protocol is tested against.

#ifndef HYPERION_CORE_COVER_ENGINE_H_
#define HYPERION_CORE_COVER_ENGINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/compose.h"
#include "core/partition.h"
#include "core/path.h"

namespace hyperion {

struct CoverEngineOptions {
  ComposeOptions compose;
  /// Apply pairwise subsumption pruning to the final cover (slower;
  /// off by default).
  bool minimize = false;
  /// Ablation: when false, all constraints are lumped into a single
  /// partition (disconnected groups joined by Cartesian product).  The
  /// paper's §6.2 argues partitioning "reduces the computational cost";
  /// bench/ablation_engine quantifies that.
  bool exploit_partitions = true;
  /// Ablation: when false, intermediate join results keep every column
  /// instead of projecting down to what later steps still need.
  bool eager_projection = true;
  /// Compute independent inferred partitions on separate threads (§6.2:
  /// "we can work on different partitions in parallel").  Off by default
  /// — covers are usually dominated by one partition, and the distributed
  /// protocol already parallelizes across peers.
  bool parallel_partitions = false;
};

/// \brief Cover of one inferred partition, restricted to the endpoint
/// attributes the partition touches.
struct PartitionCover {
  InferredPartition partition;
  /// Endpoint attribute names this partition constrains, in X-then-Y
  /// order.  Empty for partitions entirely over middle attributes.
  std::vector<std::string> keep_names;
  /// Cover over keep_names (unused when keep_names is empty).
  FreeTable cover;
  /// Whether the partition's join is nonempty.  With keep_names empty
  /// this is the partition's only contribution; false anywhere makes the
  /// whole cover empty.
  bool satisfiable = true;
};

class CoverEngine {
 public:
  explicit CoverEngine(CoverEngineOptions opts = {}) : opts_(opts) {}

  /// \brief The cover of the path's constraints between X ⊆ U1 and
  /// Y ⊆ Un, as a mapping table X --m--> Y.
  Result<MappingTable> ComputeCover(const ConstraintPath& path,
                                    const std::vector<std::string>& x_names,
                                    const std::vector<std::string>& y_names)
      const;

  /// \brief The per-inferred-partition covers (the units the distributed
  /// protocol computes and streams).
  Result<std::vector<PartitionCover>> ComputePartitionCovers(
      const ConstraintPath& path, const std::vector<std::string>& x_names,
      const std::vector<std::string>& y_names) const;

  /// \brief Reassembles the full cover from per-partition covers.  Only
  /// keep_names / cover / satisfiable of each PartitionCover are used, so
  /// the distributed protocol can call this with covers it received over
  /// the network.  `x_attrs`/`y_attrs` are the endpoint attributes (with
  /// domains) the cover ranges over.  The covers are taken by value so a
  /// caller done with them can move them in: a lone cover already in X ++
  /// Y order becomes the result's storage without a copy.
  static Result<MappingTable> CombinePartitionCovers(
      std::vector<PartitionCover> covers,
      const std::vector<Attribute>& x_attrs,
      const std::vector<Attribute>& y_attrs,
      const CoverEngineOptions& opts = {});

  /// \brief §6's use of the cover for consistency: Σ is consistent iff the
  /// cover between all of U1 and all of Un is nonempty.
  Result<bool> CheckPathConsistency(const ConstraintPath& path) const;

  /// \brief Curator diagnosis of an empty cover: which inferred partition
  /// died, at which member table the running join first became empty, and
  /// what had been joined up to that point.  Condition 1 of the cover
  /// definition makes an empty cover mean "Σ is inconsistent"; this
  /// narrows the inconsistency to the responsible tables (the Figure 2
  /// situation, localized).
  struct EmptyCoverDiagnosis {
    /// False when the cover is nonempty (nothing to diagnose).
    bool cover_is_empty = false;
    size_t partition_index = 0;
    /// Name of the member table whose join emptied the accumulator ("":
    /// a keep-side partition produced rows but none survived projection).
    std::string emptied_at_table;
    /// Member names joined before the failure, in join order.
    std::vector<std::string> joined_before;
  };

  Result<EmptyCoverDiagnosis> ExplainEmptyCover(
      const ConstraintPath& path, const std::vector<std::string>& x_names,
      const std::vector<std::string>& y_names) const;

  /// \brief Incremental maintenance (the paper's §9 future work: peers
  /// that keep their tables fresh as acquaintances change).  Given the
  /// cover already computed for `path` and a set of rows newly ADDED to
  /// the table of constraint `hop`/`index`, returns the rows to union
  /// into the cover.  Exact because ext distributes over row union:
  /// cover(T ∪ Δ) = cover(T) ∪ cover(T with the changed table replaced
  /// by Δ).  Cost is proportional to |Δ| times the other tables, not to
  /// recomputing from scratch.  Row DELETIONS do not distribute — use
  /// ComputeCover for those.
  Result<MappingTable> CoverDeltaForAddedRows(
      const ConstraintPath& path, size_t hop, size_t index,
      const std::vector<Mapping>& added_rows,
      const std::vector<std::string>& x_names,
      const std::vector<std::string>& y_names) const;

 private:
  CoverEngineOptions opts_;
};

}  // namespace hyperion

#endif  // HYPERION_CORE_COVER_ENGINE_H_
