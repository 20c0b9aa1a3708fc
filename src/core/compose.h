// The relational algebra of free-tuple tables (free_table.h): natural join,
// projection and Cartesian product.  These three operations implement the
// cover computation of §6: the cover of a conjunction of mapping
// constraints is the projection of the natural join of their tables onto
// the endpoint attributes.
//
// ext(table) = ⋃ over rows of ext(row) (rows are variable-disjoint), and
// join/projection distribute over that union, so row-pairwise unification
// (see unify.h) computes exact results.

#ifndef HYPERION_CORE_COMPOSE_H_
#define HYPERION_CORE_COMPOSE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/constraint.h"
#include "core/free_table.h"
#include "core/mapping.h"
#include "core/mapping_table.h"
#include "core/schema.h"

namespace hyperion {

/// \brief The natural-join kernel: a hash index over the rows of a left
/// table, keyed on the attributes that table shares with a right schema.
///
/// Build it once and join it with any number of right-hand row batches —
/// the streaming join of §6, where a peer's local table meets the rows
/// arriving hop by hop.  Left rows whose shared cells are all constants
/// are grouped by key; a right row with a ground key meets one group plus
/// the left rows with variables in shared positions, so a batch costs
/// O(batch + output) rather than O(|left|).  (A right row with a variable
/// in a shared position pairs with every left row, as it must.)
class JoinIndex {
 public:
  /// \brief Indexes `left`; fails when `left` and `right` share no
  /// attribute.
  static Result<JoinIndex> Build(const FreeTable& left, const Schema& right);

  /// \brief Output schema: the left schema followed by the right
  /// schema's non-shared attributes.
  const Schema& schema() const { return out_schema_; }
  /// \brief The right schema the index was built for.
  const Schema& right_schema() const { return right_schema_; }

  /// \brief Joins `right` (rows over right_schema()) with `left`, which
  /// must be the table the index was built over, unchanged since.  Calls
  /// `emit` with every joined row — normalized and satisfiable — and the
  /// position of the left row it came from, in the order
  /// left.NaturalJoin(right) lists the rows, but without removing
  /// duplicates.  Stops at the first error `emit` returns.
  Status Join(const FreeTable& left, const std::vector<Mapping>& right,
              const std::function<Status(size_t, Mapping)>& emit) const;

 private:
  JoinIndex() = default;

  static constexpr uint32_t kNoGroup = UINT32_MAX;

  // Hash of the values in `row`'s shared cells (at the left or the right
  // positions), or nullopt when one of those cells is a variable.
  std::optional<size_t> KeyHash(const Mapping& row, bool left_side) const;
  // Whether left row `a` and row `b` (a left row when `b_left_side`, else
  // a right row) hold the same constants in the shared cells.
  bool SameKey(const Mapping& a, const Mapping& b, bool b_left_side) const;
  // Group of the left rows whose key equals right row `row`'s (its key
  // hash is `hash`), or kNoGroup.
  uint32_t FindGroup(const FreeTable& left, const Mapping& row,
                     size_t hash) const;
  // Unifies left row `a` with right row `b` on the shared attributes;
  // nullopt when they do not join.
  std::optional<Mapping> JoinPair(const FreeTable& left, const Mapping& a,
                                  const Mapping& b) const;

  Schema right_schema_;
  Schema out_schema_;
  std::vector<std::pair<size_t, size_t>> shared_;  // (left pos, right pos)
  std::vector<size_t> right_private_;  // right positions not shared
  // Left rows with ground keys, grouped by key: group g holds
  // group_rows_[group_begin_[g] .. group_begin_[g + 1]), ascending.
  std::vector<uint32_t> group_rows_;
  std::vector<size_t> group_begin_;
  std::vector<std::pair<size_t, uint32_t>> group_hashes_;  // sorted (hash, g)
  std::vector<uint32_t> group_of_;  // per left row: its group or kNoGroup
  std::vector<uint32_t> variable_rows_;  // left rows with variable keys
};

/// \brief Projection onto a list of attributes, one row at a time, so a
/// caller can project rows as they are produced instead of collecting them
/// first.
class RowProjector {
 public:
  /// \brief Fails when a name is not in `from`.
  static Result<RowProjector> Create(const Schema& from,
                                     const std::vector<std::string>& names);

  /// \brief Schema of the projected rows.
  const Schema& schema() const { return schema_; }

  /// \brief Adds the projection of `row` (a satisfiable, normalized row
  /// over the `from` schema) to `out` (over schema()), deduplicating
  /// against the rows already there.  The rows newly added are also
  /// appended to `added` when it is not null.  Fails when `out` would
  /// reach opts.max_result_rows or a class materialization exceeds
  /// opts.materialize_limit.
  Status Project(const Mapping& row, FreeTable* out,
                 std::vector<Mapping>* added,
                 const ComposeOptions& opts) const;

 private:
  RowProjector() = default;

  Schema from_;
  Schema schema_;
  std::vector<size_t> keep_;
  std::vector<bool> kept_;
};

/// \brief NaturalJoin when the schemas overlap, CartesianProduct when they
/// are disjoint.  Convenience for joining the members of a partition in an
/// arbitrary order.
Result<FreeTable> JoinOrProduct(const FreeTable& a, const FreeTable& b,
                                const ComposeOptions& opts = {});

/// \brief Semi-join reduction: the rows of `table` that can unify with at
/// least one row of `reducer` on their shared attributes — exactly the
/// rows that can contribute to table ⋈ reducer.  Classic distributed-join
/// preprocessing: reducing tables before the expensive join (or before
/// shipping them) never changes the join result, proven by the oracle
/// tests.  Runs the JoinIndex kernel over `table`.
Result<FreeTable> SemiJoinReduce(const FreeTable& table,
                                 const FreeTable& reducer);

/// \brief One step of cover computation: composes a: X --ma--> Y with
/// b: Y' --mb--> Z into the cover X --m--> Z of {a, b}, joining on every
/// attribute a's and b's schemas share and projecting onto X ∪ Z.
///
/// Requires a's and b's schemas to overlap (otherwise there is nothing to
/// compose — use CartesianProduct) and X ∪ Z to be nonempty on both sides.
Result<MappingTable> ComposeConstraints(const MappingConstraint& a,
                                        const MappingConstraint& b,
                                        const ComposeOptions& opts = {});

}  // namespace hyperion

#endif  // HYPERION_CORE_COMPOSE_H_
