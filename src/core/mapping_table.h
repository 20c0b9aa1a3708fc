// MappingTable: a finite set of mappings from X to Y (Definition 2).
//
// The table's schema is the concatenation X ++ Y; x_arity() marks the split
// (the "double line" in the paper's figures).  Variables are scoped to a
// single row, which realizes the paper's restriction that each variable
// appears in at most one mapping: rows are independent by construction.
//
// Each row is stored once, in a FreeTable over X ++ Y that also finds
// duplicates.  Lookups by a ground X value go through a flat index over
// the rows whose X cells are all constants.

#ifndef HYPERION_CORE_MAPPING_TABLE_H_
#define HYPERION_CORE_MAPPING_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/free_table.h"
#include "core/mapping.h"
#include "core/schema.h"
#include "core/tuple.h"

namespace hyperion {

/// \brief A mapping table from attribute list X to attribute list Y.
class MappingTable {
 public:
  MappingTable() = default;

  /// \brief Creates an empty table; X and Y must be nonempty and disjoint.
  static Result<MappingTable> Create(Schema x_schema, Schema y_schema,
                                     std::string name = "");

  /// \brief Takes over `rows`, whose first `x_arity` columns are X and the
  /// rest Y, without re-adding a row: a FreeTable's rows are already
  /// normalized, satisfiable and deduplicated.  Fails as Create does, and
  /// as AddRow would on a row whose exclusion values have the wrong type.
  static Result<MappingTable> Adopt(FreeTable rows, size_t x_arity,
                                    std::string name = "");

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// \brief Combined schema (X attributes first, then Y attributes).
  const Schema& schema() const { return rows_.schema(); }
  const Schema& x_schema() const { return x_schema_; }
  const Schema& y_schema() const { return y_schema_; }
  size_t x_arity() const { return x_schema_.arity(); }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::vector<Mapping>& rows() const { return rows_.rows(); }
  /// \brief The rows as a free table over schema(): the table's own
  /// storage, for joining without a copy.
  const FreeTable& free_table() const { return rows_; }

  /// \brief Adds a row (validated, normalized, deduplicated).
  ///
  /// Validation: arity matches; constants and exclusion-set values lie in
  /// the attribute domains; the row is satisfiable.
  Status AddRow(Mapping row);

  /// \brief Adds the all-constant row (x, y).
  Status AddPair(const Tuple& x, const Tuple& y);

  /// \brief Whether an identical row (up to variable renaming) exists.
  bool ContainsRow(const Mapping& row) const;

  /// \brief Definition 7: whether `t` (over the combined schema) satisfies
  /// the constraint this table induces, i.e., t[Y] ∈ Y_m(t[X]).
  bool SatisfiesTuple(const Tuple& t) const;

  /// \brief Y_m(x) restricted to enumerable cases: the set of Y-tuples the
  /// ground X-tuple `x` may map to.  Fails when the set is infinite
  /// (a variable over an infinite domain reaches the Y side).
  Result<std::vector<Tuple>> YmGround(const Tuple& x,
                                      size_t limit = 100000) const;

  /// \brief Whether Y_m(x) is nonempty for the ground X-tuple `x`.
  bool XValueHasImage(const Tuple& x) const;

  /// \brief ext(m) (§6): every ground tuple permitted by some row.  Only
  /// for finite domains / test oracles.
  Result<std::vector<Tuple>> EnumerateExtension(size_t limit = 100000) const;

  /// \brief Whether ext(m) is nonempty (some row satisfiable).
  bool IsSatisfiable() const;

  /// \brief Filters a Cartesian product r × r' to the tuples this table
  /// permits, as in §4.1 / Figure 4.  `combined` must contain all of X ∪ Y.
  Result<Relation> FilterRelation(const Relation& combined) const;

  /// \brief Text serialization (see mapping_table.cc for the grammar).
  std::string Serialize() const;
  static Result<MappingTable> Parse(std::string_view text);

  std::string ToString() const;

  /// \brief Descriptive statistics for curators and tooling.
  struct Stats {
    size_t rows = 0;
    size_t ground_rows = 0;
    size_t variable_rows = 0;
    size_t distinct_ground_x = 0;  // distinct ground X-projections
    size_t max_fanout = 0;         // largest |rows| sharing one ground X
    double avg_fanout = 0;         // rows per distinct ground X
    size_t total_exclusion_values = 0;  // Σ |S| over all v−S cells
  };
  Stats Describe() const;

  /// \brief The shape of the recorded association (§2 stresses that
  /// mapping tables "are not necessarily functions" and can be
  /// many-to-many, e.g. through identifier aliases).
  enum class MappingShape {
    kOneToOne,    // both directions functional
    kOneToMany,   // an X value maps to several Y values
    kManyToOne,   // several X values map to one Y value
    kManyToMany,  // both
  };
  /// \brief Classifies the GROUND rows; variable rows relate unboundedly
  /// many values, so any table containing one classifies as many-to-many
  /// unless its variable rows are all identity-shaped (every Y cell's
  /// variable also appears in X, making the row functional both ways).
  MappingShape Classify() const;

  static const char* MappingShapeToString(MappingShape shape);

 private:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  // One distinct ground X value: the first and last row holding it
  // (rows are chained in ascending order through x_next_) and its X-key
  // hash.  first == kNoRow marks an empty slot.
  struct XSlot {
    uint32_t first = kNoRow;
    uint32_t last = kNoRow;
    size_t hash = 0;
  };

  // The checks AddRow makes before normalizing: arity, constants inside
  // their domains, exclusion values of the attribute's type.
  Status CheckCells(const Mapping& row) const;

  // Binds the X cells of `row` against ground `x`; returns the residual
  // Y-part mapping (bound variables substituted) or nullopt on mismatch.
  std::optional<Mapping> BindX(const Mapping& row, const Tuple& x) const;

  // Files row `row_idx` under its ground X value, or with the variable-X
  // rows.
  void IndexRow(size_t row_idx);
  // Slot of x_slots_ holding the ground X value whose X-key hash is
  // `hash` and for which `same_x(first row holding it)` is true, or the
  // empty slot where that value would go.
  template <typename SameX>
  size_t FindXSlot(size_t hash, SameX same_x) const;
  // Rebuilds x_slots_ with room for at least twice the distinct X values.
  void GrowXIndex();
  // Calls `visit(row)` for every row that may bind the ground X values
  // x[0 .. x_arity()): the rows holding exactly those values, in order,
  // then the variable-X rows.  Stops at, and returns true for, the first
  // row for which `visit` returns true.
  template <typename Visit>
  bool ForEachCandidate(const Value* x, Visit visit) const;

  std::string name_;
  Schema x_schema_;
  Schema y_schema_;
  FreeTable rows_;  // over X ++ Y
  // Ground-X index: open addressing on the X-key hash, no per-key node.
  std::vector<XSlot> x_slots_;
  std::vector<uint32_t> x_next_;  // per row: next row with its X, or kNoRow
  size_t distinct_ground_x_ = 0;
  uint32_t x_slot_shift_ = 64;    // 64 - log2(x_slots_.size())
  // Rows with at least one variable in the X part (checked linearly).
  std::vector<uint32_t> variable_x_rows_;
};

}  // namespace hyperion

#endif  // HYPERION_CORE_MAPPING_TABLE_H_
