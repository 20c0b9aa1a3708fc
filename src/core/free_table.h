// FreeTable: a set of free tuples over one schema, stored once.  It is the
// row storage of MappingTable and the operand and result type of the
// relational algebra in compose.h (natural join, projection, product).

#ifndef HYPERION_CORE_FREE_TABLE_H_
#define HYPERION_CORE_FREE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/mapping.h"
#include "core/schema.h"

namespace hyperion {

class MappingTable;

/// \brief Tuning knobs for free-table operations.
struct ComposeOptions {
  /// Projection of a variable class with a finite domain on a dropped
  /// position must enumerate ("materialize") the class; this bounds how
  /// many values a single class may expand to.
  size_t materialize_limit = 4096;
  /// Hard cap on the number of rows any single result may hold (fail with
  /// InvalidArgument instead of exhausting memory; combined covers are
  /// Cartesian products of per-partition covers and can explode).
  size_t max_result_rows = 2'000'000;
};

/// \brief A set of free tuples over one schema — a mapping table without
/// the X|Y split.  Intermediate results of cover computation live here.
///
/// Every row is stored once, normalized and satisfiable; duplicates are
/// found through an open-addressing hash index of positions into the row
/// vector.
class FreeTable {
 public:
  FreeTable() = default;
  explicit FreeTable(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::vector<Mapping>& rows() const { return rows_; }

  /// \brief Adds `row` (normalized, deduplicated).  Unsatisfiable rows are
  /// silently dropped — they denote the empty set.  Returns whether the
  /// row was actually inserted (false for duplicates and empty rows).
  bool AddRow(Mapping row);

  /// \brief Whether a row equal to `row` up to variable renaming is here.
  bool ContainsRow(const Mapping& row) const;

  /// \brief Whether a valuation makes some row match the ground tuple.
  bool MatchesGround(const Tuple& t) const;

  /// \brief A copy of the table's own rows (MappingTable::AddRow already
  /// normalized, checked and deduplicated them).  Callers that only read
  /// should use table.free_table() instead.
  static FreeTable FromMappingTable(const MappingTable& table);

  /// \brief Same, for `rows` drawn from `table.rows()` (a filtered subset,
  /// in any order, each row at most once).
  static FreeTable FromMappingTable(const MappingTable& table,
                                    std::vector<Mapping> rows);

  /// \brief Splits the schema into the `x_names` attributes and the rest
  /// to produce a mapping table.  Fails when a name is missing or when
  /// either side would be empty.  Rows are reordered to X ++ Y.  The
  /// rvalue form hands this table's storage to the mapping table without
  /// re-adding a row when the columns are already in X ++ Y order.
  Result<MappingTable> ToMappingTable(const std::vector<std::string>& x_names,
                                      std::string name = "") const&;
  Result<MappingTable> ToMappingTable(const std::vector<std::string>& x_names,
                                      std::string name = "") &&;

  /// \brief Natural join on attributes shared by name.  The output schema
  /// is this schema followed by `other`'s non-shared attributes.  The two
  /// schemas must agree on shared attributes' domains by name.  Runs the
  /// JoinIndex kernel: this table is indexed, `other`'s rows probe it.
  Result<FreeTable> NaturalJoin(const FreeTable& other,
                                const ComposeOptions& opts = {}) const;

  /// \brief Projection onto `names` (in that order).  Exact: variable
  /// classes spanning kept and dropped positions keep their accumulated
  /// exclusions, and classes restricted by finite domains on dropped
  /// positions are materialized.  See RowProjector.
  Result<FreeTable> ProjectOnto(const std::vector<std::string>& names,
                                const ComposeOptions& opts = {}) const;

  /// \brief Cartesian product; schemas must be disjoint.
  Result<FreeTable> CartesianProduct(const FreeTable& other,
                                     const ComposeOptions& opts = {}) const;

  /// \brief Whether ext(table) is nonempty.  Rows are satisfiable by
  /// construction, so this is just non-emptiness.
  bool IsSatisfiable() const { return !rows_.empty(); }

  /// \brief Brute-force extension for finite domains (test oracle).
  Result<std::vector<Tuple>> EnumerateExtension(size_t limit = 100000) const;

  std::string ToString() const;

 private:
  friend class MappingTable;
  friend class RowProjector;

  // A table over `schema` holding `rows`, which must be normalized,
  // satisfiable and pairwise distinct: they are hashed and indexed, not
  // checked.
  static FreeTable Adopt(Schema schema, std::vector<Mapping> rows);
  // Adds `row`, which must already be normalized and satisfiable over
  // schema_, unless an equal row is present.  Returns whether it was added.
  bool InsertNormalized(Mapping row);
  // Position in rows_ of the row equal to normalized `row` (whose
  // Mapping::Hash is `hash`), or rows_.size() when absent.
  size_t Find(const Mapping& row, size_t hash) const;
  // Slot of slots_ where probing for `hash` starts.
  size_t HomeSlot(size_t hash) const;
  // Rebuilds slots_ with room for at least twice the rows.
  void Grow();

  Schema schema_;
  std::vector<Mapping> rows_;
  std::vector<size_t> hashes_;   // Mapping::Hash() of rows_[i]
  std::vector<uint32_t> slots_;  // row position + 1; 0 marks an empty slot
  uint32_t slot_shift_ = 64;     // 64 - log2(slots_.size())
};

}  // namespace hyperion

#endif  // HYPERION_CORE_FREE_TABLE_H_
