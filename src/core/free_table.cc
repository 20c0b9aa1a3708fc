#include "core/free_table.h"

#include <bit>
#include <cassert>
#include <sstream>
#include <unordered_set>

#include "core/mapping_table.h"

namespace hyperion {

bool FreeTable::AddRow(Mapping row) {
  assert(row.arity() == schema_.arity());
  Mapping normalized = row.IsNormalized() ? std::move(row) : row.Normalized();
  if (!normalized.IsSatisfiable(schema_)) return false;
  return InsertNormalized(std::move(normalized));
}

bool FreeTable::ContainsRow(const Mapping& row) const {
  Mapping normalized = row.Normalized();
  return Find(normalized, normalized.Hash()) != rows_.size();
}

bool FreeTable::InsertNormalized(Mapping row) {
  assert(row.IsNormalized());
  size_t hash = row.Hash();
  if (Find(row, hash) != rows_.size()) return false;
  assert(rows_.size() < UINT32_MAX);
  if (2 * (rows_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t slot = HomeSlot(hash);
  while (slots_[slot] != 0) slot = (slot + 1) & mask;
  slots_[slot] = static_cast<uint32_t>(rows_.size() + 1);
  rows_.push_back(std::move(row));
  hashes_.push_back(hash);
  return true;
}

size_t FreeTable::Find(const Mapping& row, size_t hash) const {
  if (slots_.empty()) return rows_.size();
  const size_t mask = slots_.size() - 1;
  for (size_t slot = HomeSlot(hash); slots_[slot] != 0;
       slot = (slot + 1) & mask) {
    size_t pos = slots_[slot] - 1;
    if (hashes_[pos] == hash && rows_[pos] == row) return pos;
  }
  return rows_.size();
}

size_t FreeTable::HomeSlot(size_t hash) const {
  // Fibonacci hashing: the multiply spreads Mapping::Hash's low-entropy
  // bits into the high bits the shift keeps.
  return static_cast<size_t>((uint64_t{hash} * 0x9e3779b97f4a7c15ull) >>
                             slot_shift_);
}

void FreeTable::Grow() {
  size_t capacity = 16;
  while (capacity < 2 * (rows_.size() + 1)) capacity *= 2;
  slots_.assign(capacity, 0);
  slot_shift_ = 64 - static_cast<uint32_t>(std::countr_zero(capacity));
  const size_t mask = capacity - 1;
  for (size_t pos = 0; pos < rows_.size(); ++pos) {
    size_t slot = HomeSlot(hashes_[pos]);
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(pos + 1);
  }
}

bool FreeTable::MatchesGround(const Tuple& t) const {
  for (const Mapping& row : rows_) {
    if (row.MatchesGround(t, schema_)) return true;
  }
  return false;
}

FreeTable FreeTable::Adopt(Schema schema, std::vector<Mapping> rows) {
  FreeTable out(std::move(schema));
  out.rows_ = std::move(rows);
  out.hashes_.reserve(out.rows_.size());
  for (const Mapping& row : out.rows_) {
    assert(row.IsNormalized() && row.IsSatisfiable(out.schema_));
    out.hashes_.push_back(row.Hash());
  }
  out.Grow();
  return out;
}

FreeTable FreeTable::FromMappingTable(const MappingTable& table) {
  return table.free_table();
}

FreeTable FreeTable::FromMappingTable(const MappingTable& table,
                                      std::vector<Mapping> rows) {
#ifndef NDEBUG
  for (const Mapping& row : rows) assert(table.ContainsRow(row));
#endif
  return Adopt(table.schema(), std::move(rows));
}

Result<MappingTable> FreeTable::ToMappingTable(
    const std::vector<std::string>& x_names, std::string name) const& {
  return FreeTable(*this).ToMappingTable(x_names, std::move(name));
}

Result<MappingTable> FreeTable::ToMappingTable(
    const std::vector<std::string>& x_names, std::string name) && {
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> order,
                       schema_.PositionsOf(x_names));
  const size_t x_arity = order.size();
  std::vector<bool> is_x(schema_.arity(), false);
  for (size_t p : order) is_x[p] = true;
  for (size_t i = 0; i < schema_.arity(); ++i) {
    if (!is_x[i]) order.push_back(i);
  }
  bool reordered = false;
  for (size_t i = 0; i < order.size(); ++i) reordered |= order[i] != i;
  if (reordered) {
    // Moving columns can change the order in which variables first
    // occur, so rows with variables may need renumbering; ground rows
    // never do.  Distinct rows stay distinct: the reordering is a
    // bijection.
    std::vector<Mapping> rows;
    rows.reserve(rows_.size());
    for (const Mapping& row : rows_) {
      Mapping moved = row.Project(order);
      rows.push_back(moved.IsNormalized() ? std::move(moved)
                                         : moved.Normalized());
    }
    *this = Adopt(schema_.Project(order), std::move(rows));
  }
  return MappingTable::Adopt(std::move(*this), x_arity, std::move(name));
}

Result<std::vector<Tuple>> FreeTable::EnumerateExtension(size_t limit) const {
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> out;
  for (const Mapping& row : rows_) {
    HYP_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                         row.EnumerateExtension(schema_, limit));
    for (Tuple& t : tuples) {
      if (out.size() >= limit) {
        return Status::InvalidArgument("extension exceeds enumeration limit");
      }
      if (seen.insert(t).second) out.push_back(std::move(t));
    }
  }
  return out;
}

std::string FreeTable::ToString() const {
  std::ostringstream os;
  os << "FreeTable " << schema_.ToString() << " [" << rows_.size()
     << " rows]\n";
  size_t shown = 0;
  for (const Mapping& row : rows_) {
    if (shown++ >= 20) {
      os << "  ... (" << rows_.size() - 20 << " more)\n";
      break;
    }
    os << "  " << row.ToString() << "\n";
  }
  return os.str();
}

}  // namespace hyperion
