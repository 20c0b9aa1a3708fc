#include "core/compose.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/hash_util.h"
#include "core/unify.h"

namespace hyperion {

namespace {

// Highest variable id used by `m`, plus one (0 when ground).
VarId VarSpan(const Mapping& m) {
  VarId span = 0;
  for (const Cell& c : m.cells()) {
    if (c.is_variable()) span = std::max(span, c.var() + 1);
  }
  return span;
}

// Registers every variable occurrence of `m` (positioned in `schema`,
// with var ids shifted by `offset`) into `u`.
void RegisterOccurrences(const Mapping& m, const Schema& schema,
                         VarId offset, Unifier* u) {
  for (size_t i = 0; i < m.arity(); ++i) {
    const Cell& c = m.cell(i);
    if (c.is_variable()) {
      u->AddOccurrence(c.var() + offset, schema.attr(i).domain().get(),
                       c.exclusions_ptr());
    }
  }
}

// Resolves `cell` (with var ids shifted by `offset`) through the unifier:
// constants pass through, constant-bound classes become constants, live
// classes get a dense output var id carrying the class exclusions.
Cell ResolveCell(const Cell& cell, VarId offset, Unifier* u,
                 std::unordered_map<VarId, VarId>* out_vars) {
  if (cell.is_constant()) return cell;
  VarId shifted = cell.var() + offset;
  if (auto constant = u->ConstantOf(shifted)) {
    return Cell::Constant(*constant);
  }
  VarId root = u->Find(shifted);
  auto [it, inserted] =
      out_vars->emplace(root, static_cast<VarId>(out_vars->size()));
  (void)inserted;
  return Cell::Variable(it->second, u->MergedExclusionsOf(shifted));
}

}  // namespace

Result<FreeTable> FreeTable::NaturalJoin(const FreeTable& other,
                                         const ComposeOptions& opts) const {
  HYP_ASSIGN_OR_RETURN(JoinIndex index, JoinIndex::Build(*this, other.schema_));
  FreeTable out(index.schema());
  HYP_RETURN_IF_ERROR(
      index.Join(*this, other.rows_, [&](size_t, Mapping row) -> Status {
        out.InsertNormalized(std::move(row));
        if (out.size() > opts.max_result_rows) {
          return Status::InvalidArgument(
              "NaturalJoin: result exceeds max rows");
        }
        return Status::OK();
      }));
  return out;
}

// ---------------------------------------------------------------------------
// JoinIndex
// ---------------------------------------------------------------------------

Result<JoinIndex> JoinIndex::Build(const FreeTable& left,
                                   const Schema& right) {
  const Schema& left_schema = left.schema();
  JoinIndex index;
  for (size_t j = 0; j < right.arity(); ++j) {
    auto here = left_schema.IndexOf(right.attr(j).name());
    if (here) {
      index.shared_.emplace_back(*here, j);
    } else {
      index.right_private_.push_back(j);
    }
  }
  if (index.shared_.empty()) {
    return Status::InvalidArgument(
        "JoinIndex: schemas " + left_schema.ToString() + " and " +
        right.ToString() + " share no attributes");
  }
  index.right_schema_ = right;
  index.out_schema_ = left_schema;
  if (!index.right_private_.empty()) {
    HYP_ASSIGN_OR_RETURN(
        index.out_schema_,
        left_schema.Concat(right.Project(index.right_private_)));
  }

  // Group the ground-keyed left rows by key: sort by (key hash, row), then
  // split each run of equal hashes into runs of equal keys.
  const std::vector<Mapping>& rows = left.rows();
  index.group_of_.assign(rows.size(), kNoGroup);
  std::vector<std::pair<size_t, uint32_t>> keyed;
  keyed.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (auto hash = index.KeyHash(rows[r], /*left_side=*/true)) {
      keyed.emplace_back(*hash, static_cast<uint32_t>(r));
    } else {
      index.variable_rows_.push_back(static_cast<uint32_t>(r));
    }
  }
  std::sort(keyed.begin(), keyed.end());
  index.group_rows_.reserve(keyed.size());
  for (size_t begin = 0; begin < keyed.size();) {
    size_t end = begin;
    while (end < keyed.size() && keyed[end].first == keyed[begin].first) {
      ++end;
    }
    for (size_t k = begin; k < end; ++k) {
      uint32_t first = keyed[k].second;
      if (index.group_of_[first] != kNoGroup) continue;
      uint32_t g = static_cast<uint32_t>(index.group_begin_.size());
      index.group_begin_.push_back(index.group_rows_.size());
      index.group_hashes_.emplace_back(keyed[k].first, g);
      for (size_t m = k; m < end; ++m) {
        uint32_t r = keyed[m].second;
        if (index.group_of_[r] == kNoGroup &&
            index.SameKey(rows[first], rows[r], /*left_side=*/true)) {
          index.group_of_[r] = g;
          index.group_rows_.push_back(r);
        }
      }
    }
    begin = end;
  }
  index.group_begin_.push_back(index.group_rows_.size());
  return index;
}

std::optional<size_t> JoinIndex::KeyHash(const Mapping& row,
                                         bool left_side) const {
  size_t seed = 0;
  for (const auto& [pi, pj] : shared_) {
    const Cell& c = row.cell(left_side ? pi : pj);
    if (!c.is_constant()) return std::nullopt;
    HashCombine(&seed, c.value());
  }
  return seed;
}

bool JoinIndex::SameKey(const Mapping& a, const Mapping& b,
                        bool b_left_side) const {
  for (const auto& [pi, pj] : shared_) {
    if (!(a.cell(pi).value() == b.cell(b_left_side ? pi : pj).value())) {
      return false;
    }
  }
  return true;
}

uint32_t JoinIndex::FindGroup(const FreeTable& left, const Mapping& row,
                              size_t hash) const {
  auto it = std::lower_bound(group_hashes_.begin(), group_hashes_.end(),
                             std::make_pair(hash, uint32_t{0}));
  for (; it != group_hashes_.end() && it->first == hash; ++it) {
    const Mapping& first = left.rows()[group_rows_[group_begin_[it->second]]];
    if (SameKey(first, row, /*b_left_side=*/false)) return it->second;
  }
  return kNoGroup;
}

std::optional<Mapping> JoinIndex::JoinPair(const FreeTable& left,
                                           const Mapping& a,
                                           const Mapping& b) const {
  VarId offset = VarSpan(a);
  Unifier u;
  RegisterOccurrences(a, left.schema(), /*offset=*/0, &u);
  RegisterOccurrences(b, right_schema_, offset, &u);
  for (const auto& [pi, pj] : shared_) {
    Cell bc = b.cell(pj);
    if (bc.is_variable()) {
      bc = Cell::Variable(bc.var() + offset, bc.exclusions_ptr());
    }
    u.UnifyCells(a.cell(pi), bc);
    if (u.failed()) return std::nullopt;
  }
  if (!u.Satisfiable()) return std::nullopt;
  // Output variables are numbered by first occurrence, so the row comes
  // out normalized; u.Satisfiable() covers every class over all of its
  // occurrences, so the row is satisfiable over the output schema.
  std::unordered_map<VarId, VarId> out_vars;
  std::vector<Cell> cells;
  cells.reserve(out_schema_.arity());
  for (size_t i = 0; i < a.arity(); ++i) {
    cells.push_back(ResolveCell(a.cell(i), 0, &u, &out_vars));
  }
  for (size_t pj : right_private_) {
    cells.push_back(ResolveCell(b.cell(pj), offset, &u, &out_vars));
  }
  return Mapping(std::move(cells));
}

Status JoinIndex::Join(
    const FreeTable& left, const std::vector<Mapping>& right,
    const std::function<Status(size_t, Mapping)>& emit) const {
  assert(group_of_.size() == left.size());
  if (left.empty() || right.empty()) return Status::OK();

  // Right rows with ground keys meet their key's group (hits, sorted by
  // group, then row); right rows with variable keys meet every left row.
  std::vector<std::pair<uint32_t, uint32_t>> hits;
  std::vector<uint32_t> right_variable;
  for (size_t j = 0; j < right.size(); ++j) {
    auto hash = KeyHash(right[j], /*left_side=*/false);
    if (!hash) {
      right_variable.push_back(static_cast<uint32_t>(j));
      continue;
    }
    uint32_t g = FindGroup(left, right[j], *hash);
    if (g != kNoGroup) hits.emplace_back(g, static_cast<uint32_t>(j));
  }
  std::sort(hits.begin(), hits.end());

  // The left rows that can join anything, ascending, each with its range
  // of hits.  Left-major order is NaturalJoin's output order.
  struct Candidate {
    uint32_t left;
    size_t hits_begin;
    size_t hits_end;
  };
  std::vector<Candidate> candidates;
  auto for_each_hit_run = [&](auto visit) {
    for (size_t begin = 0; begin < hits.size();) {
      size_t end = begin;
      while (end < hits.size() && hits[end].first == hits[begin].first) ++end;
      visit(hits[begin].first, begin, end);
      begin = end;
    }
  };
  if (right_variable.empty()) {
    for_each_hit_run([&](uint32_t g, size_t begin, size_t end) {
      for (size_t k = group_begin_[g]; k < group_begin_[g + 1]; ++k) {
        candidates.push_back({group_rows_[k], begin, end});
      }
    });
    for (uint32_t r : variable_rows_) candidates.push_back({r, 0, 0});
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                return x.left < y.left;
              });
  } else {
    std::vector<std::pair<size_t, size_t>> runs(group_begin_.size() - 1);
    for_each_hit_run([&](uint32_t g, size_t begin, size_t end) {
      runs[g] = {begin, end};
    });
    candidates.reserve(left.size());
    for (uint32_t r = 0; r < left.size(); ++r) {
      if (group_of_[r] == kNoGroup) {
        candidates.push_back({r, 0, 0});
      } else {
        const auto& [begin, end] = runs[group_of_[r]];
        candidates.push_back({r, begin, end});
      }
    }
  }

  for (const Candidate& c : candidates) {
    const Mapping& a = left.rows()[c.left];
    auto join_pair = [&](const Mapping& b) -> Status {
      std::optional<Mapping> row = JoinPair(left, a, b);
      return row ? emit(c.left, std::move(*row)) : Status::OK();
    };
    if (group_of_[c.left] == kNoGroup) {
      for (const Mapping& b : right) HYP_RETURN_IF_ERROR(join_pair(b));
      continue;
    }
    for (size_t k = c.hits_begin; k < c.hits_end; ++k) {
      HYP_RETURN_IF_ERROR(join_pair(right[hits[k].second]));
    }
    for (uint32_t j : right_variable) {
      HYP_RETURN_IF_ERROR(join_pair(right[j]));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

namespace {

// State for exact projection of one row: classes that need materialization
// are expanded value-by-value.
struct ClassPlan {
  std::vector<size_t> kept_positions;   // positions of the class we keep
  std::vector<Value> values;            // nonempty => materialize
  std::set<Value> exclusions;           // class-combined exclusion set
};

}  // namespace

Result<RowProjector> RowProjector::Create(
    const Schema& from, const std::vector<std::string>& names) {
  RowProjector projector;
  HYP_ASSIGN_OR_RETURN(projector.keep_, from.PositionsOf(names));
  projector.kept_.assign(from.arity(), false);
  for (size_t p : projector.keep_) projector.kept_[p] = true;
  projector.from_ = from;
  projector.schema_ = from.Project(projector.keep_);
  return projector;
}

Status RowProjector::Project(const Mapping& row, FreeTable* out,
                             std::vector<Mapping>* added,
                             const ComposeOptions& opts) const {
  std::vector<ClassPlan> plans;
  for (const auto& [var, positions] : row.VariableClasses()) {
    (void)var;
    ClassPlan plan;
    std::vector<const Domain*> domains;
    bool dropped_finite = false;
    for (size_t p : positions) {
      domains.push_back(from_.attr(p).domain().get());
      const auto& ex = row.cell(p).exclusions();
      plan.exclusions.insert(ex.begin(), ex.end());
      if (kept_[p]) {
        plan.kept_positions.push_back(p);
      } else if (from_.attr(p).domain()->is_finite()) {
        dropped_finite = true;
      }
    }
    if (plan.kept_positions.empty()) {
      // Class disappears: rows are satisfiable, so the class has a value;
      // nothing to do.
      continue;
    }
    if (dropped_finite) {
      // Enumerate the admissible values of the class (finite because some
      // occurrence domain is finite).
      const Domain* finite = nullptr;
      for (const Domain* d : domains) {
        if (d->is_finite() &&
            (finite == nullptr || d->size() < finite->size())) {
          finite = d;
        }
      }
      assert(finite != nullptr);
      for (const Value& v : finite->values()) {
        if (plan.exclusions.count(v)) continue;
        bool in_all = true;
        for (const Domain* d : domains) {
          if (!d->Contains(v)) {
            in_all = false;
            break;
          }
        }
        if (in_all) plan.values.push_back(v);
      }
      if (plan.values.size() > opts.materialize_limit) {
        return Status::InvalidArgument(
            "ProjectOnto: class materialization exceeds limit");
      }
      if (plan.values.empty()) return Status::OK();  // class has no value
    }
    plans.push_back(std::move(plan));
  }

  // Class of each kept variable, for the emit step below.
  std::unordered_map<VarId, size_t> class_of_var;
  for (size_t ci = 0; ci < plans.size(); ++ci) {
    for (size_t p : plans[ci].kept_positions) {
      class_of_var[row.cell(p).var()] = ci;
    }
  }
  // Emits one output row per choice of values for the materialized
  // classes: kept constants pass through; variable cells take either the
  // chosen value or a class variable with merged exclusions.  Output
  // variables are numbered by first occurrence (the row is normalized)
  // and every class keeps an admissible value (the row is satisfiable).
  std::vector<const Value*> chosen(plans.size(), nullptr);
  auto emit = [&]() -> Status {
    std::unordered_map<VarId, VarId> out_vars;
    std::vector<Cell> cells;
    cells.reserve(keep_.size());
    for (size_t p : keep_) {
      const Cell& c = row.cell(p);
      if (c.is_constant()) {
        cells.push_back(c);
        continue;
      }
      size_t ci = class_of_var.at(c.var());
      if (chosen[ci] != nullptr) {
        cells.push_back(Cell::Constant(*chosen[ci]));
      } else {
        auto [it, inserted] = out_vars.emplace(
            c.var(), static_cast<VarId>(out_vars.size()));
        (void)inserted;
        cells.push_back(Cell::Variable(it->second, plans[ci].exclusions));
      }
    }
    if (out->size() >= opts.max_result_rows) {
      return Status::InvalidArgument("ProjectOnto: result exceeds max rows");
    }
    if (out->InsertNormalized(Mapping(std::move(cells))) && added != nullptr) {
      added->push_back(out->rows().back());
    }
    return Status::OK();
  };
  auto expand = [&](auto& self, size_t plan_idx) -> Status {
    if (plan_idx == plans.size()) return emit();
    const ClassPlan& plan = plans[plan_idx];
    if (plan.values.empty()) {
      chosen[plan_idx] = nullptr;
      return self(self, plan_idx + 1);
    }
    for (const Value& v : plan.values) {
      chosen[plan_idx] = &v;
      HYP_RETURN_IF_ERROR(self(self, plan_idx + 1));
    }
    return Status::OK();
  };
  return expand(expand, 0);
}

Result<FreeTable> FreeTable::ProjectOnto(const std::vector<std::string>& names,
                                         const ComposeOptions& opts) const {
  HYP_ASSIGN_OR_RETURN(RowProjector projector,
                       RowProjector::Create(schema_, names));
  FreeTable out(projector.schema());
  for (const Mapping& row : rows_) {
    HYP_RETURN_IF_ERROR(projector.Project(row, &out, nullptr, opts));
  }
  return out;
}

Result<FreeTable> FreeTable::CartesianProduct(
    const FreeTable& other, const ComposeOptions& opts) const {
  HYP_ASSIGN_OR_RETURN(Schema out_schema, schema_.Concat(other.schema_));
  FreeTable out(std::move(out_schema));
  for (const Mapping& a : rows_) {
    VarId offset = VarSpan(a);
    for (const Mapping& b : other.rows_) {
      Mapping shifted = b.WithVarOffset(offset);
      std::vector<Cell> cells = a.cells();
      cells.insert(cells.end(), shifted.cells().begin(),
                   shifted.cells().end());
      if (out.size() >= opts.max_result_rows) {
        return Status::InvalidArgument(
            "CartesianProduct: result exceeds max rows");
      }
      out.AddRow(Mapping(std::move(cells)));
    }
  }
  return out;
}

Result<FreeTable> JoinOrProduct(const FreeTable& a, const FreeTable& b,
                                const ComposeOptions& opts) {
  if (a.schema().ToSet().Overlaps(b.schema().ToSet())) {
    return a.NaturalJoin(b, opts);
  }
  return a.CartesianProduct(b, opts);
}

Result<FreeTable> SemiJoinReduce(const FreeTable& table,
                                 const FreeTable& reducer) {
  HYP_ASSIGN_OR_RETURN(JoinIndex index,
                       JoinIndex::Build(table, reducer.schema()));
  std::vector<bool> keep(table.size(), false);
  HYP_RETURN_IF_ERROR(index.Join(table, reducer.rows(),
                                 [&](size_t left_row, Mapping) {
                                   keep[left_row] = true;
                                   return Status::OK();
                                 }));
  FreeTable out(table.schema());
  for (size_t r = 0; r < table.size(); ++r) {
    if (keep[r]) out.AddRow(table.rows()[r]);
  }
  return out;
}

Result<MappingTable> ComposeConstraints(const MappingConstraint& a,
                                        const MappingConstraint& b,
                                        const ComposeOptions& opts) {
  HYP_ASSIGN_OR_RETURN(
      FreeTable joined,
      a.table().free_table().NaturalJoin(b.table().free_table(), opts));
  // Keep a's X side plus b's Y side (dropping the shared middle).
  std::vector<std::string> keep;
  for (const Attribute& attr : a.x_schema().attrs()) {
    keep.push_back(attr.name());
  }
  for (const Attribute& attr : b.y_schema().attrs()) {
    if (std::find(keep.begin(), keep.end(), attr.name()) == keep.end()) {
      keep.push_back(attr.name());
    }
  }
  HYP_ASSIGN_OR_RETURN(FreeTable projected, joined.ProjectOnto(keep, opts));
  std::vector<std::string> x_names;
  for (const Attribute& attr : a.x_schema().attrs()) {
    x_names.push_back(attr.name());
  }
  std::string name = a.name().empty() || b.name().empty()
                         ? ""
                         : a.name() + "*" + b.name();
  return std::move(projected).ToMappingTable(x_names, std::move(name));
}

}  // namespace hyperion
