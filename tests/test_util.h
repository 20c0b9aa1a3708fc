// Shared helpers for the Hyperion test suite: tiny finite domains for
// brute-force oracles, random mapping-table generation, and set-comparison
// utilities.

#ifndef HYPERION_TESTS_TEST_UTIL_H_
#define HYPERION_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/hash_util.h"
#include "common/random.h"
#include "core/compose.h"
#include "core/mapping_table.h"

namespace hyperion {
namespace testing_util {

/// \brief A finite string domain {a, b, ..., size letters} shared by all
/// oracle tests.
inline DomainPtr SmallDomain(size_t size) {
  std::vector<Value> values;
  for (size_t i = 0; i < size; ++i) {
    values.emplace_back(std::string(1, static_cast<char>('a' + i)));
  }
  return Domain::Enumerated("small" + std::to_string(size),
                            std::move(values));
}

/// \brief Attribute over SmallDomain(size).
inline Attribute FiniteAttr(const std::string& name, size_t size) {
  return Attribute(name, SmallDomain(size));
}

/// \brief Sorted, deduplicated tuple list for set comparison.
inline std::vector<Tuple> Canon(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return tuples;
}

/// \brief A random cell over SmallDomain(domain_size): constant with
/// probability p_const, else a variable (fresh or reused) with a random
/// exclusion set.
inline Cell RandomCell(Rng* rng, size_t domain_size, VarId* next_var,
                       double p_const = 0.5, double p_reuse = 0.3,
                       double p_exclude = 0.3) {
  if (rng->Bernoulli(p_const)) {
    return Cell::Constant(
        Value(std::string(1, static_cast<char>('a' + rng->Uniform(
                                 0, static_cast<int64_t>(domain_size) - 1)))));
  }
  VarId var;
  if (*next_var > 0 && rng->Bernoulli(p_reuse)) {
    var = static_cast<VarId>(rng->Uniform(0, *next_var - 1));
  } else {
    var = (*next_var)++;
  }
  std::set<Value> exclusions;
  while (rng->Bernoulli(p_exclude) && exclusions.size() + 1 < domain_size) {
    exclusions.insert(Value(std::string(
        1, static_cast<char>('a' + rng->Uniform(
                                 0, static_cast<int64_t>(domain_size) - 1)))));
  }
  return Cell::Variable(var, std::move(exclusions));
}

/// \brief A random mapping table over finite domains; every attribute uses
/// SmallDomain(domain_size).
inline MappingTable RandomTable(Rng* rng, const std::vector<std::string>& x,
                                const std::vector<std::string>& y,
                                size_t rows, size_t domain_size) {
  std::vector<Attribute> xa;
  for (const std::string& n : x) xa.push_back(FiniteAttr(n, domain_size));
  std::vector<Attribute> ya;
  for (const std::string& n : y) ya.push_back(FiniteAttr(n, domain_size));
  auto table = MappingTable::Create(Schema(xa), Schema(ya));
  for (size_t r = 0; r < rows; ++r) {
    VarId next_var = 0;
    std::vector<Cell> cells;
    for (size_t i = 0; i < x.size() + y.size(); ++i) {
      cells.push_back(RandomCell(rng, domain_size, &next_var));
    }
    // Unsatisfiable rows are rejected by AddRow; just skip those.
    IgnoreStatus(table.value().AddRow(Mapping(std::move(cells))));
  }
  return std::move(table).value();
}

/// \brief Natural-join oracle over enumerated extensions.
inline std::vector<Tuple> JoinExtensions(const std::vector<Tuple>& a,
                                         const Schema& sa,
                                         const std::vector<Tuple>& b,
                                         const Schema& sb,
                                         const Schema& out) {
  std::vector<Tuple> result;
  for (const Tuple& ta : a) {
    for (const Tuple& tb : b) {
      bool match = true;
      for (size_t j = 0; j < sb.arity() && match; ++j) {
        auto i = sa.IndexOf(sb.attr(j).name());
        if (i && !(ta[*i] == tb[j])) match = false;
      }
      if (!match) continue;
      Tuple t(out.arity());
      for (size_t k = 0; k < out.arity(); ++k) {
        auto i = sa.IndexOf(out.attr(k).name());
        if (i) {
          t[k] = ta[*i];
        } else {
          auto j = sb.IndexOf(out.attr(k).name());
          t[k] = tb[*j];
        }
      }
      result.push_back(std::move(t));
    }
  }
  return Canon(std::move(result));
}

/// \brief Projection oracle over enumerated extensions.
inline std::vector<Tuple> ProjectExtension(const std::vector<Tuple>& ext,
                                           const Schema& schema,
                                           const std::vector<std::string>& to) {
  std::vector<size_t> positions;
  for (const std::string& n : to) positions.push_back(*schema.IndexOf(n));
  std::vector<Tuple> out;
  for (const Tuple& t : ext) out.push_back(ProjectTuple(t, positions));
  return Canon(std::move(out));
}

// `row` with its variables renamed by a seeded injective map.
inline Mapping Renamed(const Mapping& row, Rng* rng) {
  VarId offset = static_cast<VarId>(rng->Uniform(1, 50));
  std::vector<Cell> cells;
  for (const Cell& c : row.cells()) {
    cells.push_back(c.is_constant()
                        ? c
                        : Cell::Variable(3 * c.var() + offset,
                                         c.exclusions_ptr()));
  }
  return Mapping(std::move(cells));
}

// Collision construction.  hash_util.h's HashCombine is invertible in the
// combined hash (std::hash<int64_t> is the identity), so the test can
// solve for the second int of a pair that makes a chosen hash.
inline constexpr uint64_t kHashMix = 0x9e3779b97f4a7c15ull;
inline uint64_t Combine(uint64_t seed, uint64_t h) {
  return seed ^ (h + kHashMix + (seed << 12) + (seed >> 4));
}
inline uint64_t Uncombine(uint64_t seed, uint64_t combined) {
  return (combined ^ seed) - kHashMix - (seed << 12) - (seed >> 4);
}
inline uint64_t ValueHash(int64_t v) {
  return Combine(1, static_cast<uint64_t>(v));
}
inline int64_t ValueWithHash(uint64_t h) {
  return static_cast<int64_t>(Uncombine(1, h));
}

// v such that Mapping::Hash of the all-constant row prefix ++ (v) is
// `target` (Mapping::Hash seeds with the arity; Cell::Hash wraps
// Value::Hash).
inline int64_t LastCellCollider(const std::vector<int64_t>& prefix,
                                uint64_t target) {
  uint64_t seed = prefix.size() + 1;
  for (int64_t x : prefix) seed = Combine(seed, Combine(1, ValueHash(x)));
  return ValueWithHash(Uncombine(1, Uncombine(seed, target)));
}

// y such that Mapping({Constant(x), Constant(y)}).Hash() == target.
inline int64_t RowCollider(int64_t x, uint64_t target) {
  return LastCellCollider({x}, target);
}

// y such that the join key (x, y) hashes to `target`: JoinIndex combines
// the shared constants' Value::Hash into a seed of 0.
inline int64_t KeyCollider(int64_t x, uint64_t target) {
  return ValueWithHash(Uncombine(Combine(0, ValueHash(x)), target));
}
inline uint64_t KeyHashOf(int64_t x, int64_t y) {
  size_t seed = 0;
  HashCombine(&seed, Value(x));
  HashCombine(&seed, Value(y));
  return seed;
}

inline Mapping IntRow(std::vector<int64_t> values) {
  std::vector<Cell> cells;
  for (int64_t v : values) cells.push_back(Cell::Constant(Value(v)));
  return Mapping(std::move(cells));
}

inline Schema IntSchema(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  for (const std::string& n : names) {
    attrs.emplace_back(n, Domain::AllInts());
  }
  return Schema(std::move(attrs));
}

}  // namespace testing_util
}  // namespace hyperion

#endif  // HYPERION_TESTS_TEST_UTIL_H_
