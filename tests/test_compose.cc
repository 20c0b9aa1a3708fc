#include "core/compose.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/hash_util.h"
#include "common/random.h"
#include "test_util.h"

namespace hyperion {
namespace {

using testing_util::Canon;
using testing_util::FiniteAttr;
using testing_util::IntRow;
using testing_util::IntSchema;
using testing_util::JoinExtensions;
using testing_util::KeyCollider;
using testing_util::KeyHashOf;
using testing_util::ProjectExtension;
using testing_util::RandomTable;
using testing_util::Renamed;
using testing_util::RowCollider;

TEST(FreeTableTest, AddRowDedupsAndDropsEmpty) {
  FreeTable t(Schema::Of({FiniteAttr("A", 2)}));
  EXPECT_TRUE(t.AddRow(Mapping({Cell::Variable(3)})));
  EXPECT_FALSE(t.AddRow(Mapping({Cell::Variable(8)})));  // same normalized
  EXPECT_FALSE(
      t.AddRow(Mapping({Cell::Variable(0, {Value("a"), Value("b")})})));
  EXPECT_EQ(t.size(), 1u);
}

TEST(FreeTableTest, ToMappingTableSplitsAndReorders) {
  FreeTable t(Schema::Of({Attribute::String("Y"), Attribute::String("X")}));
  t.AddRow(Mapping::FromTuple({Value("y1"), Value("x1")}));
  auto table = t.ToMappingTable({"X"}, "split");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().x_schema().ToString(), "(X)");
  EXPECT_EQ(table.value().y_schema().ToString(), "(Y)");
  EXPECT_TRUE(table.value().SatisfiesTuple({Value("x1"), Value("y1")}));
  EXPECT_FALSE(t.ToMappingTable({"Z"}).ok());
}

TEST(FreeTableJoinTest, GroundEquiJoin) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  ab.AddRow(Mapping::FromTuple({Value("a2"), Value("b2")}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c2")}));
  bc.AddRow(Mapping::FromTuple({Value("b3"), Value("c3")}));

  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().schema().ToString(), "(A, B, C)");
  EXPECT_EQ(joined.value().size(), 2u);
  EXPECT_TRUE(joined.value().MatchesGround(
      {Value("a1"), Value("b1"), Value("c1")}));
  EXPECT_TRUE(joined.value().MatchesGround(
      {Value("a1"), Value("b1"), Value("c2")}));
}

TEST(FreeTableJoinTest, RequiresSharedAttributes) {
  FreeTable a(Schema::Of({Attribute::String("A")}));
  FreeTable b(Schema::Of({Attribute::String("B")}));
  EXPECT_FALSE(a.NaturalJoin(b).ok());
  auto product = JoinOrProduct(a, b);
  ASSERT_TRUE(product.ok());  // falls back to Cartesian product
}

TEST(FreeTableJoinTest, IdentityComposesWithIdentity) {
  // (v, v) over (A, B) joined with (w, w) over (B, C) must give the
  // identity over (A, B, C).
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.value().size(), 1u);
  EXPECT_TRUE(joined.value().MatchesGround({Value("k"), Value("k"),
                                            Value("k")}));
  EXPECT_FALSE(joined.value().MatchesGround({Value("k"), Value("k"),
                                             Value("l")}));
}

TEST(FreeTableJoinTest, VariableBindingPropagatesAcrossCells) {
  // (v, v) joined with ground (b1, c1): A must equal b1.
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.value().size(), 1u);
  EXPECT_TRUE(joined.value().rows()[0].IsGround());
  EXPECT_TRUE(joined.value().MatchesGround({Value("b1"), Value("b1"),
                                            Value("c1")}));
}

TEST(FreeTableJoinTest, ExclusionsMergeOnJoin) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1, {Value("x")})}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping({Cell::Variable(0, {Value("y")}), Cell::Variable(1)}));
  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.value().size(), 1u);
  // B avoids both x and y now.
  EXPECT_FALSE(joined.value().MatchesGround({Value("a"), Value("x"),
                                             Value("c")}));
  EXPECT_FALSE(joined.value().MatchesGround({Value("a"), Value("y"),
                                             Value("c")}));
  EXPECT_TRUE(joined.value().MatchesGround({Value("a"), Value("z"),
                                            Value("c")}));
}

TEST(FreeTableJoinTest, ConflictingConstantsDropPair) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b2"), Value("c1")}));
  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined.value().empty());
}

TEST(FreeTableProjectTest, DropsColumnsAndMergesExclusions) {
  FreeTable t(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  // Shared class with exclusions on the dropped side.
  t.AddRow(Mapping({Cell::Variable(0, {Value("p")}),
                    Cell::Variable(0, {Value("q")})}));
  auto projected = t.ProjectOnto({"A"});
  ASSERT_TRUE(projected.ok());
  ASSERT_EQ(projected.value().size(), 1u);
  // The kept cell must carry the dropped cell's exclusion too.
  EXPECT_FALSE(projected.value().MatchesGround({Value("p")}));
  EXPECT_FALSE(projected.value().MatchesGround({Value("q")}));
  EXPECT_TRUE(projected.value().MatchesGround({Value("r")}));
}

TEST(FreeTableProjectTest, MaterializesFiniteDroppedDomains) {
  // Class spans A (infinite) and B (finite {a,b}); projecting B away must
  // restrict A to {a, b}.
  FreeTable t(Schema::Of({Attribute::String("A"), FiniteAttr("B", 2)}));
  t.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  auto projected = t.ProjectOnto({"A"});
  ASSERT_TRUE(projected.ok());
  EXPECT_TRUE(projected.value().MatchesGround({Value("a")}));
  EXPECT_TRUE(projected.value().MatchesGround({Value("b")}));
  EXPECT_FALSE(projected.value().MatchesGround({Value("zzz")}));
}

TEST(FreeTableProjectTest, ReordersColumns) {
  FreeTable t(Schema::Of({Attribute::String("A"), Attribute::String("B"),
                          Attribute::String("C")}));
  t.AddRow(Mapping::FromTuple({Value("a"), Value("b"), Value("c")}));
  auto projected = t.ProjectOnto({"C", "A"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected.value().schema().ToString(), "(C, A)");
  EXPECT_TRUE(projected.value().MatchesGround({Value("c"), Value("a")}));
}

TEST(ComposeConstraintsTest, MotivatingExampleFigure2) {
  // Table 2(b): Hugo... actually GDB -> SwissProt, single row.
  MappingTable m2b =
      MappingTable::Create(Schema::Of({Attribute::String("GDB_id")}),
                           Schema::Of({Attribute::String("SwissProt_id")}),
                           "m2b")
          .value();
  ASSERT_TRUE(m2b.AddPair({Value("GDB:120231")}, {Value("O00662")}).ok());
  // SwissProt -> MIM associations from table 2(a)'s last two columns.
  MappingTable sp_mim =
      MappingTable::Create(Schema::Of({Attribute::String("SwissProt_id")}),
                           Schema::Of({Attribute::String("MIM_id")}),
                           "spmim")
          .value();
  ASSERT_TRUE(sp_mim.AddPair({Value("P21359")}, {Value("162200")}).ok());
  ASSERT_TRUE(sp_mim.AddPair({Value("O00662")}, {Value("193520")}).ok());
  ASSERT_TRUE(sp_mim.AddPair({Value("P35240")}, {Value("101000")}).ok());

  auto cover = ComposeConstraints(MappingConstraint(m2b),
                                  MappingConstraint(sp_mim));
  ASSERT_TRUE(cover.ok());
  // The witness t = (GDB:120231, O00662, 193520) of §2 exists...
  EXPECT_TRUE(
      cover.value().SatisfiesTuple({Value("GDB:120231"), Value("193520")}));
  // ...but (GDB:120231, 162200) has no witness.
  EXPECT_FALSE(
      cover.value().SatisfiesTuple({Value("GDB:120231"), Value("162200")}));
}

TEST(ComposeConstraintsTest, NamePropagation) {
  MappingTable a =
      MappingTable::Create(Schema::Of({Attribute::String("A")}),
                           Schema::Of({Attribute::String("B")}), "m1")
          .value();
  ASSERT_TRUE(a.AddPair({Value("x")}, {Value("y")}).ok());
  MappingTable b =
      MappingTable::Create(Schema::Of({Attribute::String("B")}),
                           Schema::Of({Attribute::String("C")}), "m2")
          .value();
  ASSERT_TRUE(b.AddPair({Value("y")}, {Value("z")}).ok());
  auto cover =
      ComposeConstraints(MappingConstraint(a), MappingConstraint(b));
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover.value().name(), "m1*m2");
  EXPECT_TRUE(cover.value().SatisfiesTuple({Value("x"), Value("z")}));
}

TEST(SemiJoinReduceTest, DropsNonContributingRows) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  ab.AddRow(Mapping::FromTuple({Value("a2"), Value("b9")}));  // dangling
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  auto reduced = SemiJoinReduce(ab, bc);
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  EXPECT_EQ(reduced.value().size(), 1u);
  EXPECT_TRUE(reduced.value().MatchesGround({Value("a1"), Value("b1")}));
  // Disjoint schemas are rejected.
  FreeTable zz(Schema::Of({Attribute::String("Z")}));
  EXPECT_FALSE(SemiJoinReduce(ab, zz).ok());
}

TEST(SemiJoinReduceTest, VariableRowsKeepEverythingTheyAdmit) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  ab.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1, {Value("b1")})}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  auto reduced = SemiJoinReduce(ab, bc);
  ASSERT_TRUE(reduced.ok());
  // The ground row matches b1; the variable row excludes b1 and the
  // reducer only offers b1, so it dies.
  EXPECT_EQ(reduced.value().size(), 1u);
  EXPECT_TRUE(reduced.value().rows()[0].IsGround());
}

// Property: reducing either join input never changes the join result.
class SemiJoinOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SemiJoinOracleTest, ReductionPreservesJoin) {
  Rng rng(15000 + GetParam());
  size_t domain_size = 3;
  MappingTable ta = RandomTable(&rng, {"A"}, {"B"}, 5, domain_size);
  MappingTable tb = RandomTable(&rng, {"B"}, {"C"}, 5, domain_size);
  FreeTable fa = FreeTable::FromMappingTable(ta);
  FreeTable fb = FreeTable::FromMappingTable(tb);

  auto baseline = fa.NaturalJoin(fb);
  ASSERT_TRUE(baseline.ok());
  auto reduced_a = SemiJoinReduce(fa, fb);
  ASSERT_TRUE(reduced_a.ok());
  EXPECT_LE(reduced_a.value().size(), fa.size());
  auto joined = reduced_a.value().NaturalJoin(fb);
  ASSERT_TRUE(joined.ok());

  auto ext_baseline = baseline.value().EnumerateExtension();
  auto ext_joined = joined.value().EnumerateExtension();
  ASSERT_TRUE(ext_baseline.ok() && ext_joined.ok());
  EXPECT_EQ(Canon(ext_joined.value()), Canon(ext_baseline.value()));

  // Reduce both sides.
  auto reduced_b = SemiJoinReduce(fb, reduced_a.value());
  ASSERT_TRUE(reduced_b.ok());
  auto joined2 = reduced_a.value().NaturalJoin(reduced_b.value());
  ASSERT_TRUE(joined2.ok());
  auto ext_joined2 = joined2.value().EnumerateExtension();
  ASSERT_TRUE(ext_joined2.ok());
  EXPECT_EQ(Canon(ext_joined2.value()), Canon(ext_baseline.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiJoinOracleTest, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Property tests against brute-force extension oracles on finite domains.
// ---------------------------------------------------------------------------

class JoinOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinOracleTest, JoinMatchesExtensionJoin) {
  Rng rng(2000 + GetParam());
  size_t domain_size = 3;
  MappingTable ta = RandomTable(&rng, {"A"}, {"B", "C"}, 5, domain_size);
  MappingTable tb = RandomTable(&rng, {"B"}, {"D"}, 5, domain_size);

  FreeTable fa = FreeTable::FromMappingTable(ta);
  FreeTable fb = FreeTable::FromMappingTable(tb);
  auto joined = fa.NaturalJoin(fb);
  ASSERT_TRUE(joined.ok()) << joined.status();

  auto ext_a = fa.EnumerateExtension();
  auto ext_b = fb.EnumerateExtension();
  auto ext_joined = joined.value().EnumerateExtension();
  ASSERT_TRUE(ext_a.ok() && ext_b.ok() && ext_joined.ok());

  std::vector<Tuple> oracle =
      JoinExtensions(ext_a.value(), fa.schema(), ext_b.value(), fb.schema(),
                     joined.value().schema());
  EXPECT_EQ(Canon(ext_joined.value()), oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOracleTest, ::testing::Range(0, 30));

class ProjectOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ProjectOracleTest, ProjectionMatchesExtensionProjection) {
  Rng rng(3000 + GetParam());
  size_t domain_size = 3;
  MappingTable t = RandomTable(&rng, {"A", "B"}, {"C"}, 6, domain_size);
  FreeTable ft = FreeTable::FromMappingTable(t);

  for (const std::vector<std::string>& keep :
       {std::vector<std::string>{"A"}, std::vector<std::string>{"A", "C"},
        std::vector<std::string>{"C", "B"}}) {
    auto projected = ft.ProjectOnto(keep);
    ASSERT_TRUE(projected.ok()) << projected.status();
    auto ext = ft.EnumerateExtension();
    auto ext_projected = projected.value().EnumerateExtension();
    ASSERT_TRUE(ext.ok() && ext_projected.ok());
    EXPECT_EQ(Canon(ext_projected.value()),
              ProjectExtension(ext.value(), ft.schema(), keep));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectOracleTest, ::testing::Range(0, 30));

class ComposeOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ComposeOracleTest, CoverMatchesJoinProjectOracle) {
  Rng rng(4000 + GetParam());
  size_t domain_size = 3;
  MappingTable ta = RandomTable(&rng, {"A"}, {"B"}, 6, domain_size);
  MappingTable tb = RandomTable(&rng, {"B"}, {"C"}, 6, domain_size);
  auto cover =
      ComposeConstraints(MappingConstraint(ta), MappingConstraint(tb));
  ASSERT_TRUE(cover.ok()) << cover.status();

  auto ext_a = FreeTable::FromMappingTable(ta).EnumerateExtension();
  auto ext_b = FreeTable::FromMappingTable(tb).EnumerateExtension();
  ASSERT_TRUE(ext_a.ok() && ext_b.ok());
  Schema joined_schema = Schema::Of({FiniteAttr("A", domain_size),
                                     FiniteAttr("B", domain_size),
                                     FiniteAttr("C", domain_size)});
  std::vector<Tuple> joined =
      JoinExtensions(ext_a.value(), ta.schema(), ext_b.value(), tb.schema(),
                     joined_schema);
  std::vector<Tuple> oracle =
      ProjectExtension(joined, joined_schema, {"A", "C"});

  auto ext_cover =
      FreeTable::FromMappingTable(cover.value()).EnumerateExtension();
  ASSERT_TRUE(ext_cover.ok());
  EXPECT_EQ(Canon(ext_cover.value()), oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposeOracleTest, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// The join kernel reused across batches, and the FreeTable row index.
// ---------------------------------------------------------------------------

// A table of `rows` over `schema` (rows added through AddRow).
FreeTable TableOf(const Schema& schema, const std::vector<Mapping>& rows) {
  FreeTable t(schema);
  for (const Mapping& row : rows) t.AddRow(row);
  return t;
}

// Reference for left ⋈ right, row order included: every left row in order
// meets, when its shared cells are all constants, the right rows holding
// the same constants and then the right rows with a variable in a shared
// cell (each group ascending), and otherwise every right row in order.
// Each pair is joined on its own, so the kernel's grouping and ordering
// are checked independently of its pair unification.
std::vector<Mapping> ReferenceJoin(const FreeTable& left,
                                   const FreeTable& right) {
  std::vector<std::pair<size_t, size_t>> shared;
  for (size_t j = 0; j < right.schema().arity(); ++j) {
    if (auto i = left.schema().IndexOf(right.schema().attr(j).name())) {
      shared.emplace_back(*i, j);
    }
  }
  auto ground_key = [&](const Mapping& row, bool left_side) {
    for (const auto& [i, j] : shared) {
      if (!row.cell(left_side ? i : j).is_constant()) return false;
    }
    return true;
  };
  std::vector<Mapping> out;
  for (const Mapping& a : left.rows()) {
    std::vector<const Mapping*> order;
    if (ground_key(a, true)) {
      for (const Mapping& b : right.rows()) {
        if (!ground_key(b, false)) continue;
        bool same = true;
        for (const auto& [i, j] : shared) {
          same = same && a.cell(i).value() == b.cell(j).value();
        }
        if (same) order.push_back(&b);
      }
      for (const Mapping& b : right.rows()) {
        if (!ground_key(b, false)) order.push_back(&b);
      }
    } else {
      for (const Mapping& b : right.rows()) order.push_back(&b);
    }
    for (const Mapping* b : order) {
      auto pair = TableOf(left.schema(), {a})
                      .NaturalJoin(TableOf(right.schema(), {*b}));
      EXPECT_TRUE(pair.ok()) << pair.status();
      if (pair.ok() && !pair.value().empty()) {
        out.push_back(pair.value().rows()[0]);
      }
    }
  }
  return out;
}

std::vector<Mapping> Deduplicated(const std::vector<Mapping>& rows) {
  std::vector<Mapping> out;
  for (const Mapping& row : rows) {
    if (std::find(out.begin(), out.end(), row) == out.end()) {
      out.push_back(row);
    }
  }
  return out;
}

class JoinIndexPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinIndexPropertyTest, ReusedIndexMatchesNaturalJoinPerBatch) {
  Rng rng(5000 + GetParam());
  const size_t domain_size = 3;
  // Two shared attributes (B, C), ground cells, variables and exclusion
  // sets on both sides.
  FreeTable left = FreeTable::FromMappingTable(
      RandomTable(&rng, {"A", "B"}, {"C"}, 40, domain_size));
  auto index_or = JoinIndex::Build(
      left, Schema::Of({FiniteAttr("B", domain_size),
                        FiniteAttr("C", domain_size),
                        FiniteAttr("D", domain_size)}));
  ASSERT_TRUE(index_or.ok()) << index_or.status();
  const JoinIndex& index = index_or.value();

  for (int b = 0; b < 6; ++b) {
    FreeTable batch = FreeTable::FromMappingTable(
        RandomTable(&rng, {"B", "C"}, {"D"}, 8, domain_size));
    // Every other batch keeps only rows with ground keys, so both the
    // grouped path and the every-left-row path run.
    if (b % 2 == 1) {
      FreeTable ground(batch.schema());
      for (const Mapping& row : batch.rows()) {
        if (row.cell(0).is_constant() && row.cell(1).is_constant()) {
          ground.AddRow(row);
        }
      }
      batch = std::move(ground);
    }
    std::vector<Mapping> streamed;
    ASSERT_TRUE(index
                    .Join(left, batch.rows(),
                          [&](size_t, Mapping row) {
                            streamed.push_back(std::move(row));
                            return Status::OK();
                          })
                    .ok());
    EXPECT_EQ(streamed, ReferenceJoin(left, batch)) << "batch " << b;

    auto joined = left.NaturalJoin(batch);
    ASSERT_TRUE(joined.ok()) << joined.status();
    EXPECT_EQ(joined.value().schema(), index.schema());
    EXPECT_EQ(joined.value().rows(), Deduplicated(streamed)) << "batch " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinIndexPropertyTest, ::testing::Range(0, 25));

class FreeTableIndexPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FreeTableIndexPropertyTest, DedupsUpToVariableRenaming) {
  Rng rng(6000 + GetParam());
  MappingTable source = RandomTable(&rng, {"A", "B"}, {"C"}, 30, 3);
  FreeTable t(source.schema());
  std::set<std::string> distinct;
  for (const Mapping& row : source.rows()) {
    Mapping renamed = Renamed(row, &rng);
    EXPECT_EQ(t.AddRow(renamed), distinct.insert(row.ToString()).second);
    EXPECT_FALSE(t.AddRow(Renamed(row, &rng)));  // same row, new names
    EXPECT_TRUE(t.ContainsRow(Renamed(row, &rng)));
    EXPECT_TRUE(t.ContainsRow(row));
  }
  EXPECT_EQ(t.size(), distinct.size());
  // Rows that differ only in an exclusion set are different rows.
  FreeTable u(Schema::Of({FiniteAttr("A", 3), FiniteAttr("B", 3)}));
  EXPECT_TRUE(u.AddRow(Mapping({Cell::Variable(4), Cell::Variable(4)})));
  EXPECT_FALSE(u.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)})));
  EXPECT_FALSE(u.ContainsRow(Mapping({Cell::Variable(0),
                                      Cell::Variable(0, {Value("a")})})));
  EXPECT_TRUE(u.AddRow(Mapping({Cell::Variable(7),
                                Cell::Variable(7, {Value("a")})})));
  EXPECT_TRUE(u.AddRow(Mapping({Cell::Variable(1), Cell::Variable(2)})));
  EXPECT_EQ(u.size(), 3u);
}

TEST_P(FreeTableIndexPropertyTest, AdoptionMatchesAddRow) {
  Rng rng(7000 + GetParam());
  MappingTable source = RandomTable(&rng, {"A"}, {"B", "C"}, 25, 3);
  FreeTable added(source.schema());
  for (const Mapping& row : source.rows()) added.AddRow(row);
  FreeTable adopted = FreeTable::FromMappingTable(source);
  EXPECT_EQ(adopted.rows(), added.rows());

  // A filtered subset, as a semi-join reduction adopts it.
  std::vector<Mapping> subset;
  FreeTable subset_added(source.schema());
  for (const Mapping& row : source.rows()) {
    if (rng.Bernoulli(0.5)) {
      subset.push_back(row);
      subset_added.AddRow(row);
    }
  }
  FreeTable subset_adopted = FreeTable::FromMappingTable(source, subset);
  EXPECT_EQ(subset_adopted.rows(), subset_added.rows());

  // The adopted index answers like the built one.
  for (const Mapping& row : source.rows()) {
    EXPECT_TRUE(adopted.ContainsRow(Renamed(row, &rng)));
    EXPECT_FALSE(adopted.AddRow(Renamed(row, &rng)));
    EXPECT_EQ(subset_adopted.ContainsRow(row), subset_added.ContainsRow(row));
    EXPECT_EQ(subset_adopted.AddRow(row), subset_added.AddRow(row));
  }
  EXPECT_EQ(subset_adopted.rows(), subset_added.rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreeTableIndexPropertyTest,
                         ::testing::Range(0, 20));

TEST(FreeTableIndexTest, RowsWithCollidingHashesStayDistinct) {
  const Mapping base = IntRow({7, 11});
  std::vector<Mapping> colliding = {base};
  for (int64_t x = 100; x < 140; ++x) {
    colliding.push_back(IntRow({x, RowCollider(x, base.Hash())}));
  }
  for (const Mapping& m : colliding) {
    ASSERT_EQ(m.Hash(), base.Hash())
        << "Mapping::Hash changed; rederive RowCollider";
  }
  FreeTable t(IntSchema({"X", "Y"}));
  for (const Mapping& m : colliding) EXPECT_TRUE(t.AddRow(m));
  for (const Mapping& m : colliding) {
    EXPECT_FALSE(t.AddRow(m));
    EXPECT_TRUE(t.ContainsRow(m));
  }
  EXPECT_FALSE(t.ContainsRow(IntRow({7, 12})));
  EXPECT_EQ(t.rows(), colliding);
}

TEST(JoinIndexTest, KeysWithCollidingHashesNeverMeet) {
  // Left keys all hash alike; the key (7, 11) comes last, so a probe for
  // it must look past every other group of its hash.
  const uint64_t target = KeyHashOf(7, 11);
  FreeTable left(IntSchema({"X", "Y", "L"}));
  for (int64_t x = 100; x < 120; ++x) {
    int64_t y = KeyCollider(x, target);
    ASSERT_EQ(KeyHashOf(x, y), target) << "rederive KeyCollider";
    left.AddRow(IntRow({x, y, x}));
  }
  left.AddRow(IntRow({7, 11, 7}));
  FreeTable right(IntSchema({"X", "Y", "R"}));
  right.AddRow(IntRow({7, 11, 1}));
  right.AddRow(IntRow({105, KeyCollider(105, target), 2}));
  right.AddRow(IntRow({7, 12, 3}));

  auto joined = left.NaturalJoin(right);
  ASSERT_TRUE(joined.ok()) << joined.status();
  std::vector<Mapping> want = {
      IntRow({105, KeyCollider(105, target), 105, 2}),
      IntRow({7, 11, 7, 1})};
  EXPECT_EQ(joined.value().rows(), want);
}

}  // namespace
}  // namespace hyperion
