#include "core/mapping_table.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "core/curator.h"
#include "test_util.h"

namespace hyperion {
namespace {

using testing_util::Canon;
using testing_util::FiniteAttr;
using testing_util::IntRow;
using testing_util::IntSchema;
using testing_util::KeyCollider;
using testing_util::KeyHashOf;
using testing_util::RandomCell;
using testing_util::Renamed;
using testing_util::RowCollider;

// The paper's Figure 1: the GDB -> SwissProt table.
MappingTable Figure1Table() {
  auto table = MappingTable::Create(
      Schema::Of({Attribute::String("GDB_id")}),
      Schema::Of({Attribute::String("SwissProt_id")}), "fig1");
  EXPECT_TRUE(table.ok());
  MappingTable t = std::move(table).value();
  EXPECT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("P21359")}).ok());
  EXPECT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("O00662")}).ok());
  EXPECT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("Q9UMK3")}).ok());
  EXPECT_TRUE(t.AddPair({Value("GDB:120232")}, {Value("P35240")}).ok());
  EXPECT_TRUE(t.AddPair({Value("GDB:120233")}, {Value("P01138")}).ok());
  return t;
}

TEST(MappingTableTest, CreateRejectsEmptySides) {
  EXPECT_FALSE(MappingTable::Create(Schema(), Schema::Of(
                                        {Attribute::String("Y")})).ok());
  EXPECT_FALSE(MappingTable::Create(Schema::Of({Attribute::String("X")}),
                                    Schema()).ok());
  // Overlapping X and Y is rejected (they must be disjoint).
  EXPECT_FALSE(MappingTable::Create(Schema::Of({Attribute::String("A")}),
                                    Schema::Of({Attribute::String("A")}))
                   .ok());
}

TEST(MappingTableTest, Figure1BasicQueries) {
  MappingTable t = Figure1Table();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.x_arity(), 1u);
  // The mapping is many-to-many: one gene, three proteins.
  auto ym = t.YmGround({Value("GDB:120231")});
  ASSERT_TRUE(ym.ok());
  EXPECT_EQ(ym.value().size(), 3u);
  EXPECT_TRUE(t.SatisfiesTuple({Value("GDB:120231"), Value("O00662")}));
  EXPECT_FALSE(t.SatisfiesTuple({Value("GDB:120231"), Value("P35240")}));
  // CC-world: an absent X-value maps to nothing.
  EXPECT_FALSE(t.SatisfiesTuple({Value("GDB:999999"), Value("P21359")}));
  EXPECT_FALSE(t.XValueHasImage({Value("GDB:999999")}));
  EXPECT_TRUE(t.XValueHasImage({Value("GDB:120233")}));
}

TEST(MappingTableTest, AddRowValidatesArityAndDomains) {
  Schema x = Schema::Of({FiniteAttr("A", 2)});
  Schema y = Schema::Of({FiniteAttr("B", 2)});
  MappingTable t = MappingTable::Create(x, y).value();
  EXPECT_FALSE(t.AddRow(Mapping({Cell::Constant(Value("a"))})).ok());
  EXPECT_FALSE(
      t.AddRow(Mapping::FromTuple({Value("z"), Value("a")})).ok());
  EXPECT_TRUE(t.AddRow(Mapping::FromTuple({Value("a"), Value("b")})).ok());
  // Unsatisfiable row (variable excludes whole finite domain).
  EXPECT_FALSE(
      t.AddRow(Mapping({Cell::Variable(0, {Value("a"), Value("b")}),
                        Cell::Variable(1)}))
          .ok());
}

TEST(MappingTableTest, DuplicateRowsCollapse) {
  MappingTable t = Figure1Table();
  size_t before = t.size();
  EXPECT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("P21359")}).ok());
  EXPECT_EQ(t.size(), before);
  // Rows equal up to variable renaming also collapse.
  Schema x = Schema::Of({Attribute::String("A")});
  Schema y = Schema::Of({Attribute::String("B")});
  MappingTable v = MappingTable::Create(x, y).value();
  EXPECT_TRUE(v.AddRow(Mapping({Cell::Variable(4), Cell::Variable(4)})).ok());
  EXPECT_TRUE(v.AddRow(Mapping({Cell::Variable(9), Cell::Variable(9)})).ok());
  EXPECT_EQ(v.size(), 1u);
  EXPECT_TRUE(
      v.ContainsRow(Mapping({Cell::Variable(0), Cell::Variable(0)})));
}

TEST(MappingTableTest, VariableRowsAnswerYm) {
  // Figure 3 (bottom): CC-world table with a catch-all row.
  Schema x = Schema::Of({Attribute::String("GDB_id")});
  Schema y = Schema::Of({Attribute::String("SwissProt_id")});
  MappingTable t = MappingTable::Create(x, y).value();
  ASSERT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("P21359")}).ok());
  ASSERT_TRUE(t.AddPair({Value("GDB:120232")}, {Value("P35240")}).ok());
  ASSERT_TRUE(
      t.AddRow(Mapping({Cell::Variable(0, {Value("GDB:120231"),
                                           Value("GDB:120232")}),
                        Cell::Variable(1)}))
          .ok());
  // Mentioned ids keep their closed-world image.
  EXPECT_TRUE(t.SatisfiesTuple({Value("GDB:120231"), Value("P21359")}));
  EXPECT_FALSE(t.SatisfiesTuple({Value("GDB:120231"), Value("ZZZ")}));
  // Unmentioned ids map anywhere.
  EXPECT_TRUE(t.SatisfiesTuple({Value("GDB:777777"), Value("ZZZ")}));
  // Y_m of an unmentioned id is infinite: YmGround must fail...
  EXPECT_FALSE(t.YmGround({Value("GDB:777777")}).ok());
  // ...but the image is known nonempty.
  EXPECT_TRUE(t.XValueHasImage({Value("GDB:777777")}));
}

TEST(MappingTableTest, EnumerateExtensionMatchesSemantics) {
  Schema x = Schema::Of({FiniteAttr("A", 2)});
  Schema y = Schema::Of({FiniteAttr("B", 2)});
  MappingTable t = MappingTable::Create(x, y).value();
  ASSERT_TRUE(t.AddPair({Value("a")}, {Value("a")}).ok());
  ASSERT_TRUE(
      t.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1, {Value("a")})}))
          .ok());
  auto ext = t.EnumerateExtension();
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(Canon(ext.value()),
            (std::vector<Tuple>{{Value("a"), Value("a")},
                                {Value("a"), Value("b")},
                                {Value("b"), Value("b")}}));
  for (const Tuple& tuple : ext.value()) {
    EXPECT_TRUE(t.SatisfiesTuple(tuple));
  }
  EXPECT_TRUE(t.IsSatisfiable());
}

TEST(MappingTableTest, FilterRelationReproducesFigure4) {
  // Figure 4: GDB relation x SwissProt relation filtered by the table.
  Relation gdb(Schema::Of(
      {Attribute::String("GDB_id"), Attribute::String("Gene Name")}));
  ASSERT_TRUE(gdb.Add({Value("GDB:120231"), Value("NF1")}).ok());
  ASSERT_TRUE(gdb.Add({Value("GDB:120232"), Value("NF2")}).ok());
  ASSERT_TRUE(gdb.Add({Value("GDB:120233"), Value("NGFB")}).ok());

  Relation swissprot(Schema::Of({Attribute::String("SwissProt_id"),
                                 Attribute::String("Protein Name")}));
  ASSERT_TRUE(swissprot.Add({Value("P21359"), Value("NF1")}).ok());
  ASSERT_TRUE(swissprot.Add({Value("P35240"), Value("MERL")}).ok());

  MappingTable table =
      MappingTable::Create(Schema::Of({Attribute::String("GDB_id")}),
                           Schema::Of({Attribute::String("SwissProt_id")}))
          .value();
  ASSERT_TRUE(table.AddPair({Value("GDB:120232")}, {Value("P35240")}).ok());
  ASSERT_TRUE(table
                  .AddRow(Mapping({Cell::Variable(0, {Value("GDB:120232")}),
                                   Cell::Variable(1, {Value("P35240")})}))
                  .ok());

  Relation product = gdb.CartesianProduct(swissprot).value();
  EXPECT_EQ(product.size(), 6u);
  auto filtered = table.FilterRelation(product);
  ASSERT_TRUE(filtered.ok());
  // The paper's result: exactly three of the six pairs survive.
  EXPECT_EQ(filtered.value().size(), 3u);
  EXPECT_TRUE(filtered.value().Contains(
      {Value("GDB:120231"), Value("NF1"), Value("P21359"), Value("NF1")}));
  EXPECT_TRUE(filtered.value().Contains(
      {Value("GDB:120232"), Value("NF2"), Value("P35240"), Value("MERL")}));
  EXPECT_TRUE(filtered.value().Contains({Value("GDB:120233"), Value("NGFB"),
                                         Value("P21359"), Value("NF1")}));
}

TEST(MappingTableTest, DescribeStats) {
  MappingTable t = Figure1Table();
  MappingTable::Stats stats = t.Describe();
  EXPECT_EQ(stats.rows, 5u);
  EXPECT_EQ(stats.ground_rows, 5u);
  EXPECT_EQ(stats.variable_rows, 0u);
  EXPECT_EQ(stats.distinct_ground_x, 3u);
  EXPECT_EQ(stats.max_fanout, 3u);  // GDB:120231 maps to three proteins
  EXPECT_DOUBLE_EQ(stats.avg_fanout, 5.0 / 3.0);
  EXPECT_EQ(stats.total_exclusion_values, 0u);

  ASSERT_TRUE(
      t.AddRow(Mapping({Cell::Variable(0, {Value("a"), Value("b")}),
                        Cell::Variable(1)}))
          .ok());
  stats = t.Describe();
  EXPECT_EQ(stats.variable_rows, 1u);
  EXPECT_EQ(stats.total_exclusion_values, 2u);
}

TEST(MappingTableTest, ClassifyShapes) {
  Schema x = Schema::Of({Attribute::String("A")});
  Schema y = Schema::Of({Attribute::String("B")});
  using Shape = MappingTable::MappingShape;

  MappingTable one_one = MappingTable::Create(x, y).value();
  ASSERT_TRUE(one_one.AddPair({Value("a1")}, {Value("b1")}).ok());
  ASSERT_TRUE(one_one.AddPair({Value("a2")}, {Value("b2")}).ok());
  EXPECT_EQ(one_one.Classify(), Shape::kOneToOne);

  MappingTable one_many = MappingTable::Create(x, y).value();
  ASSERT_TRUE(one_many.AddPair({Value("a1")}, {Value("b1")}).ok());
  ASSERT_TRUE(one_many.AddPair({Value("a1")}, {Value("b2")}).ok());
  EXPECT_EQ(one_many.Classify(), Shape::kOneToMany);

  MappingTable many_one = MappingTable::Create(x, y).value();
  ASSERT_TRUE(many_one.AddPair({Value("a1")}, {Value("b1")}).ok());
  ASSERT_TRUE(many_one.AddPair({Value("a2")}, {Value("b1")}).ok());
  EXPECT_EQ(many_one.Classify(), Shape::kManyToOne);

  MappingTable many_many = Figure1Table();  // aliases: N-M per the paper
  ASSERT_TRUE(many_many.AddPair({Value("GDB:120239")}, {Value("P21359")})
                  .ok());
  EXPECT_EQ(many_many.Classify(), Shape::kManyToMany);

  // Identity rows stay one-to-one; catch-all rows force many-to-many.
  MappingTable ident = MappingTable::Create(x, y).value();
  ASSERT_TRUE(
      ident.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)})).ok());
  EXPECT_EQ(ident.Classify(), Shape::kOneToOne);
  MappingTable open_world = MappingTable::Create(x, y).value();
  ASSERT_TRUE(
      open_world.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1)}))
          .ok());
  EXPECT_EQ(open_world.Classify(), Shape::kManyToMany);
  EXPECT_STREQ(MappingTable::MappingShapeToString(Shape::kOneToMany),
               "one-to-many");
}

TEST(MappingTableTest, SerializeParseRoundTrip) {
  MappingTable t = Figure1Table();
  std::string text = t.Serialize();
  auto parsed = MappingTable::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().name(), "fig1");
  EXPECT_EQ(parsed.value().size(), t.size());
  for (const Mapping& row : t.rows()) {
    EXPECT_TRUE(parsed.value().ContainsRow(row));
  }
}

TEST(MappingTableTest, SerializeParseRoundTripWithVariables) {
  Schema x = Schema::Of({Attribute::String("A"), Attribute::String("N")});
  Schema y = Schema::Of({Attribute::String("B")});
  MappingTable t = MappingTable::Create(x, y, "vars").value();
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(0, {Value("p,q"),
                                                   Value("r|s")}),
                                Cell::Constant(Value("{odd}")),
                                Cell::Variable(0)}))
                  .ok());
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Constant(Value("?notavar")),
                                Cell::Variable(0), Cell::Variable(1)}))
                  .ok());
  auto parsed = MappingTable::Parse(t.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value().size(), 2u);
  for (const Mapping& row : t.rows()) {
    EXPECT_TRUE(parsed.value().ContainsRow(row)) << row.ToString();
  }
}

TEST(MappingTableTest, ParseWithIntDomain) {
  const char* text =
      "name: ages\n"
      "x: Age:int\n"
      "y: Group:string\n"
      "7|child\n"
      "42|adult\n";
  auto parsed = MappingTable::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(
      parsed.value().SatisfiesTuple({Value(int64_t{7}), Value("child")}));
  EXPECT_FALSE(
      parsed.value().SatisfiesTuple({Value(int64_t{7}), Value("adult")}));
}

TEST(MappingTableTest, ParseErrors) {
  EXPECT_FALSE(MappingTable::Parse("").ok());
  EXPECT_FALSE(MappingTable::Parse("x: A:string\nrow|data\n").ok());
  EXPECT_FALSE(
      MappingTable::Parse("x: A:string\ny: B:string\nonecell\n").ok());
  EXPECT_FALSE(
      MappingTable::Parse("x: A:float\ny: B:string\n").ok());
  EXPECT_FALSE(
      MappingTable::Parse("x: A:int\ny: B:string\nnotanint|b\n").ok());
}

// ---------------------------------------------------------------------------
// Seeded properties of the FreeTable-backed storage and its ground-X index,
// each checked against a brute-force reference over rows().
// ---------------------------------------------------------------------------

// The reference image Y_m(x), as a canonical set.
using YmReference =
    std::function<std::vector<Tuple>(const MappingTable&, const Tuple&)>;

// Y_m(x) by enumerating each row's extension (finite domains only).
std::vector<Tuple> EnumeratedYm(const MappingTable& t, const Tuple& x) {
  std::vector<Tuple> out;
  for (const Mapping& row : t.rows()) {
    std::vector<Tuple> extension = row.EnumerateExtension(t.schema()).value();
    for (const Tuple& u : extension) {
      if (std::equal(x.begin(), x.end(), u.begin())) {
        out.emplace_back(u.begin() + static_cast<ptrdiff_t>(x.size()),
                         u.end());
      }
    }
  }
  return Canon(std::move(out));
}

// Y_m(x) for tables whose Y cells are all constants: the Y part of every
// row whose X part matches x.
std::vector<Tuple> ConstantYm(const MappingTable& t, const Tuple& x) {
  std::vector<size_t> x_positions(t.x_arity());
  for (size_t i = 0; i < x_positions.size(); ++i) x_positions[i] = i;
  std::vector<Tuple> out;
  for (const Mapping& row : t.rows()) {
    if (!row.Project(x_positions).MatchesGround(x, t.x_schema())) continue;
    Tuple y;
    for (size_t i = t.x_arity(); i < row.arity(); ++i) {
      y.push_back(row.cell(i).value());
    }
    out.push_back(std::move(y));
  }
  return Canon(std::move(out));
}

MappingTable::Stats ReferenceStats(const MappingTable& t) {
  MappingTable::Stats stats;
  std::map<Tuple, size_t> fanout;  // ground X -> rows holding it
  for (const Mapping& row : t.rows()) {
    ++stats.rows;
    bool ground = true;
    bool ground_x = true;
    Tuple x;
    for (size_t i = 0; i < row.arity(); ++i) {
      const Cell& c = row.cell(i);
      if (c.is_variable()) {
        ground = false;
        ground_x = ground_x && i >= t.x_arity();
        stats.total_exclusion_values += c.exclusions().size();
      } else if (i < t.x_arity()) {
        x.push_back(c.value());
      }
    }
    ++(ground ? stats.ground_rows : stats.variable_rows);
    if (ground_x) ++fanout[x];
  }
  size_t indexed = 0;
  for (const auto& [x, n] : fanout) {
    stats.max_fanout = std::max(stats.max_fanout, n);
    indexed += n;
  }
  stats.distinct_ground_x = fanout.size();
  if (!fanout.empty()) {
    stats.avg_fanout =
        static_cast<double>(indexed) / static_cast<double>(fanout.size());
  }
  return stats;
}

// Classification by comparing every pair of ground rows.
MappingTable::MappingShape ReferenceShape(const MappingTable& t) {
  std::vector<std::pair<Tuple, Tuple>> ground;
  for (const Mapping& row : t.rows()) {
    if (row.IsGround()) {
      Tuple x;
      Tuple y;
      for (size_t i = 0; i < row.arity(); ++i) {
        (i < t.x_arity() ? x : y).push_back(row.cell(i).value());
      }
      ground.emplace_back(std::move(x), std::move(y));
      continue;
    }
    for (size_t i = t.x_arity(); i < row.arity(); ++i) {
      const Cell& c = row.cell(i);
      bool on_x_side = false;
      for (size_t j = 0; j < t.x_arity() && c.is_variable(); ++j) {
        on_x_side |= row.cell(j).is_variable() && row.cell(j).var() == c.var();
      }
      if (!on_x_side) return MappingTable::MappingShape::kManyToMany;
    }
  }
  bool one_to_many = false;
  bool many_to_one = false;
  for (const auto& [xa, ya] : ground) {
    for (const auto& [xb, yb] : ground) {
      one_to_many |= xa == xb && !(ya == yb);
      many_to_one |= ya == yb && !(xa == xb);
    }
  }
  if (one_to_many && many_to_one) {
    return MappingTable::MappingShape::kManyToMany;
  }
  if (one_to_many) return MappingTable::MappingShape::kOneToMany;
  if (many_to_one) return MappingTable::MappingShape::kManyToOne;
  return MappingTable::MappingShape::kOneToOne;
}

// Checks every indexed lookup of `t` against the references, over the
// X tuples `xs` and the whole tuples `tuples`.
void ExpectMatchesReference(const MappingTable& t,
                            const std::vector<Tuple>& xs,
                            const std::vector<Tuple>& tuples,
                            const YmReference& reference_ym) {
  for (const Tuple& u : tuples) {
    bool expected = false;
    for (const Mapping& row : t.rows()) {
      expected = expected || row.MatchesGround(u, t.schema());
    }
    EXPECT_EQ(t.SatisfiesTuple(u), expected);
  }
  for (const Tuple& x : xs) {
    std::vector<Tuple> expected = reference_ym(t, x);
    auto ym = t.YmGround(x);
    ASSERT_TRUE(ym.ok()) << ym.status();
    EXPECT_EQ(Canon(ym.value()), expected);
    EXPECT_EQ(ym.value().size(), expected.size());  // no duplicates
    EXPECT_EQ(t.XValueHasImage(x), !expected.empty());
  }
  MappingTable::Stats stats = t.Describe();
  MappingTable::Stats expected = ReferenceStats(t);
  EXPECT_EQ(stats.rows, expected.rows);
  EXPECT_EQ(stats.ground_rows, expected.ground_rows);
  EXPECT_EQ(stats.variable_rows, expected.variable_rows);
  EXPECT_EQ(stats.distinct_ground_x, expected.distinct_ground_x);
  EXPECT_EQ(stats.max_fanout, expected.max_fanout);
  EXPECT_DOUBLE_EQ(stats.avg_fanout, expected.avg_fanout);
  EXPECT_EQ(stats.total_exclusion_values, expected.total_exclusion_values);
  EXPECT_EQ(t.Classify(), ReferenceShape(t));
}

// Builds the table from `rows` twice — row by row through AddRow, and by
// adopting a FreeTable holding the same rows — and requires the same
// bytes; also through ToMappingTable from a column order with Y first.
MappingTable AddedAndAdoptedAgree(const Schema& x, const Schema& y,
                                  const std::vector<Mapping>& rows) {
  MappingTable added = MappingTable::Create(x, y, "t").value();
  FreeTable free(added.schema());
  const size_t arity = added.schema().arity();
  std::vector<size_t> y_first;
  for (size_t i = x.arity(); i < arity; ++i) y_first.push_back(i);
  for (size_t i = 0; i < x.arity(); ++i) y_first.push_back(i);
  FreeTable reordered(added.schema().Project(y_first));
  for (const Mapping& row : rows) {
    IgnoreStatus(added.AddRow(row));  // unsatisfiable rows are refused
    free.AddRow(row);
    reordered.AddRow(row.Project(y_first));
  }
  auto adopted = MappingTable::Adopt(free, x.arity(), "t");
  EXPECT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_EQ(adopted.value().Serialize(), added.Serialize());
  std::vector<std::string> x_names;
  for (const Attribute& a : x.attrs()) x_names.push_back(a.name());
  auto split = std::move(reordered).ToMappingTable(x_names, "t");
  EXPECT_TRUE(split.ok()) << split.status();
  EXPECT_EQ(split.value().Serialize(), added.Serialize());
  return std::move(adopted).value();
}

class MappingTablePropertyTest : public ::testing::TestWithParam<int> {};

// Finite domains, ground and variable rows with exclusion sets; X values
// repeat across rows, so the index chains several rows per X.
TEST_P(MappingTablePropertyTest, FiniteTablesMatchReference) {
  Rng rng(9100 + GetParam());
  constexpr size_t kDomain = 3;
  Schema x = Schema::Of({FiniteAttr("A", kDomain), FiniteAttr("B", kDomain)});
  Schema y = Schema::Of({FiniteAttr("C", kDomain)});
  auto random_row = [&] {
    VarId next_var = 0;
    std::vector<Cell> cells;
    for (size_t i = 0; i < 3; ++i) {
      cells.push_back(RandomCell(&rng, kDomain, &next_var, /*p_const=*/0.7));
    }
    return Mapping(std::move(cells));
  };
  std::vector<Mapping> rows;
  for (int i = 0; i < 40; ++i) rows.push_back(random_row());
  MappingTable t = AddedAndAdoptedAgree(x, y, rows);

  std::vector<Tuple> xs;
  std::vector<Tuple> tuples;
  for (size_t a = 0; a < kDomain; ++a) {
    for (size_t b = 0; b < kDomain; ++b) {
      Value va(std::string(1, static_cast<char>('a' + a)));
      Value vb(std::string(1, static_cast<char>('a' + b)));
      xs.push_back({va, vb});
      for (size_t c = 0; c < kDomain; ++c) {
        tuples.push_back(
            {va, vb, Value(std::string(1, static_cast<char>('a' + c)))});
      }
    }
  }
  ExpectMatchesReference(t, xs, tuples, EnumeratedYm);

  // ContainsRow deduplicates up to variable renaming.
  for (const Mapping& row : t.rows()) {
    EXPECT_TRUE(t.ContainsRow(Renamed(row, &rng)));
  }
  for (int i = 0; i < 40; ++i) {
    Mapping probe = random_row();
    Mapping normalized = probe.Normalized();
    bool expected = std::any_of(
        t.rows().begin(), t.rows().end(),
        [&](const Mapping& row) { return row == normalized; });
    EXPECT_EQ(t.ContainsRow(probe), expected);
  }
  MappingTable grown = t;
  for (const Mapping& row : t.rows()) {
    ASSERT_TRUE(grown.AddRow(Renamed(row, &rng)).ok());
  }
  EXPECT_EQ(grown.Serialize(), t.Serialize());

  // MergeUnion is the row-by-row union.
  std::vector<Mapping> more;
  for (int i = 0; i < 20; ++i) more.push_back(random_row());
  MappingTable other = AddedAndAdoptedAgree(x, y, more);
  auto merged = MergeUnion(t, other, "merged");
  ASSERT_TRUE(merged.ok()) << merged.status();
  MappingTable expected = MappingTable::Create(x, y, "merged").value();
  for (const Mapping& row : t.rows()) ASSERT_TRUE(expected.AddRow(row).ok());
  for (const Mapping& row : other.rows()) {
    ASSERT_TRUE(expected.AddRow(row).ok());
  }
  EXPECT_EQ(merged.value().Serialize(), expected.Serialize());
  ExpectMatchesReference(merged.value(), xs, tuples, EnumeratedYm);
}

// Integer X pairs built so that many distinct X values share one X-key
// hash, or one Mapping::Hash of the X part, plus variable-X rows with
// exclusion sets.  Y cells are constants, so Y_m stays finite.
TEST_P(MappingTablePropertyTest, CollidingXHashesStayDistinct) {
  Rng rng(9300 + GetParam());
  const uint64_t key_target = static_cast<uint64_t>(rng.Uniform(1, 1 << 30));
  const uint64_t row_target = static_cast<uint64_t>(rng.Uniform(1, 1 << 30));
  std::vector<Tuple> xs;
  for (int64_t a = 1; a <= 12; ++a) {
    int64_t key_b = KeyCollider(a, key_target);
    ASSERT_EQ(KeyHashOf(a, key_b), key_target) << "rederive KeyCollider";
    xs.push_back({Value(a), Value(key_b)});
    int64_t row_b = RowCollider(100 + a, row_target);
    ASSERT_EQ(IntRow({100 + a, row_b}).Hash(), row_target)
        << "rederive RowCollider";
    xs.push_back({Value(100 + a), Value(row_b)});
  }
  std::vector<Mapping> rows;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 60; ++i) {
    const Tuple& x = xs[static_cast<size_t>(rng.Uniform(0, 23))];
    int64_t c = rng.Uniform(0, 2);
    if (rng.Bernoulli(0.2)) {
      // Variable A excluding a few of the colliding values.
      std::set<Value> excluded;
      for (int k = 0; k < 3; ++k) {
        excluded.insert(xs[static_cast<size_t>(rng.Uniform(0, 23))][0]);
      }
      rows.push_back(Mapping({Cell::Variable(0, std::move(excluded)),
                              Cell::Constant(x[1]),
                              Cell::Constant(Value(c))}));
    } else {
      rows.push_back(Mapping({Cell::Constant(x[0]), Cell::Constant(x[1]),
                              Cell::Constant(Value(c))}));
    }
    tuples.push_back({x[0], x[1], Value(c)});
    tuples.push_back({x[0], x[1], Value(c + 1)});
  }
  MappingTable t =
      AddedAndAdoptedAgree(IntSchema({"A", "B"}), IntSchema({"C"}), rows);
  xs.push_back({Value(int64_t{999}), xs[0][1]});  // absent, same B
  ExpectMatchesReference(t, xs, tuples, ConstantYm);
  for (const Mapping& row : t.rows()) EXPECT_TRUE(t.ContainsRow(row));

  MappingTable delta = MappingTable::Create(IntSchema({"A", "B"}),
                                            IntSchema({"C"}), "delta")
                           .value();
  ASSERT_TRUE(delta.AddRow(rows[0]).ok());
  ASSERT_TRUE(delta.AddRow(IntRow({7, KeyCollider(7, key_target), 5})).ok());
  auto merged = MergeUnion(t, delta, "merged");
  ASSERT_TRUE(merged.ok()) << merged.status();
  MappingTable expected = MappingTable::Create(IntSchema({"A", "B"}),
                                               IntSchema({"C"}), "merged")
                              .value();
  for (const Mapping& row : t.rows()) ASSERT_TRUE(expected.AddRow(row).ok());
  for (const Mapping& row : delta.rows()) {
    ASSERT_TRUE(expected.AddRow(row).ok());
  }
  EXPECT_EQ(merged.value().Serialize(), expected.Serialize());
  ExpectMatchesReference(merged.value(), xs, tuples, ConstantYm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingTablePropertyTest,
                         ::testing::Range(0, 25));

TEST(MappingTableTest, AdoptKeepsAddRowChecks) {
  // Exclusion values of the wrong type are refused on adoption as by
  // AddRow; so is a split leaving one side empty.
  FreeTable free(IntSchema({"A", "B"}));
  ASSERT_TRUE(free.AddRow(
      Mapping({Cell::Variable(0, {Value("text")}), Cell::Variable(1)})));
  auto adopted = MappingTable::Adopt(free, 1);
  ASSERT_FALSE(adopted.ok());
  MappingTable t =
      MappingTable::Create(IntSchema({"A"}), IntSchema({"B"})).value();
  Status added = t.AddRow(free.rows()[0]);
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(adopted.status().ToString(), added.ToString());
  EXPECT_FALSE(MappingTable::Adopt(FreeTable(IntSchema({"A", "B"})), 2).ok());
  EXPECT_FALSE(MappingTable::Adopt(FreeTable(IntSchema({"A", "B"})), 0).ok());
}

}  // namespace
}  // namespace hyperion
