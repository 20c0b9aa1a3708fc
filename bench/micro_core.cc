// Google-benchmark microbenchmarks for the core primitives: table
// lookups, unification-based joins, projection, containment and
// partitioning.  These quantify the costs the experiment harnesses
// aggregate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/compose.h"
#include "core/containment.h"
#include "core/cover_engine.h"
#include "core/curator.h"
#include "core/partition.h"
#include "core/query.h"
#include "workload/bio_network.h"
#include "workload/id_gen.h"

namespace hyperion {
namespace {

MappingTable ChainTable(size_t rows, const std::string& x,
                        const std::string& y, size_t offset = 0) {
  MappingTable t =
      MappingTable::Create(Schema::Of({Attribute::String(x)}),
                           Schema::Of({Attribute::String(y)}), x + y)
          .value();
  for (size_t i = 0; i < rows; ++i) {
    // Synthetic generator values never violate the domain; the bench
    // drops the Status explicitly.
    IgnoreStatus(t.AddPair({Value(x + std::to_string(i))},
                           {Value(y + std::to_string(i + offset))}));
  }
  return t;
}

void BM_SatisfiesTuple(benchmark::State& state) {
  MappingTable t = ChainTable(static_cast<size_t>(state.range(0)), "a", "b");
  Tuple probe = {Value("a123"), Value("b123")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.SatisfiesTuple(probe));
  }
}
BENCHMARK(BM_SatisfiesTuple)->Arg(1000)->Arg(10000);

void BM_YmGround(benchmark::State& state) {
  MappingTable t = ChainTable(static_cast<size_t>(state.range(0)), "a", "b");
  Tuple x = {Value("a42")};
  for (auto _ : state) {
    auto ym = t.YmGround(x);
    benchmark::DoNotOptimize(ym);
  }
}
BENCHMARK(BM_YmGround)->Arg(1000)->Arg(10000);

void BM_NaturalJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  FreeTable a = FreeTable::FromMappingTable(ChainTable(rows, "a", "b"));
  FreeTable b = FreeTable::FromMappingTable(ChainTable(rows, "b", "c"));
  for (auto _ : state) {
    auto joined = a.NaturalJoin(b);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_NaturalJoin)->Arg(1000)->Arg(10000);

void BM_JoinWithVariableRow(benchmark::State& state) {
  // A catch-all row on one side forces pairing against every left row.
  size_t rows = static_cast<size_t>(state.range(0));
  FreeTable a = FreeTable::FromMappingTable(ChainTable(rows, "a", "b"));
  MappingTable vt =
      MappingTable::Create(Schema::Of({Attribute::String("b")}),
                           Schema::Of({Attribute::String("c")}), "v")
          .value();
  // The variable row matches the schema by construction.
  IgnoreStatus(vt.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1)})));
  FreeTable b = FreeTable::FromMappingTable(vt);
  for (auto _ : state) {
    auto joined = a.NaturalJoin(b);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_JoinWithVariableRow)->Arg(1000)->Arg(10000);

void BM_ProjectOnto(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  FreeTable a = FreeTable::FromMappingTable(ChainTable(rows, "a", "b"));
  FreeTable joined =
      a.NaturalJoin(FreeTable::FromMappingTable(ChainTable(rows, "b", "c")))
          .value();
  for (auto _ : state) {
    auto projected = joined.ProjectOnto({"a", "c"});
    benchmark::DoNotOptimize(projected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ProjectOnto)->Arg(1000)->Arg(10000);

void BM_StreamedJoin(benchmark::State& state) {
  // A peer's streaming join (§6): the local table is indexed once, then
  // every 64-row batch streamed in from downstream probes the index.  One
  // iteration streams the whole right table through.
  size_t rows = static_cast<size_t>(state.range(0));
  FreeTable local = FreeTable::FromMappingTable(ChainTable(rows, "a", "b"));
  FreeTable incoming =
      FreeTable::FromMappingTable(ChainTable(rows, "b", "c"));
  std::vector<std::vector<Mapping>> batches;
  for (size_t i = 0; i < incoming.size(); i += 64) {
    size_t end = std::min(incoming.size(), i + 64);
    batches.emplace_back(incoming.rows().begin() + i,
                         incoming.rows().begin() + end);
  }
  JoinIndex index = JoinIndex::Build(local, incoming.schema()).value();
  for (auto _ : state) {
    size_t joined = 0;
    for (const std::vector<Mapping>& batch : batches) {
      Status s = index.Join(local, batch, [&](size_t, Mapping row) {
        benchmark::DoNotOptimize(row);
        ++joined;
        return Status::OK();
      });
      if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    }
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_StreamedJoin)->Arg(1000)->Arg(10000);

// A finished cover handed to a MappingTable: re-adding every row against
// adopting the FreeTable's storage (ToMappingTable on an rvalue).
void BM_MappingTableAddRow(benchmark::State& state) {
  FreeTable cover = FreeTable::FromMappingTable(
      ChainTable(static_cast<size_t>(state.range(0)), "a", "c"));
  for (auto _ : state) {
    MappingTable t = MappingTable::Create(Schema::Of({Attribute::String("a")}),
                                          Schema::Of({Attribute::String("c")}),
                                          "cover")
                         .value();
    for (const Mapping& row : cover.rows()) IgnoreStatus(t.AddRow(row));
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MappingTableAddRow)->Arg(1000)->Arg(10000);

void BM_MappingTableAdopt(benchmark::State& state) {
  FreeTable cover = FreeTable::FromMappingTable(
      ChainTable(static_cast<size_t>(state.range(0)), "a", "c"));
  for (auto _ : state) {
    state.PauseTiming();
    FreeTable handed_off = cover;
    state.ResumeTiming();
    auto t = std::move(handed_off).ToMappingTable({"a"}, "cover");
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MappingTableAdopt)->Arg(1000)->Arg(10000);

// A curator write: one new row merged into a 1.5k-row table.
void BM_MergeUnion(benchmark::State& state) {
  MappingTable base = ChainTable(1500, "a", "b");
  MappingTable delta = MappingTable::Create(base.x_schema(), base.y_schema(),
                                            "delta")
                           .value();
  IgnoreStatus(delta.AddPair({Value("a-new")}, {Value("b-new")}));
  for (auto _ : state) {
    auto merged = MergeUnion(base, delta, base.name());
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_MergeUnion);

void BM_ComposeConstraints(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  MappingTable a = ChainTable(rows, "a", "b");
  MappingTable b = ChainTable(rows, "b", "c");
  for (auto _ : state) {
    auto cover =
        ComposeConstraints(MappingConstraint(a), MappingConstraint(b));
    benchmark::DoNotOptimize(cover);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ComposeConstraints)->Arg(1000)->Arg(10000);

void BM_ContainmentGround(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  MappingTable small = ChainTable(rows / 2, "a", "b");
  MappingTable big = ChainTable(rows, "a", "b");
  for (auto _ : state) {
    auto contained = TableContained(small, big);
    benchmark::DoNotOptimize(contained);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows / 2));
}
BENCHMARK(BM_ContainmentGround)->Arg(1000)->Arg(10000);

void BM_ComputePartitions(benchmark::State& state) {
  // Many constraints over a sliding attribute window: a long chain of
  // overlaps that union-find must collapse.
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<MappingConstraint> constraints;
  for (size_t i = 0; i < n; ++i) {
    MappingTable t =
        MappingTable::Create(
            Schema::Of({Attribute::String("A" + std::to_string(i))}),
            Schema::Of({Attribute::String("A" + std::to_string(i + 1))}),
            "c" + std::to_string(i))
            .value();
    IgnoreStatus(t.AddPair({Value("x")}, {Value("y")}));  // fixed literals
    constraints.emplace_back(std::move(t));
  }
  for (auto _ : state) {
    auto partitions = ComputePartitions(constraints);
    benchmark::DoNotOptimize(partitions);
  }
}
BENCHMARK(BM_ComputePartitions)->Arg(64)->Arg(512);

void BM_BioGenerate(benchmark::State& state) {
  for (auto _ : state) {
    BioConfig config;
    config.num_entities = static_cast<size_t>(state.range(0));
    auto workload = BioWorkload::Generate(config);
    benchmark::DoNotOptimize(workload);
  }
}
BENCHMARK(BM_BioGenerate)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_JoinViaMapping(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Relation left(Schema::Of({Attribute::String("a")}));
  Relation right(Schema::Of({Attribute::String("b")}));
  MappingTable table = ChainTable(rows, "a", "b");
  for (size_t i = 0; i < rows; ++i) {
    // Same generator-values-are-valid argument as ChainTable.
    IgnoreStatus(left.Add({Value("a" + std::to_string(i))}));
    IgnoreStatus(right.Add({Value("b" + std::to_string(i))}));
  }
  for (auto _ : state) {
    auto joined = JoinViaMapping(left, table, right);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_JoinViaMapping)->Arg(1000)->Arg(10000);

void BM_TranslateQuery(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  MappingTable table = ChainTable(rows, "a", "b");
  SelectionQuery q;
  q.attrs = {"a"};
  for (size_t i = 0; i < rows; i += 4) {
    q.keys.push_back({Value("a" + std::to_string(i))});
  }
  for (auto _ : state) {
    auto out = TranslateQuery(q, table);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(q.keys.size()));
}
BENCHMARK(BM_TranslateQuery)->Arg(1000)->Arg(10000);

void BM_CoverDelta(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  MappingTable ab = ChainTable(rows, "a", "b");
  MappingTable bc = ChainTable(rows, "b", "c");
  auto path = ConstraintPath::Create(
                  {AttributeSet::Of({Attribute::String("a")}),
                   AttributeSet::Of({Attribute::String("b")}),
                   AttributeSet::Of({Attribute::String("c")})},
                  {{MappingConstraint(ab)}, {MappingConstraint(bc)}})
                  .value();
  std::vector<Mapping> delta;
  for (size_t i = 0; i < 32; ++i) {
    delta.push_back(Mapping::FromTuple(
        {Value("aNEW" + std::to_string(i)), Value("b" + std::to_string(i))}));
  }
  CoverEngine engine;
  for (auto _ : state) {
    auto d = engine.CoverDeltaForAddedRows(path, 0, 0, delta, {"a"}, {"c"});
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_CoverDelta)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_TableSerializeParse(benchmark::State& state) {
  MappingTable t = ChainTable(static_cast<size_t>(state.range(0)), "a", "b");
  for (auto _ : state) {
    std::string text = t.Serialize();
    auto parsed = MappingTable::Parse(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableSerializeParse)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyperion

BENCHMARK_MAIN();
