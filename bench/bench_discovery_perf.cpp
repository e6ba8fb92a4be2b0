// A4 — Discovery throughput: TANE / OD / ND / DD scaling in rows and
// columns (google-benchmark).
#include <benchmark/benchmark.h>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/rfd_discovery.h"
#include "discovery/tane.h"
#include "partition/position_list_index.h"

namespace metaleak {
namespace {

Relation UniformRelation(size_t rows, size_t cats, size_t conts,
                         size_t domain) {
  return std::move(
             datasets::SyntheticUniform(rows, cats, conts, domain, 1234))
      .ValueOrDie();
}

void BM_PliConstruction(benchmark::State& state) {
  EncodedRelation enc = EncodedRelation::Encode(
      UniformRelation(static_cast<size_t>(state.range(0)), 1, 0, 32));
  for (auto _ : state) {
    PositionListIndex pli = PositionListIndex::FromEncoded(enc, {0});
    benchmark::DoNotOptimize(pli.num_clusters());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliConstruction)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PliIntersection(benchmark::State& state) {
  EncodedRelation enc = EncodedRelation::Encode(
      UniformRelation(static_cast<size_t>(state.range(0)), 2, 0, 32));
  PositionListIndex a = PositionListIndex::FromEncoded(enc, {0});
  PositionListIndex b = PositionListIndex::FromEncoded(enc, {1});
  for (auto _ : state) {
    PositionListIndex ab = a.Intersect(b);
    benchmark::DoNotOptimize(ab.num_clusters());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliIntersection)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TaneRows(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 6, 0,
                                 8);
  TaneOptions options;
  options.max_lhs_size = 3;
  for (auto _ : state) {
    auto result = DiscoverFds(rel, options);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TaneRows)->Arg(500)->Arg(2000)->Arg(8000);

void BM_TaneColumns(benchmark::State& state) {
  Relation rel = UniformRelation(1000, static_cast<size_t>(state.range(0)),
                                 0, 6);
  TaneOptions options;
  options.max_lhs_size = 3;
  for (auto _ : state) {
    auto result = DiscoverFds(rel, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_TaneColumns)->Arg(4)->Arg(8)->Arg(12);

void BM_TaneEchocardiogram(benchmark::State& state) {
  Relation rel = datasets::Echocardiogram();
  TaneOptions options;
  options.max_lhs_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = DiscoverFds(rel, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_TaneEchocardiogram)->Arg(1)->Arg(2)->Arg(3);

void BM_OdDiscovery(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 0, 6,
                                 8);
  for (auto _ : state) {
    auto result = DiscoverOds(rel);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OdDiscovery)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_NdDiscovery(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 6, 0,
                                 12);
  for (auto _ : state) {
    auto result = DiscoverNds(rel);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NdDiscovery)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_DdDiscovery(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 0, 4,
                                 8);
  for (auto _ : state) {
    auto result = DiscoverDds(rel);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DdDiscovery)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_FullProfile(benchmark::State& state) {
  Relation rel = datasets::Echocardiogram();
  for (auto _ : state) {
    auto report = ProfileRelation(rel);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_FullProfile);

}  // namespace
}  // namespace metaleak

BENCHMARK_MAIN();
