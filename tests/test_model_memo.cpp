// The raw-speed ladder's correctness contracts: the level-batched
// all-levels kernel must be bit-identical to the per-level path, the
// model-level memo must count hits/misses, key on layer content (not graph
// identity, and never on a stale snapshot) and spread keys evenly across
// its shards, and a warm
// (memoized) full-suite sweep must reproduce the cold run bit-exactly at
// any worker count.

#include <gtest/gtest.h>

#include <vector>

#include "core/sweep.h"
#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "models/zoo.h"
#include "runtime/cost_table.h"

namespace xrbench {
namespace {

costmodel::SubAccelConfig accel(costmodel::Dataflow df, std::int64_t pes) {
  costmodel::SubAccelConfig a;
  a.id = "test";
  a.dataflow = df;
  a.num_pes = pes;
  return a;
}

void expect_layer_cost_eq(const costmodel::LayerCost& a,
                          const costmodel::LayerCost& b) {
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.noc_cycles, b.noc_cycles);
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.static_energy_mj, b.static_energy_mj);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.sram_traffic_bytes, b.sram_traffic_bytes);
  EXPECT_EQ(a.dram_traffic_bytes, b.dram_traffic_bytes);
}

void expect_model_cost_eq(const costmodel::ModelCost& a,
                          const costmodel::ModelCost& b) {
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.static_energy_mj, b.static_energy_mj);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.dram_traffic_bytes, b.dram_traffic_bytes);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    expect_layer_cost_eq(a.layers[i], b.layers[i]);
  }
}

TEST(AllLevels, BitIdenticalToPerLevelPathOnDvfsLadder) {
  // The tentpole contract: one batched layer walk == num_levels separate
  // walks, bit for bit, across every zoo model and a DVFS-laddered design.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  for (const auto& sa : sys.sub_accels) {
    ASSERT_GT(sa.dvfs.levels.size(), 1u);
    for (models::TaskId t : models::all_tasks()) {
      const auto& graph = models::model_graph(t);
      const auto all = cm.model_cost_all_levels(graph, sa);
      ASSERT_EQ(all.size(), sa.dvfs.num_levels());
      for (std::size_t lvl = 0; lvl < all.size(); ++lvl) {
        SCOPED_TRACE("task " + std::string(models::task_code(t)) +
                     " level " + std::to_string(lvl));
        expect_model_cost_eq(all[lvl], cm.model_cost_at(graph, sa, lvl));
      }
    }
  }
}

TEST(AllLevels, EmptyLadderYieldsSingleNominalLevel) {
  costmodel::AnalyticalCostModel cm;
  const auto a = accel(costmodel::Dataflow::kOS, 2048);
  const auto& graph = models::model_graph(models::TaskId::kHT);
  const auto all = cm.model_cost_all_levels(graph, a);
  ASSERT_EQ(all.size(), 1u);
  expect_model_cost_eq(all[0], cm.model_cost(graph, a));
  expect_model_cost_eq(all[0], cm.model_cost_at(graph, a, 0));
}

TEST(AllLevels, RejectsInvalidConfig) {
  costmodel::AnalyticalCostModel cm;
  auto a = accel(costmodel::Dataflow::kWS, 4096);
  a.num_pes = 0;
  const auto& graph = models::model_graph(models::TaskId::kHT);
  EXPECT_THROW(cm.model_cost_all_levels(graph, a), std::invalid_argument);
}

TEST(AllLevels, CostTableBuildsBitIdenticalToPerLevelPath) {
  // CostTable now builds through cached_model_cost_all_levels; every cell
  // and every layer-prefix entry must match the per-level reference.
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('M', 8192));
  costmodel::AnalyticalCostModel cm;
  const runtime::CostTable table(sys, cm);
  const costmodel::AnalyticalCostModel reference;
  for (models::TaskId t : models::all_tasks()) {
    const auto& graph = models::model_graph(t);
    for (std::size_t sa = 0; sa < sys.sub_accels.size(); ++sa) {
      for (std::size_t lvl = 0; lvl < sys.sub_accels[sa].dvfs.num_levels();
           ++lvl) {
        const auto mc =
            reference.model_cost_at(graph, sys.sub_accels[sa], lvl);
        const auto& cell = table.cost(t, sa, lvl);
        EXPECT_EQ(cell.latency_ms, mc.latency_ms);
        EXPECT_EQ(cell.energy_mj, mc.energy_mj);
        EXPECT_EQ(cell.static_energy_mj, mc.static_energy_mj);
        EXPECT_EQ(cell.avg_utilization, mc.avg_utilization);
      }
    }
  }
}

TEST(ModelMemo, CountsHitsMissesAndInserts) {
  costmodel::AnalyticalCostModel cm;
  const auto a = accel(costmodel::Dataflow::kWS, 4096);
  const auto& graph = models::model_graph(models::TaskId::kHT);

  EXPECT_EQ(cm.model_memo_stats().entries, 0u);
  const auto first = cm.cached_model_cost_all_levels(graph, a);
  auto s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.shard_entries.size(),
            costmodel::AnalyticalCostModel::kModelMemoShards);

  // Hits share the cached entry, they don't copy it.
  const auto second = cm.cached_model_cost_all_levels(graph, a);
  const auto third = cm.cached_model_cost_all_levels(graph, a);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(third.get(), first.get());
  s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 2.0 / 3.0);

  // A different config is a distinct key.
  cm.cached_model_cost_all_levels(graph, accel(costmodel::Dataflow::kOS,
                                               4096));
  s = cm.model_memo_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);

  cm.clear_model_memo();
  s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(ModelMemo, CachedValueMatchesUncachedKernel) {
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('A', 4096));
  const auto& sa = sys.sub_accels[0];
  const auto& graph = models::model_graph(models::TaskId::kES);
  const auto cached = cm.cached_model_cost_all_levels(graph, sa);
  const auto direct = cm.model_cost_all_levels(graph, sa);
  ASSERT_EQ(cached->levels().size(), direct.size());
  for (std::size_t lvl = 0; lvl < direct.size(); ++lvl) {
    expect_model_cost_eq(cached->levels()[lvl], direct[lvl]);
  }
}

TEST(ModelMemo, EqualLayerListsShareOneEntryAcrossGraphs) {
  // Names are not part of the key: two distinct graphs with equal layer
  // lists hit one entry (the second graph's signature is compared in full,
  // it is not the same object).
  costmodel::AnalyticalCostModel cm;
  const auto a = accel(costmodel::Dataflow::kWS, 4096);
  const auto& zoo = models::model_graph(models::TaskId::kKD);
  costmodel::ModelGraph first("first");
  costmodel::ModelGraph second("second");
  for (const auto& layer : zoo.layers()) {
    first.add(layer);
    second.add(layer);
  }
  ASSERT_NE(&first.signature(), &second.signature());

  const auto x = cm.cached_model_cost_all_levels(first, a);
  const auto y = cm.cached_model_cost_all_levels(second, a);
  EXPECT_EQ(x.get(), y.get());
  const auto s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ModelMemo, GraphGrownAfterLookupGetsAFreshEntry) {
  // The memo key shares the graph's signature snapshot; add() must copy it
  // rather than grow it under the key, so the grown graph misses and the
  // value handed out earlier still describes the old layer list.
  costmodel::AnalyticalCostModel cm;
  const auto a = accel(costmodel::Dataflow::kOS, 2048);
  const auto& zoo = models::model_graph(models::TaskId::kGE);
  costmodel::ModelGraph graph("grown");
  for (std::size_t i = 0; i + 1 < zoo.num_layers(); ++i) {
    graph.add(zoo.layers()[i]);
  }
  const auto before = cm.cached_model_cost_all_levels(graph, a);
  const double before_latency = before->levels()[0].latency_ms;
  ASSERT_EQ(before->num_layers(), zoo.num_layers() - 1);

  graph.add(zoo.layers().back());
  const auto after = cm.cached_model_cost_all_levels(graph, a);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(after->num_layers(), zoo.num_layers());
  auto s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);

  // The earlier shared value is untouched and still matches its layers.
  EXPECT_EQ(before->num_layers(), zoo.num_layers() - 1);
  EXPECT_EQ(before->levels()[0].latency_ms, before_latency);
  EXPECT_EQ(before->levels()[0].layers.size(), zoo.num_layers() - 1);
  // The earlier key still describes the shorter list: a fresh graph with
  // those layers hits it, and the full graph shares the grown entry.
  costmodel::ModelGraph shorter("shorter");
  for (std::size_t i = 0; i + 1 < zoo.num_layers(); ++i) {
    shorter.add(zoo.layers()[i]);
  }
  EXPECT_EQ(cm.cached_model_cost_all_levels(shorter, a).get(), before.get());
  EXPECT_EQ(cm.cached_model_cost_all_levels(zoo, a).get(), after.get());
  s = cm.model_memo_stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ModelMemo, PrefixesEndAtTheWholeModelCost) {
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  for (models::TaskId t : models::all_tasks()) {
    const auto entry =
        cm.cached_model_cost_all_levels(models::model_graph(t),
                                        sys.sub_accels[0]);
    const std::size_t n = entry->num_layers();
    for (std::size_t lvl = 0; lvl < entry->levels().size(); ++lvl) {
      const auto& mc = entry->levels()[lvl];
      EXPECT_EQ(entry->latency_prefix_ms(lvl, 0), 0.0);
      EXPECT_EQ(entry->latency_prefix_ms(lvl, n), mc.latency_ms);
      EXPECT_EQ(entry->energy_prefix_mj(lvl, n), mc.energy_mj);
      EXPECT_EQ(entry->static_prefix_mj(lvl, n), mc.static_energy_mj);
      EXPECT_EQ(entry->completed_layers(lvl, 0, mc.latency_ms), n);
      EXPECT_EQ(entry->completed_layers(lvl, n, 0.0), n);
    }
  }
}

TEST(ModelMemo, ShardDistributionIsBalancedOnModelZoo) {
  // The PE-count-sweep clustering regression: keys differing only in small
  // integer fields must not pile into a couple of shards. The grid
  // (3 dataflows x 4 PE counts x zoo) gives well over 10 entries per shard.
  costmodel::AnalyticalCostModel cm;
  for (auto df : {costmodel::Dataflow::kWS, costmodel::Dataflow::kOS,
                  costmodel::Dataflow::kRS}) {
    for (std::int64_t pes : {1024ll, 2048ll, 4096ll, 8192ll}) {
      const auto a = accel(df, pes);
      for (models::TaskId t : models::all_tasks()) {
        cm.cached_model_cost_all_levels(models::model_graph(t), a);
      }
    }
  }
  const auto stats = cm.model_memo_stats();
  ASSERT_EQ(stats.shard_entries.size(),
            costmodel::AnalyticalCostModel::kModelMemoShards);
  ASSERT_GT(stats.entries,
            10 * costmodel::AnalyticalCostModel::kModelMemoShards)
      << "not enough entries for a meaningful distribution check";
  const double mean =
      static_cast<double>(stats.entries) /
      static_cast<double>(costmodel::AnalyticalCostModel::kModelMemoShards);
  for (std::size_t i = 0; i < stats.shard_entries.size(); ++i) {
    EXPECT_LE(static_cast<double>(stats.shard_entries[i]), 2.0 * mean)
        << "shard " << i << " holds " << stats.shard_entries[i] << " of "
        << stats.entries << " entries (mean " << mean << ")";
  }
}

TEST(ModelMemo, WarmSweepBitIdenticalToColdAtOneAndFourWorkers) {
  // Memoized (warm) full-suite sweeps must reproduce the cold run's scores
  // bit-exactly, serial and parallel alike.
  core::HarnessOptions opt;
  opt.run.duration_ms = 200.0;
  opt.dynamic_trials = 2;
  std::vector<core::SweepPoint> points;
  for (char id : {'A', 'J'}) {
    points.push_back({std::string(1, id),
                      hw::with_default_dvfs(hw::make_accelerator(id, 4096)),
                      opt});
  }

  core::SweepEngine serial(1);
  const auto cold = serial.run_suite_points(points);
  const auto cold_stats = serial.model_memo_stats();
  EXPECT_GT(cold_stats.entries, 0u);

  // Second pass on the same engine: pure model-memo hits, same scores.
  const auto warm = serial.run_suite_points(points);
  const auto warm_stats = serial.model_memo_stats();
  EXPECT_GT(warm_stats.hits, cold_stats.hits);
  EXPECT_EQ(warm_stats.entries, cold_stats.entries);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t p = 0; p < cold.size(); ++p) {
    EXPECT_EQ(warm[p].score.overall, cold[p].score.overall);
    EXPECT_EQ(warm[p].score.realtime, cold[p].score.realtime);
    EXPECT_EQ(warm[p].score.energy, cold[p].score.energy);
    EXPECT_EQ(warm[p].score.qoe, cold[p].score.qoe);
  }

  // Fresh engine at 4 workers, cold then warm: identical to the serial run.
  core::SweepEngine parallel(4);
  for (int pass = 0; pass < 2; ++pass) {
    const auto outcomes = parallel.run_suite_points(points);
    ASSERT_EQ(outcomes.size(), cold.size());
    for (std::size_t p = 0; p < cold.size(); ++p) {
      EXPECT_EQ(outcomes[p].score.overall, cold[p].score.overall);
      EXPECT_EQ(outcomes[p].score.realtime, cold[p].score.realtime);
      EXPECT_EQ(outcomes[p].score.energy, cold[p].score.energy);
      EXPECT_EQ(outcomes[p].score.qoe, cold[p].score.qoe);
    }
  }
}

}  // namespace
}  // namespace xrbench
