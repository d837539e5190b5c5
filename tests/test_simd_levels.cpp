// The SIMD level-axis kernel's contracts: the vectorized per-level tail of
// model_cost_all_levels must be BIT-identical to the un-memoized per-level
// reference model_cost_at (layer by layer, across the model zoo, the
// default five-level ladder AND awkward level counts that exercise the
// loop's scalar epilogue), scratch reuse must be invisible to results, and
// a warmed scratch must make the kernel allocation-free
// (counting-probe-enforced).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "hw/dvfs.h"
#include "models/zoo.h"
#include "runtime/cost_table.h"

// Global allocation probe for the zero-allocation steady-state assertions.
// Counts every operator-new call (and its bytes) in the process; a test
// reads the counters around the code under test. Plain malloc-backed
// replacements — the kernel's containers (vector<double>, vector<ModelCost>,
// vector<LayerCost>) all allocate through the unaligned throwing operator
// new.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void count_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  count_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xrbench {
namespace {

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

/// A strictly-ascending k-point ladder anchored at `nominal_clock` (the
/// 1.0x multiplier is always the last, nominal, point) with the default
/// ladder's near-linear V/f relation. Level counts that are not multiples
/// of the vector width exercise the SIMD loop's scalar epilogue.
hw::DvfsState ladder_with_levels(std::size_t k, double nominal_clock) {
  hw::DvfsState dvfs;
  dvfs.levels.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double mult = 1.0 - 0.1 * static_cast<double>(k - 1 - i);
    hw::DvfsOperatingPoint op;
    op.freq_ghz = nominal_clock * mult;
    op.voltage_v = hw::kNominalVoltageV * (0.55 + 0.45 * mult);
    dvfs.levels.push_back(op);
  }
  dvfs.nominal_level = k - 1;
  return dvfs;
}

costmodel::SubAccelConfig accel_with_levels(costmodel::Dataflow df,
                                            std::int64_t pes, std::size_t k) {
  costmodel::SubAccelConfig a;
  a.id = "simd-test";
  a.dataflow = df;
  a.num_pes = pes;
  a.dvfs = ladder_with_levels(k, a.clock_ghz);
  return a;
}

TEST(SimdLevels, BitIdenticalToModelCostAtAcrossZooAndDefaultLadder) {
  // The kernel contract on the real five-level ladder: batching the level
  // axis changes the instruction sequence, never a single result bit.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  for (const auto& sa : sys.sub_accels) {
    ASSERT_GT(sa.dvfs.levels.size(), 1u);
    for (models::TaskId t : models::all_tasks()) {
      SCOPED_TRACE("task " + std::string(models::task_code(t)) + " on " +
                   sa.id);
      const auto& graph = models::model_graph(t);
      const auto batched = cm.model_cost_all_levels(graph, sa);
      ASSERT_EQ(batched.size(), sa.dvfs.num_levels());
      for (std::size_t lvl = 0; lvl < batched.size(); ++lvl) {
        SCOPED_TRACE("level " + std::to_string(lvl));
        expect_model_cost_eq(batched[lvl], cm.model_cost_at(graph, sa, lvl));
      }
    }
  }
}

TEST(SimdLevels, BitIdenticalOnAwkwardLevelCounts) {
  // 1, 2, 3, 6 and 7 levels are not multiples of the 2- or 4-wide vector
  // steps, so every count runs part of the level axis through the scalar
  // epilogue. Each level must still match the per-level ground truth.
  costmodel::AnalyticalCostModel cm;
  const auto& graph = models::model_graph(models::TaskId::kHT);
  for (std::size_t k : {1u, 2u, 3u, 6u, 7u}) {
    SCOPED_TRACE("levels " + std::to_string(k));
    const auto a = accel_with_levels(costmodel::Dataflow::kWS, 4096, k);
    ASSERT_TRUE(a.valid());
    const auto batched = cm.model_cost_all_levels(graph, a);
    ASSERT_EQ(batched.size(), k);
    for (std::size_t lvl = 0; lvl < k; ++lvl) {
      SCOPED_TRACE("level " + std::to_string(lvl));
      expect_model_cost_eq(batched[lvl], cm.model_cost_at(graph, a, lvl));
    }
  }
}

TEST(SimdLevels, ScratchReuseBitIdenticalAcrossShapeChanges) {
  // One scratch driven through shrinking and growing (levels, layers)
  // shapes must keep producing exactly what a fresh evaluation produces —
  // stale lane or layer-list contents must never leak into a result.
  costmodel::AnalyticalCostModel cm;
  costmodel::AllLevelsScratch scratch;
  for (std::size_t k : {5u, 1u, 7u, 2u}) {
    for (models::TaskId t : {models::TaskId::kHT, models::TaskId::kES}) {
      SCOPED_TRACE("levels " + std::to_string(k) + " task " +
                   std::string(models::task_code(t)));
      const auto a = accel_with_levels(costmodel::Dataflow::kOS, 2048, k);
      const auto& graph = models::model_graph(t);
      const auto& reused = cm.model_cost_all_levels(graph, a, scratch);
      const auto fresh = cm.model_cost_all_levels(graph, a);
      ASSERT_EQ(reused.size(), fresh.size());
      for (std::size_t lvl = 0; lvl < fresh.size(); ++lvl) {
        expect_model_cost_eq(reused[lvl], fresh[lvl]);
      }
    }
  }
}

TEST(SimdLevels, WarmedScratchIsAllocationFree) {
  // The heap-churn satellite: after one warm-up call at the same shape, the
  // scratch-reusing kernel must not allocate at all — the SoA lanes, the
  // accumulators and every per-level layer list retain their capacity.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  const auto& sa = sys.sub_accels[0];
  const auto& graph = models::model_graph(models::TaskId::kHT);
  costmodel::AllLevelsScratch scratch;
  cm.model_cost_all_levels(graph, sa, scratch);  // warm-up sizes everything

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const auto& result = cm.model_cost_all_levels(graph, sa, scratch);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state model_cost_all_levels allocated";
  EXPECT_EQ(result.size(), sa.dvfs.num_levels());
}

TEST(SimdLevels, WarmCostTableBuildIsAViewOverTheMemo) {
  // A warm build looks every (task, sub-accelerator) up in the model memo
  // (no misses) and only shares the entries: its heap traffic is a few
  // per-table arrays, not one allocation per lookup and not one double per
  // layer. The bound is the zoo's layer count, which a per-layer prefix
  // copy (levels x sub-accelerators x 3 doubles per layer) far exceeds.
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('M', 8192));
  const costmodel::AnalyticalCostModel cm;
  const runtime::CostTable cold(sys, cm);
  const auto misses = cm.model_memo_stats().misses;

  std::size_t zoo_layers = 0;
  for (models::TaskId t : models::all_tasks()) {
    zoo_layers += models::model_graph(t).num_layers();
  }
  const std::uint64_t calls_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t bytes_before =
      g_alloc_bytes.load(std::memory_order_relaxed);
  const runtime::CostTable warm(sys, cm);
  const std::uint64_t calls =
      g_alloc_count.load(std::memory_order_relaxed) - calls_before;
  const std::uint64_t bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before;

  EXPECT_EQ(cm.model_memo_stats().misses, misses);
  EXPECT_LT(calls, models::kNumTasks)
      << "a warm build allocated per memo lookup";
  EXPECT_LT(bytes, zoo_layers * sizeof(double))
      << "a warm build allocated per layer";
  EXPECT_EQ(warm.layer_latency_prefix_ms(models::TaskId::kHT, 0, 0,
                                         warm.num_layers(models::TaskId::kHT)),
            cold.latency_ms(models::TaskId::kHT, 0, 0));
}

TEST(SimdLevels, CostTableMatchesModelCostAt) {
  // End to end through the CostTable build: every cell equals the
  // per-level reference, and every layer prefix equals the left-to-right
  // sum of the reference's per-layer costs.
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('M', 8192));
  const costmodel::AnalyticalCostModel cm;
  const runtime::CostTable table(sys, cm);
  for (models::TaskId t : models::all_tasks()) {
    const auto& graph = models::model_graph(t);
    for (std::size_t sa = 0; sa < sys.sub_accels.size(); ++sa) {
      for (std::size_t lvl = 0; lvl < sys.sub_accels[sa].dvfs.num_levels();
           ++lvl) {
        const auto ref = cm.model_cost_at(graph, sys.sub_accels[sa], lvl);
        const auto& cell = table.cost(t, sa, lvl);
        EXPECT_EQ(cell.latency_ms, ref.latency_ms);
        EXPECT_EQ(cell.energy_mj, ref.energy_mj);
        EXPECT_EQ(cell.static_energy_mj, ref.static_energy_mj);
        EXPECT_EQ(cell.avg_utilization, ref.avg_utilization);
        double lat = 0.0, energy = 0.0;
        for (std::size_t k = 0; k <= ref.layers.size(); ++k) {
          EXPECT_EQ(table.layer_latency_prefix_ms(t, sa, lvl, k), lat);
          EXPECT_EQ(table.layer_energy_prefix_mj(t, sa, lvl, k), energy);
          if (k < ref.layers.size()) {
            lat += ref.layers[k].latency_ms;
            energy += ref.layers[k].energy_mj;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace xrbench
