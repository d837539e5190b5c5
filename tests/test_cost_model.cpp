#include "costmodel/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xrbench::costmodel {
namespace {

SubAccelConfig accel(Dataflow df, std::int64_t pes) {
  SubAccelConfig a;
  a.id = "test";
  a.dataflow = df;
  a.num_pes = pes;
  return a;
}

TEST(Dataflow, NamesAndParsing) {
  EXPECT_STREQ(dataflow_name(Dataflow::kWS), "WS");
  EXPECT_STREQ(dataflow_name(Dataflow::kOS), "OS");
  EXPECT_STREQ(dataflow_name(Dataflow::kRS), "RS");
  EXPECT_EQ(parse_dataflow("ws"), Dataflow::kWS);
  EXPECT_EQ(parse_dataflow("Os"), Dataflow::kOS);
  EXPECT_EQ(parse_dataflow("RS"), Dataflow::kRS);
  EXPECT_THROW(parse_dataflow("XY"), std::invalid_argument);
}

TEST(SpatialMapping, NeverExceedsPeBudget) {
  AnalyticalCostModel cm;
  const Layer layers[] = {
      conv2d("big", 512, 512, 64, 64, 3, 1),
      conv2d("small", 3, 8, 8, 8, 3, 1),
      dwconv2d("dw", 128, 32, 32, 3, 1),
      matmul("mm", 16, 512, 512),
      fully_connected("fc", 2048, 1000),
  };
  for (const auto& layer : layers) {
    for (Dataflow df : {Dataflow::kWS, Dataflow::kOS, Dataflow::kRS}) {
      for (std::int64_t pes : {256ll, 1024ll, 2048ll, 4096ll, 8192ll}) {
        const auto m = cm.spatial_mapping(layer, df, pes);
        EXPECT_LE(m.active_pes(), pes)
            << layer.name << " on " << dataflow_name(df) << " @ " << pes;
        EXPECT_GE(m.p0, 1);
        EXPECT_GE(m.p1, 1);
        EXPECT_GE(m.p2, 1);
      }
    }
  }
}

TEST(SpatialMapping, VectorOpsHaveTrivialMapping) {
  AnalyticalCostModel cm;
  const auto m =
      cm.spatial_mapping(elementwise("e", 1000), Dataflow::kWS, 4096);
  EXPECT_EQ(m.active_pes(), 1);
}

TEST(SpatialMapping, WsUnderutilizedOnSmallChannels) {
  AnalyticalCostModel cm;
  // C=3 stem layer: WS can only fill 3 of its 64 C-lanes.
  const Layer stem = conv2d("stem", 3, 64, 128, 128, 3, 2);
  const auto m = cm.spatial_mapping(stem, Dataflow::kWS, 4096);
  EXPECT_EQ(m.p1, 3);
  EXPECT_LT(m.active_pes(), 4096 / 2);
}

TEST(SpatialMapping, OsFillsSpatialLayers) {
  AnalyticalCostModel cm;
  const Layer wide = conv2d("wide", 32, 32, 128, 256, 3, 1);
  const auto m = cm.spatial_mapping(wide, Dataflow::kOS, 4096);
  // 16 Y-lanes x 16 X-lanes x 16-way tree = full array.
  EXPECT_EQ(m.active_pes(), 4096);
}

TEST(LayerCost, ComputeBoundMatchesRoofline) {
  AnalyticalCostModel cm;
  const Layer l = conv2d("c", 256, 256, 32, 32, 3, 1);
  const auto a = accel(Dataflow::kWS, 4096);
  const auto cost = cm.layer_cost(l, a);
  EXPECT_GE(cost.total_cycles,
            std::max({cost.compute_cycles, cost.noc_cycles, cost.dram_cycles}));
  EXPECT_GT(cost.latency_ms, 0.0);
  EXPECT_GT(cost.energy_mj, 0.0);
  EXPECT_GT(cost.utilization, 0.0);
  EXPECT_LE(cost.utilization, 1.0 + 1e-9);
}

TEST(LayerCost, MorePesNeverSlower) {
  AnalyticalCostModel cm;
  const Layer l = conv2d("c", 256, 256, 32, 32, 3, 1);
  for (Dataflow df : {Dataflow::kWS, Dataflow::kOS, Dataflow::kRS}) {
    const auto c4 = cm.layer_cost(l, accel(df, 4096));
    const auto c8 = cm.layer_cost(l, accel(df, 8192));
    EXPECT_LE(c8.compute_cycles, c4.compute_cycles) << dataflow_name(df);
  }
}

TEST(LayerCost, VectorOpIsMemoryBound) {
  AnalyticalCostModel cm;
  const Layer l = elementwise("e", 1 << 20);
  const auto cost = cm.layer_cost(l, accel(Dataflow::kWS, 4096));
  EXPECT_GT(cost.latency_ms, 0.0);
  EXPECT_EQ(cost.utilization, 0.0);
}

TEST(LayerCost, InvalidLayerThrows) {
  AnalyticalCostModel cm;
  Layer bad = conv2d("c", 4, 8, 8, 8, 3, 1);
  bad.c = 0;
  EXPECT_THROW(cm.layer_cost(bad, accel(Dataflow::kWS, 4096)),
               std::invalid_argument);
}

TEST(LayerCost, InvalidAccelThrows) {
  AnalyticalCostModel cm;
  auto a = accel(Dataflow::kWS, 4096);
  a.num_pes = 0;
  EXPECT_THROW(cm.layer_cost(conv2d("c", 4, 8, 8, 8, 3, 1), a),
               std::invalid_argument);
}

TEST(LayerCost, DepthwiseFavorsNonWs) {
  AnalyticalCostModel cm;
  // Large depthwise layer: WS has no cross-channel reduction to fill its
  // C-lanes, so OS/RS should need fewer compute cycles.
  const Layer dw = dwconv2d("dw", 256, 56, 56, 3, 1);
  const auto ws = cm.layer_cost(dw, accel(Dataflow::kWS, 4096));
  const auto os = cm.layer_cost(dw, accel(Dataflow::kOS, 4096));
  EXPECT_LT(os.compute_cycles, ws.compute_cycles);
}

TEST(LayerCost, MatmulFavorsWsOverOs) {
  AnalyticalCostModel cm;
  // Few-token transformer matmul: OS has almost no spatial dimension to
  // parallelize; WS fills its K x C array.
  const Layer mm = matmul("mm", 11, 512, 512);
  const auto ws = cm.layer_cost(mm, accel(Dataflow::kWS, 4096));
  const auto os = cm.layer_cost(mm, accel(Dataflow::kOS, 4096));
  EXPECT_LT(ws.compute_cycles, os.compute_cycles);
}

TEST(LayerCost, DramRefetchWhenWeightsExceedSram) {
  AnalyticalCostModel cm;
  auto a = accel(Dataflow::kWS, 4096);
  a.sram_bytes = 1 << 16;  // 64 KiB: force tiling
  // Both weights (~2.4 MB) and activations (~2.2 MB) far exceed SRAM, so
  // one side must be re-streamed per tile of the other.
  const Layer fat = conv2d("conv", 512, 512, 64, 64, 3, 1);
  const auto tight = cm.layer_cost(fat, a);
  a.sram_bytes = 64ll << 20;  // plenty
  const auto roomy = cm.layer_cost(fat, a);
  EXPECT_GT(tight.dram_traffic_bytes, roomy.dram_traffic_bytes);
}

TEST(LayerCost, EnergyGrowsWithTraffic) {
  EnergyParams cheap_dram;
  cheap_dram.dram_pj_per_byte = 1.0;
  EnergyParams pricey_dram;
  pricey_dram.dram_pj_per_byte = 1000.0;
  const Layer l = conv2d("c", 64, 64, 32, 32, 3, 1);
  const auto a = accel(Dataflow::kWS, 4096);
  const auto e_cheap = AnalyticalCostModel(cheap_dram).layer_cost(l, a);
  const auto e_pricey = AnalyticalCostModel(pricey_dram).layer_cost(l, a);
  EXPECT_GT(e_pricey.energy_mj, e_cheap.energy_mj);
}

TEST(ModelCost, SumsLayers) {
  AnalyticalCostModel cm;
  ModelGraph g("g");
  g.add(conv2d("c1", 16, 16, 16, 16, 3, 1));
  g.add(conv2d("c2", 16, 16, 16, 16, 3, 1));
  const auto a = accel(Dataflow::kWS, 4096);
  const auto mc = cm.model_cost(g, a);
  ASSERT_EQ(mc.layers.size(), 2u);
  EXPECT_NEAR(mc.latency_ms,
              mc.layers[0].latency_ms + mc.layers[1].latency_ms, 1e-12);
  EXPECT_NEAR(mc.energy_mj, mc.layers[0].energy_mj + mc.layers[1].energy_mj,
              1e-12);
  EXPECT_GT(mc.avg_utilization, 0.0);
}

TEST(ModelCost, EmptyGraphIsFree) {
  AnalyticalCostModel cm;
  const auto mc = cm.model_cost(ModelGraph("e"), accel(Dataflow::kOS, 4096));
  EXPECT_EQ(mc.latency_ms, 0.0);
  EXPECT_EQ(mc.energy_mj, 0.0);
  EXPECT_EQ(mc.avg_utilization, 0.0);
}

/// Property sweep: costs are finite, positive, and monotone-ish in PE count
/// for all dataflow x layer-shape combinations.
struct CostCase {
  Dataflow dataflow;
  std::int64_t pes;
};

class CostModelSweep : public ::testing::TestWithParam<CostCase> {};

TEST_P(CostModelSweep, SaneCostsAcrossShapes) {
  AnalyticalCostModel cm;
  const auto p = GetParam();
  const auto a = accel(p.dataflow, p.pes);
  const Layer layers[] = {
      conv2d("c3", 3, 32, 128, 128, 3, 2),
      conv2d("c256", 256, 256, 16, 16, 3, 1),
      dwconv2d("dw", 64, 64, 64, 5, 1),
      matmul("mm", 128, 768, 768),
      fully_connected("fc", 1024, 1000),
      pool("pool", 64, 16, 16, 2),
      layer_norm("ln", 128, 768),
      softmax("sm", 128, 128),
      upsample("up", 32, 64, 64),
      roi_align("roi", 100, 256, 7),
  };
  for (const auto& l : layers) {
    const auto cost = cm.layer_cost(l, a);
    EXPECT_TRUE(std::isfinite(cost.latency_ms)) << l.name;
    EXPECT_GT(cost.latency_ms, 0.0) << l.name;
    EXPECT_TRUE(std::isfinite(cost.energy_mj)) << l.name;
    EXPECT_GT(cost.energy_mj, 0.0) << l.name;
    EXPECT_GE(cost.utilization, 0.0) << l.name;
    EXPECT_LE(cost.utilization, 1.0 + 1e-9) << l.name;
    EXPECT_GE(cost.dram_traffic_bytes,
              static_cast<double>(l.output_bytes()) * 0.25 - 1.0)
        << l.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CostModelSweep,
    ::testing::Values(CostCase{Dataflow::kWS, 1024},
                      CostCase{Dataflow::kWS, 4096},
                      CostCase{Dataflow::kWS, 8192},
                      CostCase{Dataflow::kOS, 1024},
                      CostCase{Dataflow::kOS, 4096},
                      CostCase{Dataflow::kOS, 8192},
                      CostCase{Dataflow::kRS, 1024},
                      CostCase{Dataflow::kRS, 4096},
                      CostCase{Dataflow::kRS, 8192}));

}  // namespace
}  // namespace xrbench::costmodel
