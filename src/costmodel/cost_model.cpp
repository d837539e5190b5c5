#include "costmodel/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace xrbench::costmodel {
namespace {

double ceil_div(double a, double b) { return std::ceil(a / b); }

std::int64_t bounded(std::int64_t dim, std::int64_t budget) {
  return std::max<std::int64_t>(1, std::min(dim, budget));
}

/// Finalizer-grade 64-bit mixer (splitmix64). The memo key fields are tiny
/// integers (PE counts, layer dims) whose raw bits cluster in the low byte;
/// LayerSignature::fold accumulates them cheaply (one xor-multiply per
/// field, no per-field avalanche chains) and a single splitmix64 finalizer
/// spreads the accumulated entropy across all 64 bits. Without the
/// finalizer a PE-count sweep lands whole key families in a handful of
/// shards/buckets.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t hash_double(double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  return static_cast<std::size_t>(bits);
}

}  // namespace

void AllLevelsScratch::ensure(std::size_t levels, std::size_t layers) {
  num_levels = levels;
  // resize/assign within capacity never reallocates: a warmed scratch stays
  // allocation-free. Parameter and output lanes are fully overwritten by
  // every call; only the accumulators need zeroing.
  for (auto* lane : {&clock_ghz, &noc_bpc, &offchip_bpc, &vr, &noc_cycles,
                     &dram_cycles, &total_cycles, &latency_ms, &utilization,
                     &static_mj, &energy_mj}) {
    lane->resize(levels);
  }
  for (auto* acc : {&acc_latency_ms, &acc_energy_mj, &acc_static_mj,
                    &acc_mac_weighted_util}) {
    acc->assign(levels, 0.0);
  }
  if (result.size() != levels) result.resize(levels);
  for (auto& mc : result) {
    mc.latency_ms = 0.0;
    mc.energy_mj = 0.0;
    mc.static_energy_mj = 0.0;
    mc.avg_utilization = 0.0;
    mc.dram_traffic_bytes = 0.0;
    mc.layers.clear();  // keeps capacity: zero-alloc once warmed
    mc.layers.reserve(layers);
  }
}

const char* dataflow_name(Dataflow d) {
  switch (d) {
    case Dataflow::kWS: return "WS";
    case Dataflow::kOS: return "OS";
    case Dataflow::kRS: return "RS";
  }
  return "?";
}

Dataflow parse_dataflow(const std::string& s) {
  std::string u;
  for (char c : s) u += static_cast<char>(std::toupper(c));
  if (u == "WS") return Dataflow::kWS;
  if (u == "OS") return Dataflow::kOS;
  if (u == "RS") return Dataflow::kRS;
  throw std::invalid_argument("parse_dataflow: unknown dataflow '" + s + "'");
}

AnalyticalCostModel::AnalyticalCostModel(EnergyParams energy)
    : energy_(energy) {}

AnalyticalCostModel::AnalyticalCostModel(const AnalyticalCostModel& other)
    : energy_(other.energy_) {}

AnalyticalCostModel& AnalyticalCostModel::operator=(
    const AnalyticalCostModel& other) {
  if (this != &other) {
    energy_ = other.energy_;
    clear_model_memo();
  }
  return *this;
}

SpatialMapping AnalyticalCostModel::spatial_mapping(
    const Layer& layer, Dataflow dataflow, std::int64_t num_pes) const {
  SpatialMapping m;
  if (is_vector_op(layer.type)) return m;
  const bool dw = layer.type == OpType::kDepthwiseConv2d;
  // Fixed array geometries (MAESTRO-style fixed dataflows): a layer whose
  // dimensions undershoot a lane budget leaves those lanes idle — this is
  // the under-utilization that makes dataflow choice matter per layer shape
  // (the core effect behind the paper's Figures 5-7).
  switch (dataflow) {
    case Dataflow::kWS: {
      // NVDLA-style 2D MAC array: output channels x input channels, with a
      // narrow input-column vector lane. Lane budget: C fixed at 64,
      // X fixed at 1 (columns stream temporally), K scales with the array.
      const std::int64_t x_lanes = 1;
      const std::int64_t c_lanes = 64;
      const std::int64_t k_lanes =
          std::max<std::int64_t>(1, num_pes / (x_lanes * c_lanes));
      const std::int64_t kdim = dw ? layer.c : layer.k;
      const std::int64_t cdim = dw ? 1 : layer.c;
      m.p0 = bounded(kdim, k_lanes);
      m.p1 = bounded(cdim, c_lanes);
      m.p2 = bounded(layer.x, x_lanes);
      break;
    }
    case Dataflow::kOS: {
      // Output rows x cols, each output lane backed by a 16-way adder tree.
      // Lane budget: Y fixed at 16, X scales with the array.
      const std::int64_t y_lanes = 16;
      const std::int64_t x_lanes = std::max<std::int64_t>(
          1, num_pes / (y_lanes * kOsAdderTreeWidth));
      m.p0 = bounded(layer.y, y_lanes);
      m.p1 = bounded(layer.x, x_lanes);
      const std::int64_t reduction = dw ? layer.r * layer.s : layer.c;
      m.p2 = bounded(reduction, kOsAdderTreeWidth);
      break;
    }
    case Dataflow::kRS: {
      // Eyeriss-style: output channels x output rows x kernel rows.
      // Lane budget: R fixed at 4, Y fixed at 16, K scales with the array.
      const std::int64_t r_lanes = 4;
      const std::int64_t y_lanes = 16;
      const std::int64_t k_lanes =
          std::max<std::int64_t>(1, num_pes / (r_lanes * y_lanes));
      const std::int64_t kdim = dw ? layer.c : layer.k;
      m.p0 = bounded(kdim, k_lanes);
      m.p1 = bounded(layer.y, y_lanes);
      m.p2 = bounded(layer.r, r_lanes);
      break;
    }
  }
  return m;
}

AnalyticalCostModel::LayerCostCore AnalyticalCostModel::mac_layer_core(
    const Layer& layer, const SubAccelConfig& accel) const {
  LayerCostCore core;
  const bool dw = layer.type == OpType::kDepthwiseConv2d;
  const SpatialMapping m =
      spatial_mapping(layer, accel.dataflow, accel.num_pes);
  core.mapping = m;

  const auto macs = static_cast<double>(layer.macs());
  const auto w_elems = static_cast<double>(layer.weight_bytes());
  const auto in_elems = static_cast<double>(layer.input_bytes());
  const auto out_elems = static_cast<double>(layer.output_bytes());

  // --- Compute cycles: temporal iterations with ceil edge effects. ---------
  double compute = 0.0;
  double sram = 0.0;  // SRAM<->PE traffic in bytes (8-bit elements)
  switch (accel.dataflow) {
    case Dataflow::kWS: {
      const double kdim = static_cast<double>(dw ? layer.c : layer.k);
      const double cdim = static_cast<double>(dw ? 1 : layer.c);
      compute = ceil_div(kdim, static_cast<double>(m.p0)) *
                ceil_div(cdim, static_cast<double>(m.p1)) *
                ceil_div(static_cast<double>(layer.x),
                         static_cast<double>(m.p2)) *
                static_cast<double>(layer.y) *
                static_cast<double>(layer.r) * static_cast<double>(layer.s);
      // Weights loaded once and pinned; inputs multicast across the K lane;
      // partial sums spill once per input-channel tile beyond the first.
      const double c_tiles = ceil_div(cdim, static_cast<double>(m.p1));
      sram = w_elems + macs / static_cast<double>(m.p0) +
             out_elems * (2.0 * c_tiles - 1.0);
      break;
    }
    case Dataflow::kOS: {
      const double reduction =
          dw ? static_cast<double>(layer.r * layer.s)
             : static_cast<double>(layer.c);
      const double other_reduction =
          dw ? 1.0 : static_cast<double>(layer.r * layer.s);
      const double kdim = static_cast<double>(dw ? layer.c : layer.k);
      compute = ceil_div(static_cast<double>(layer.y),
                         static_cast<double>(m.p0)) *
                ceil_div(static_cast<double>(layer.x),
                         static_cast<double>(m.p1)) *
                kdim * ceil_div(reduction, static_cast<double>(m.p2)) *
                other_reduction;
      // Outputs stationary; weights multicast across the spatial output
      // lanes; inputs stream into the tree with the better of halo
      // (sliding-window) reuse across adjacent output pixels and local
      // register reuse across output channels computed at the same pixel.
      const double window_reuse = static_cast<double>(layer.r * layer.s);
      const double k_reuse =
          dw ? 1.0 : std::min<double>(static_cast<double>(layer.k), 16.0);
      sram = out_elems + macs / static_cast<double>(m.p0 * m.p1) +
             macs / std::max(window_reuse, k_reuse);
      break;
    }
    case Dataflow::kRS: {
      const double kdim = static_cast<double>(dw ? layer.c : layer.k);
      const double cdim = static_cast<double>(dw ? 1 : layer.c);
      compute = ceil_div(kdim, static_cast<double>(m.p0)) *
                ceil_div(static_cast<double>(layer.y),
                         static_cast<double>(m.p1)) *
                ceil_div(static_cast<double>(layer.r),
                         static_cast<double>(m.p2)) *
                cdim * static_cast<double>(layer.x) *
                static_cast<double>(layer.s);
      // Weight rows rebroadcast once per output-row tile; inputs multicast
      // across the K lane; psums accumulate spatially across kernel rows.
      const double y_tiles =
          ceil_div(static_cast<double>(layer.y), static_cast<double>(m.p1));
      const double r_tiles =
          ceil_div(static_cast<double>(layer.r), static_cast<double>(m.p2));
      sram = w_elems * y_tiles + macs / static_cast<double>(m.p0) +
             out_elems * (2.0 * r_tiles - 1.0);
      break;
    }
  }

  core.compute_cycles = compute;
  core.noc_bytes = sram;
  core.sram_traffic_bytes = sram + in_elems;  // fills from DRAM land in SRAM
  core.dram_traffic_bytes = dram_traffic(layer, accel);
  core.macs = macs;
  core.dynamic_pj =
      macs * energy_.mac_pj +
      core.sram_traffic_bytes *
          (energy_.sram_pj_per_byte + energy_.noc_pj_per_byte) +
      core.dram_traffic_bytes * energy_.dram_pj_per_byte;
  return core;
}

AnalyticalCostModel::LayerCostCore AnalyticalCostModel::vector_layer_core(
    const Layer& layer, const SubAccelConfig& accel) const {
  LayerCostCore core;
  core.vector_op = true;
  const auto ops = static_cast<double>(layer.macs());
  const auto bytes = static_cast<double>(layer.input_bytes()) +
                     static_cast<double>(layer.output_bytes());
  core.compute_cycles =
      ops / (static_cast<double>(accel.num_pes) * kVectorOpEfficiency);
  core.noc_bytes = bytes;
  core.sram_traffic_bytes = bytes;
  // Vector ops are typically fused with neighbours; only a fraction of their
  // tensors round-trips to DRAM.
  core.dram_traffic_bytes = 0.25 * bytes;
  core.macs = ops;
  core.dynamic_pj =
      ops * 0.5 * energy_.mac_pj +
      core.sram_traffic_bytes *
          (energy_.sram_pj_per_byte + energy_.noc_pj_per_byte) +
      core.dram_traffic_bytes * energy_.dram_pj_per_byte;
  return core;
}

AnalyticalCostModel::LayerCostCore AnalyticalCostModel::layer_core(
    const Layer& layer, const SubAccelConfig& accel) const {
  return is_vector_op(layer.type) ? vector_layer_core(layer, accel)
                                  : mac_layer_core(layer, accel);
}

LayerCost AnalyticalCostModel::finish_layer_cost(
    const LayerCostCore& core, double clock_ghz, double noc_bytes_per_cycle,
    double offchip_bytes_per_cycle, std::int64_t num_pes) const {
  LayerCost cost;
  cost.mapping = core.mapping;
  cost.compute_cycles = core.compute_cycles;
  cost.sram_traffic_bytes = core.sram_traffic_bytes;
  cost.dram_traffic_bytes = core.dram_traffic_bytes;
  cost.noc_cycles = core.noc_bytes / noc_bytes_per_cycle;
  cost.dram_cycles = core.dram_traffic_bytes / offchip_bytes_per_cycle;
  cost.total_cycles =
      std::max({cost.compute_cycles, cost.noc_cycles, cost.dram_cycles}) +
      kLayerOverheadCycles;
  cost.latency_ms = cost.total_cycles / (clock_ghz * 1e6);
  // Utilization is a fraction of the array's MAC capacity by definition;
  // clamp against rounding slack in the cycle model. 0 for vector ops.
  cost.utilization =
      core.vector_op
          ? 0.0
          : std::min(1.0, std::max(0.0, core.macs /
                                            (cost.total_cycles *
                                             static_cast<double>(num_pes))));
  const double static_mj = energy_.static_mw_per_pe *
                           static_cast<double>(num_pes) *
                           cost.latency_ms * 1e-3;  // mW * ms = uJ; /1e3 -> mJ
  cost.static_energy_mj = static_mj;
  cost.energy_mj = core.dynamic_pj * 1e-9 + static_mj;
  return cost;
}

namespace {

// The lane math lives in a free function because the vectorizer only
// honours `restrict` on function PARAMETERS — on locals initialised from
// vector::data() the 11 streams would need 49 runtime alias checks, far
// past the versioning cap, and the loop stays scalar.
//
// One flat unit-stride loop over the level axis: straight-line lane math
// and selects instead of branches — the shape the loop vectorizer
// if-converts into full-width vector code (four doubles per 256-bit step,
// two on 128-bit SIMD, plus a scalar epilogue for the tail lanes). The trip
// count is the exact level count. Every lane replays finish_layer_cost's
// exact FP op sequence, then model_cost_at's subtract-then-scale voltage
// pass with a per-lane select — applying the transform at vr == 1 would NOT
// be bit-neutral ((e - s) + s != e in FP), hence the select keeps the
// untransformed values on unit-voltage lanes.
void finish_levels_lanes(std::size_t n, double compute, double noc_bytes,
                         double dram_bytes, double macs, double pes,
                         double pe_mw, double dynamic_mj,
                         const double* __restrict clock,
                         const double* __restrict noc_bpc,
                         const double* __restrict off_bpc,
                         const double* __restrict vr,
                         double* __restrict out_noc,
                         double* __restrict out_dram,
                         double* __restrict out_total,
                         double* __restrict out_lat,
                         double* __restrict out_util,
                         double* __restrict out_stat,
                         double* __restrict out_en) {
  for (std::size_t l = 0; l < n; ++l) {
    const double noc_c = noc_bytes / noc_bpc[l];
    const double dram_c = dram_bytes / off_bpc[l];
    double total = compute < noc_c ? noc_c : compute;
    total = total < dram_c ? dram_c : total;
    total += AnalyticalCostModel::kLayerOverheadCycles;
    const double lat = total / (clock[l] * 1e6);
    double util = macs / (total * pes);
    util = 0.0 < util ? util : 0.0;  // std::max(0.0, util)
    util = util < 1.0 ? util : 1.0;  // std::min(1.0, util)
    const double stat = pe_mw * lat * 1e-3;
    const double en = dynamic_mj + stat;
    const double v = vr[l];
    const double dyn = en - stat;
    const double stat_v = stat * v;
    const double en_v = dyn * v * v + stat_v;
    const bool scaled = v != 1.0;
    out_noc[l] = noc_c;
    out_dram[l] = dram_c;
    out_total[l] = total;
    out_lat[l] = lat;
    out_util[l] = util;
    out_stat[l] = scaled ? stat_v : stat;
    out_en[l] = scaled ? en_v : en;
  }
}

}  // namespace

void AnalyticalCostModel::finish_layer_levels(const LayerCostCore& core,
                                              std::int64_t num_pes,
                                              AllLevelsScratch& s) const {
  const double pes = static_cast<double>(num_pes);
  // Loop-invariant LEADING subexpressions of the scalar tail, hoisted.
  // Each is exactly the product the scalar path evaluates first in its
  // left-associative chain, so factoring it out is bit-neutral; hoisting
  // anything else (e.g. vr^2, or 1/bandwidth to turn the divides into
  // multiplies) would reassociate and break the bit-identity contract.
  const double pe_mw = energy_.static_mw_per_pe * pes;
  const double dynamic_mj = core.dynamic_pj * 1e-9;
  finish_levels_lanes(s.num_levels, core.compute_cycles, core.noc_bytes,
                      core.dram_traffic_bytes, core.macs, pes, pe_mw,
                      dynamic_mj, s.clock_ghz.data(), s.noc_bpc.data(),
                      s.offchip_bpc.data(), s.vr.data(), s.noc_cycles.data(),
                      s.dram_cycles.data(), s.total_cycles.data(),
                      s.latency_ms.data(), s.utilization.data(),
                      s.static_mj.data(), s.energy_mj.data());
  if (core.vector_op) {
    std::fill(s.utilization.begin(), s.utilization.begin() + s.num_levels,
              0.0);
  }
}

double AnalyticalCostModel::dram_traffic(const Layer& layer,
                                         const SubAccelConfig& accel) const {
  const auto w = static_cast<double>(layer.weight_bytes());
  const auto in = static_cast<double>(layer.input_bytes());
  const auto out = static_cast<double>(layer.output_bytes());
  const double half_sram = static_cast<double>(accel.sram_bytes) / 2.0;
  if (w <= half_sram && in <= half_sram) {
    return w + in + out;  // single pass
  }
  // Choose the cheaper re-streaming strategy: inputs per weight tile, or
  // weights per input tile.
  const double by_weight_tiles = w + in * ceil_div(w, half_sram) + out;
  const double by_input_tiles = in + w * ceil_div(in, half_sram) + out;
  return std::min(by_weight_tiles, by_input_tiles);
}

LayerCost AnalyticalCostModel::layer_cost(const Layer& layer,
                                          const SubAccelConfig& accel) const {
  if (!layer.valid()) {
    throw std::invalid_argument("layer_cost: invalid layer '" + layer.name +
                                "'");
  }
  if (!accel.valid()) {
    throw std::invalid_argument("layer_cost: invalid accelerator config '" +
                                accel.id + "'");
  }
  return finish_layer_cost(layer_core(layer, accel), accel.clock_ghz,
                           accel.noc_bytes_per_cycle,
                           accel.offchip_bytes_per_cycle, accel.num_pes);
}

ModelCost AnalyticalCostModel::model_cost(const ModelGraph& graph,
                                          const SubAccelConfig& accel) const {
  ModelCost mc;
  double mac_weighted_util = 0.0;
  double total_macs = 0.0;
  mc.layers.reserve(graph.num_layers());
  for (const auto& layer : graph.layers()) {
    LayerCost lc = layer_cost(layer, accel);
    mc.latency_ms += lc.latency_ms;
    mc.energy_mj += lc.energy_mj;
    mc.static_energy_mj += lc.static_energy_mj;
    mc.dram_traffic_bytes += lc.dram_traffic_bytes;
    if (!is_vector_op(layer.type)) {
      const auto macs = static_cast<double>(layer.macs());
      mac_weighted_util += lc.utilization * macs;
      total_macs += macs;
    }
    mc.layers.push_back(std::move(lc));
  }
  mc.avg_utilization = total_macs > 0 ? mac_weighted_util / total_macs : 0.0;
  return mc;
}

ModelCost AnalyticalCostModel::model_cost_at(const ModelGraph& graph,
                                             const SubAccelConfig& accel,
                                             std::size_t dvfs_level) const {
  const hw::DvfsState& dvfs = accel.dvfs;
  if (dvfs_level >= dvfs.num_levels()) {
    throw std::out_of_range("model_cost_at: DVFS level out of range for '" +
                            accel.id + "'");
  }
  if (dvfs.levels.empty()) return model_cost(graph, accel);

  const hw::DvfsOperatingPoint& op = dvfs.levels[dvfs_level];

  // Shift the clock; the per-cycle bandwidths compensate so the physical
  // GB/s (defined at the configured nominal clock) stay constant — a
  // bandwidth-bound layer does not get faster by up-clocking the PEs.
  SubAccelConfig scaled = accel;
  if (op.freq_ghz != accel.clock_ghz) {
    const double ratio = accel.clock_ghz / op.freq_ghz;
    scaled.clock_ghz = op.freq_ghz;
    scaled.noc_bytes_per_cycle = accel.noc_bytes_per_cycle * ratio;
    scaled.offchip_bytes_per_cycle = accel.offchip_bytes_per_cycle * ratio;
    // The shifted clock no longer matches the table's nominal anchor;
    // the scaled config models a single fixed operating point.
    scaled.dvfs = hw::DvfsState{};
  }

  ModelCost mc = model_cost(graph, scaled);
  // The energy constants are calibrated at hw::kNominalVoltageV, so the
  // scaling anchor is global — tables whose nominal point sits at a
  // different voltage still produce energies comparable across sweeps.
  const double vr = op.voltage_v / hw::kNominalVoltageV;
  if (vr != 1.0) {
    // Dynamic (switching) energy ~ C V^2 per operation; static (leakage)
    // power ~ V, already integrated over the level's latency.
    mc.energy_mj = 0.0;
    mc.static_energy_mj = 0.0;
    for (auto& lc : mc.layers) {
      const double dynamic_mj = lc.energy_mj - lc.static_energy_mj;
      lc.static_energy_mj *= vr;
      lc.energy_mj = dynamic_mj * vr * vr + lc.static_energy_mj;
      mc.energy_mj += lc.energy_mj;
      mc.static_energy_mj += lc.static_energy_mj;
    }
  }
  return mc;
}

void AnalyticalCostModel::compute_all_levels(const ModelGraph& graph,
                                             const SubAccelConfig& accel,
                                             AllLevelsScratch& s) const {
  if (!accel.valid()) {
    throw std::invalid_argument(
        "model_cost_all_levels: invalid accelerator config '" + accel.id +
        "'");
  }
  const hw::DvfsState& dvfs = accel.dvfs;
  const std::size_t num_levels = dvfs.num_levels();
  s.ensure(num_levels, graph.num_layers());

  // Per-level finish parameters, hoisted out of the layer walk into the
  // scratch's SoA lanes. The scaled bandwidths are computed exactly as
  // model_cost_at computes them (nominal * ratio, THEN divide the byte
  // count by the product) — dividing by nominal and then by ratio is a
  // different FP expression, and the bit-identity contract with the
  // per-level path would not survive it.
  for (std::size_t l = 0; l < num_levels; ++l) {
    if (dvfs.levels.empty()) {
      s.clock_ghz[l] = accel.clock_ghz;
      s.noc_bpc[l] = accel.noc_bytes_per_cycle;
      s.offchip_bpc[l] = accel.offchip_bytes_per_cycle;
      s.vr[l] = 1.0;
      continue;
    }
    const hw::DvfsOperatingPoint& op = dvfs.levels[l];
    if (op.freq_ghz != accel.clock_ghz) {
      const double ratio = accel.clock_ghz / op.freq_ghz;
      s.clock_ghz[l] = op.freq_ghz;
      s.noc_bpc[l] = accel.noc_bytes_per_cycle * ratio;
      s.offchip_bpc[l] = accel.offchip_bytes_per_cycle * ratio;
    } else {
      s.clock_ghz[l] = accel.clock_ghz;
      s.noc_bpc[l] = accel.noc_bytes_per_cycle;
      s.offchip_bpc[l] = accel.offchip_bytes_per_cycle;
    }
    s.vr[l] = op.voltage_v / hw::kNominalVoltageV;
  }

  double total_macs = 0.0;
  // DRAM traffic is level-invariant, so every level accumulates the exact
  // same addend sequence — one scalar accumulator stands in for all lanes
  // bit-identically.
  double acc_dram = 0.0;

  // ONE walk over the layer list: the level-invariant core (mapping, cycle
  // counts, traffic, switching energy) is computed once per layer, and the
  // per-level tail runs across all level lanes at once.
  for (const auto& layer : graph.layers()) {
    if (!layer.valid()) {
      throw std::invalid_argument("model_cost_all_levels: invalid layer '" +
                                  layer.name + "'");
    }
    const LayerCostCore core = layer_core(layer, accel);
    if (!core.vector_op) total_macs += core.macs;
    acc_dram += core.dram_traffic_bytes;

    finish_layer_levels(core, accel.num_pes, s);

    // Accumulate the per-level sums as lane adds, then scatter the lanes
    // into the AoS per-level layer lists. Each accumulator sees the same
    // addends in the same layer order as the per-level walk, so the sums
    // are bit-identical.
    {
      const double* __restrict lat = s.latency_ms.data();
      const double* __restrict en = s.energy_mj.data();
      const double* __restrict stat = s.static_mj.data();
      const double* __restrict util = s.utilization.data();
      double* __restrict acc_lat = s.acc_latency_ms.data();
      double* __restrict acc_en = s.acc_energy_mj.data();
      double* __restrict acc_stat = s.acc_static_mj.data();
      double* __restrict acc_util = s.acc_mac_weighted_util.data();
      const double macs = core.macs;
      const std::size_t n = s.num_levels;
      for (std::size_t l = 0; l < n; ++l) {
        acc_lat[l] += lat[l];
        acc_en[l] += en[l];
        acc_stat[l] += stat[l];
      }
      if (!core.vector_op) {
        for (std::size_t l = 0; l < n; ++l) acc_util[l] += util[l] * macs;
      }
    }
    for (std::size_t l = 0; l < num_levels; ++l) {
      LayerCost lc;
      lc.mapping = core.mapping;
      lc.compute_cycles = core.compute_cycles;
      lc.noc_cycles = s.noc_cycles[l];
      lc.dram_cycles = s.dram_cycles[l];
      lc.total_cycles = s.total_cycles[l];
      lc.latency_ms = s.latency_ms[l];
      lc.energy_mj = s.energy_mj[l];
      lc.static_energy_mj = s.static_mj[l];
      lc.utilization = s.utilization[l];
      lc.sram_traffic_bytes = core.sram_traffic_bytes;
      lc.dram_traffic_bytes = core.dram_traffic_bytes;
      s.result[l].layers.push_back(lc);
    }
  }

  for (std::size_t l = 0; l < num_levels; ++l) {
    ModelCost& mc = s.result[l];
    mc.latency_ms = s.acc_latency_ms[l];
    mc.energy_mj = s.acc_energy_mj[l];
    mc.static_energy_mj = s.acc_static_mj[l];
    mc.dram_traffic_bytes = acc_dram;
    mc.avg_utilization =
        total_macs > 0 ? s.acc_mac_weighted_util[l] / total_macs : 0.0;
  }
}

std::vector<ModelCost> AnalyticalCostModel::model_cost_all_levels(
    const ModelGraph& graph, const SubAccelConfig& accel) const {
  AllLevelsScratch scratch;
  compute_all_levels(graph, accel, scratch);
  return std::move(scratch.result);
}

const std::vector<ModelCost>& AnalyticalCostModel::model_cost_all_levels(
    const ModelGraph& graph, const SubAccelConfig& accel,
    AllLevelsScratch& scratch) const {
  compute_all_levels(graph, accel, scratch);
  return scratch.result;
}

ModelCostLevels::ModelCostLevels(std::vector<ModelCost> levels)
    : levels_(std::move(levels)),
      num_layers_(levels_.empty() ? 0 : levels_.front().layers.size()) {
  const std::size_t entries = levels_.size() * (num_layers_ + 1);
  latency_sums_.resize(entries);
  energy_sums_.resize(entries);
  static_sums_.resize(entries);
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    // Same left-to-right order as the kernel's totals, so the last entry is
    // the whole-model cost bit-exactly (a resume at layer 0 is
    // indistinguishable from a fresh dispatch).
    const auto& layers = levels_[l].layers;
    const std::size_t base = index(l, 0);
    double lat = 0.0, energy = 0.0, stat = 0.0;
    for (std::size_t k = 0; k < num_layers_; ++k) {
      lat += layers[k].latency_ms;
      energy += layers[k].energy_mj;
      stat += layers[k].static_energy_mj;
      latency_sums_[base + k + 1] = lat;
      energy_sums_[base + k + 1] = energy;
      static_sums_[base + k + 1] = stat;
    }
  }
}

std::size_t ModelCostLevels::completed_layers(std::size_t level,
                                              std::size_t from_layer,
                                              double elapsed_ms) const {
  const std::size_t base = index(level, 0);
  const double start = latency_sums_[base + from_layer];
  std::size_t k = from_layer;
  while (k < num_layers_ &&
         latency_sums_[base + k + 1] - start <= elapsed_ms) {
    ++k;
  }
  return k;
}

AnalyticalCostModel::ModelCostKey::ModelCostKey(const ModelGraph& graph,
                                                const SubAccelConfig& accel)
    : layers(graph.shared_signature()),
      dataflow(static_cast<int>(accel.dataflow)),
      num_pes(accel.num_pes),
      sram_bytes(accel.sram_bytes),
      clock_ghz(accel.clock_ghz),
      noc_bytes_per_cycle(accel.noc_bytes_per_cycle),
      offchip_bytes_per_cycle(accel.offchip_bytes_per_cycle),
      levels(accel.dvfs.levels) {}

bool AnalyticalCostModel::ModelCostKey::matches(
    const LayerSignature& sig, const SubAccelConfig& accel) const {
  if (dataflow != static_cast<int>(accel.dataflow) ||
      num_pes != accel.num_pes || sram_bytes != accel.sram_bytes ||
      clock_ghz != accel.clock_ghz ||
      noc_bytes_per_cycle != accel.noc_bytes_per_cycle ||
      offchip_bytes_per_cycle != accel.offchip_bytes_per_cycle ||
      levels.size() != accel.dvfs.levels.size()) {
    return false;
  }
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (levels[i].freq_ghz != accel.dvfs.levels[i].freq_ghz ||
        levels[i].voltage_v != accel.dvfs.levels[i].voltage_v) {
      return false;
    }
  }
  return layers.get() == &sig || *layers == sig;
}

std::size_t AnalyticalCostModel::model_key_hash(const LayerSignature& sig,
                                                const SubAccelConfig& accel) {
  auto fold = LayerSignature::fold;
  std::size_t h = fold(sig.hash, static_cast<std::size_t>(accel.dataflow));
  h = fold(h, static_cast<std::size_t>(accel.num_pes));
  h = fold(h, static_cast<std::size_t>(accel.sram_bytes));
  h = fold(h, hash_double(accel.clock_ghz));
  h = fold(h, hash_double(accel.noc_bytes_per_cycle));
  h = fold(h, hash_double(accel.offchip_bytes_per_cycle));
  for (const auto& op : accel.dvfs.levels) {
    h = fold(h, hash_double(op.freq_ghz));
    h = fold(h, hash_double(op.voltage_v));
  }
  return static_cast<std::size_t>(splitmix64(h));
}

const std::shared_ptr<const ModelCostLevels>*
AnalyticalCostModel::ModelMemoShard::find(std::size_t hash,
                                          const LayerSignature& sig,
                                          const SubAccelConfig& accel) const {
  const auto [first, last] = map.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second.key.matches(sig, accel)) return &it->second.value;
  }
  return nullptr;
}

std::size_t AnalyticalCostModel::model_shard_index(std::size_t hash) {
  static_assert((kModelMemoShards & (kModelMemoShards - 1)) == 0,
                "kModelMemoShards must be a power of two");
  const std::uint64_t folded =
      static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ULL;
  constexpr unsigned kShardBits = 3;  // log2(kModelMemoShards)
  static_assert((1u << kShardBits) == kModelMemoShards,
                "model shard bits mismatch");
  return static_cast<std::size_t>(folded >> (64 - kShardBits));
}

std::shared_ptr<const ModelCostLevels>
AnalyticalCostModel::cached_model_cost_all_levels(
    const ModelGraph& graph, const SubAccelConfig& accel,
    AllLevelsScratch* scratch) const {
  const LayerSignature& sig = graph.signature();
  const std::size_t hash = model_key_hash(sig, accel);
  ModelMemoShard& shard = model_memo_shards_[model_shard_index(hash)];
  {
    std::shared_lock lock(shard.mutex);
    if (const auto* value = shard.find(hash, sig, accel)) {
      // Statistical counter: plain load+store instead of an atomic RMW.
      // Concurrent hits on one shard can drop an increment (telemetry may
      // undercount slightly); in exchange the hit path pays no
      // lock-prefixed instruction.
      shard.hits.store(shard.hits.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
      return *value;
    }
  }
  // Compute outside the lock; a racing duplicate evaluation is rare (the
  // key space is per model, not per layer) and both threads produce the
  // same value. The entry must own its storage, so the scratch path copies
  // scratch.result into it — only on a miss.
  auto value = std::make_shared<const ModelCostLevels>(
      scratch != nullptr ? model_cost_all_levels(graph, accel, *scratch)
                         : model_cost_all_levels(graph, accel));
  {
    std::unique_lock lock(shard.mutex);
    ++shard.misses;
    if (const auto* winner = shard.find(hash, sig, accel)) {
      value = *winner;  // the racing winner's entry stays canonical
    } else {
      shard.map.emplace(hash,
                        ModelMemoEntry{ModelCostKey(graph, accel), value});
      ++shard.inserts;
    }
  }
  return value;
}

std::size_t AnalyticalCostModel::model_memo_size() const {
  std::size_t total = 0;
  for (const auto& shard : model_memo_shards_) {
    std::shared_lock lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

void AnalyticalCostModel::clear_model_memo() const {
  for (auto& shard : model_memo_shards_) {
    std::unique_lock lock(shard.mutex);
    shard.map.clear();
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses = 0;
    shard.inserts = 0;
  }
}

MemoStats AnalyticalCostModel::model_memo_stats() const {
  MemoStats stats;
  stats.shard_entries.reserve(kModelMemoShards);
  for (const auto& shard : model_memo_shards_) {
    std::shared_lock lock(shard.mutex);
    stats.hits += shard.hits.load(std::memory_order_relaxed);
    stats.misses += shard.misses;
    stats.inserts += shard.inserts;
    stats.entries += shard.map.size();
    stats.shard_entries.push_back(shard.map.size());
  }
  return stats;
}

double AnalyticalCostModel::idle_power_mw(const SubAccelConfig& accel,
                                          std::size_t dvfs_level) const {
  const hw::DvfsState& dvfs = accel.dvfs;
  if (dvfs_level >= dvfs.num_levels()) {
    throw std::out_of_range("idle_power_mw: DVFS level out of range for '" +
                            accel.id + "'");
  }
  if (dvfs.idle_mw == 0.0 || dvfs.levels.empty()) return dvfs.idle_mw;
  // Leakage scales ~ V with supply voltage, the same first-order relation
  // the static execution term uses in model_cost_at.
  return dvfs.idle_mw *
         (dvfs.levels[dvfs_level].voltage_v / hw::kNominalVoltageV);
}

}  // namespace xrbench::costmodel
