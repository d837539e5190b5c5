#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "costmodel/dataflow.h"
#include "costmodel/graph.h"
#include "costmodel/layer.h"
#include "hw/dvfs.h"

namespace xrbench::costmodel {

/// One sub-accelerator: a PE array with a fixed dataflow plus its share of
/// the chip's SRAM / NoC / off-chip bandwidth (Table 5 partitions a 4K- or
/// 8K-PE chip into 1, 2 or 4 such instances).
struct SubAccelConfig {
  std::string id;                      ///< e.g. "J.0"
  Dataflow dataflow = Dataflow::kWS;
  std::int64_t num_pes = 4096;
  double clock_ghz = 1.0;              ///< Nominal core clock.
  double noc_bytes_per_cycle = 256.0;   ///< 256 GB/s at 1 GHz (paper §4.1).
  double offchip_bytes_per_cycle = 24.0;///< Wearable LPDDR-class share.
  std::int64_t sram_bytes = 8ll << 20;  ///< 8 MiB shared memory (paper §4.1).
  /// DVFS operating points selectable at runtime. Empty = fixed nominal
  /// clock. The per-cycle bandwidths above are interpreted relative to
  /// `clock_ghz` (physical GB/s stay constant when the core clock moves),
  /// and the table's nominal frequency must equal `clock_ghz` — that anchor
  /// is what keeps nominal-level costs bit-identical to the fixed-clock
  /// path (hw::with_dvfs enforces it at attach time, valid() everywhere
  /// else).
  hw::DvfsState dvfs;

  bool valid() const {
    return num_pes > 0 && clock_ghz > 0 && noc_bytes_per_cycle > 0 &&
           offchip_bytes_per_cycle > 0 && sram_bytes > 0 && dvfs.valid() &&
           dvfs.anchored_at(clock_ghz);
  }
};

/// Energy model constants (8-bit datapath). Values are in picojoules and
/// chosen from the usual CMOS accounting (MAC << SRAM << DRAM); see
/// DESIGN.md for the calibration note.
struct EnergyParams {
  double mac_pj = 1.0;             ///< Energy per 8-bit MAC.
  double sram_pj_per_byte = 6.0;   ///< SRAM read/write per byte.
  double noc_pj_per_byte = 2.0;    ///< On-chip network transfer per byte.
  double dram_pj_per_byte = 160.0; ///< Off-chip access per byte.
  double static_mw_per_pe = 0.25;  ///< Leakage/clock power per PE.
};

/// Cost of one layer on one sub-accelerator.
struct LayerCost {
  double compute_cycles = 0.0;
  double noc_cycles = 0.0;
  double dram_cycles = 0.0;
  double total_cycles = 0.0;  ///< max of the three + fixed overhead
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  double static_energy_mj = 0.0;  ///< Leakage/clock share of energy_mj.
  double utilization = 0.0;       ///< MACs / (total_cycles * PEs); 0 for vector ops
  double sram_traffic_bytes = 0.0;
  double dram_traffic_bytes = 0.0;
  SpatialMapping mapping;
};

/// Aggregate counters of the model-level memo (all shards combined).
/// hits + misses = total cached_model_cost_all_levels() lookups; inserts
/// can trail misses when two threads race on the same key (both compute,
/// one emplace wins).
/// The hit counter is statistical: concurrent hits on one shard may drop
/// an increment (the hot path deliberately avoids an atomic RMW), so under
/// parallel sweeps `hits` is a tight lower bound. Miss/insert counts are
/// exact, and every count is exact for serial use.
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::size_t entries = 0;
  std::vector<std::size_t> shard_entries;  ///< Occupancy per shard.

  double hit_rate() const {
    const auto lookups = static_cast<double>(hits + misses);
    return lookups == 0.0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Cost of a whole model (layer-sequential execution).
struct ModelCost {
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  double static_energy_mj = 0.0;  ///< Leakage/clock share of energy_mj.
  double avg_utilization = 0.0;  ///< MAC-weighted average across MAC layers.
  double dram_traffic_bytes = 0.0;
  std::vector<LayerCost> layers;
};

/// The model memo's value: the costs of one graph on one sub-accelerator
/// at every DVFS level, plus each level's layer prefix sums (a checkpoint
/// resume at layer k pays total - prefix[k]). Built once, on memo insert;
/// afterwards every CostTable that needs it shares it, immutable.
class ModelCostLevels {
 public:
  /// Takes the all-levels kernel result and derives the prefix sums. They
  /// are summed left to right in graph order, like the kernel's
  /// whole-model totals, so prefix[num_layers] is bit-identical to the
  /// level's latency_ms / energy_mj / static_energy_mj.
  explicit ModelCostLevels(std::vector<ModelCost> levels);

  /// levels()[l] == model_cost_at(graph, accel, l).
  const std::vector<ModelCost>& levels() const { return levels_; }
  std::size_t num_layers() const { return num_layers_; }

  // Prefix sums over the first `layer` layers at `level`. Unchecked:
  // level < levels().size() and layer <= num_layers() (CostTable checks).
  double latency_prefix_ms(std::size_t level, std::size_t layer) const {
    return latency_sums_[index(level, layer)];
  }
  double energy_prefix_mj(std::size_t level, std::size_t layer) const {
    return energy_sums_[index(level, layer)];
  }
  double static_prefix_mj(std::size_t level, std::size_t layer) const {
    return static_sums_[index(level, layer)];
  }

  /// Largest k in [from_layer, num_layers] with
  /// prefix[k] - prefix[from_layer] <= elapsed_ms, by a forward walk over
  /// the latency prefixes. Unchecked like the accessors above.
  std::size_t completed_layers(std::size_t level, std::size_t from_layer,
                               double elapsed_ms) const;

 private:
  /// Each level owns a contiguous run of num_layers + 1 entries.
  std::size_t index(std::size_t level, std::size_t layer) const {
    return level * (num_layers_ + 1) + layer;
  }

  std::vector<ModelCost> levels_;
  std::size_t num_layers_ = 0;
  std::vector<double> latency_sums_;
  std::vector<double> energy_sums_;
  std::vector<double> static_sums_;
};

/// Reusable scratch for model_cost_all_levels: every per-call allocation of
/// the level-batched kernel (the SoA level-parameter lanes, the per-layer
/// per-level lanes the SIMD kernel writes, the accumulator lanes, and the
/// result vector with its per-level layer lists) hoisted into a
/// caller-owned object. A CostTable build loop owns ONE of these across all
/// (task x sub-accelerator x design) builds; after the first call at the
/// largest (levels, layers) shape, subsequent calls perform zero heap
/// allocations (test-enforced with a counting allocator probe). The object
/// is opaque — only AnalyticalCostModel reads or writes it — and
/// single-threaded: share one per thread, never across threads.
class AllLevelsScratch {
 public:
  AllLevelsScratch() = default;
  AllLevelsScratch(const AllLevelsScratch&) = delete;
  AllLevelsScratch& operator=(const AllLevelsScratch&) = delete;

 private:
  friend class AnalyticalCostModel;

  /// Sizes every lane to `num_levels` and every result layer list for
  /// `num_layers`, retaining capacity from prior calls; resets accumulators
  /// and clears the result in place.
  void ensure(std::size_t num_levels, std::size_t num_layers);

  std::size_t num_levels = 0;

  /// SoA per-level finish parameters.
  std::vector<double> clock_ghz;
  std::vector<double> noc_bpc;
  std::vector<double> offchip_bpc;
  std::vector<double> vr;  ///< voltage_v / hw::kNominalVoltageV per level.

  /// Per-layer per-level outputs of the finish kernel, scattered into the
  /// AoS LayerCost list afterwards.
  std::vector<double> noc_cycles;
  std::vector<double> dram_cycles;
  std::vector<double> total_cycles;
  std::vector<double> latency_ms;
  std::vector<double> utilization;
  std::vector<double> static_mj;
  std::vector<double> energy_mj;

  /// Per-level accumulators over the layer walk.
  std::vector<double> acc_latency_ms;
  std::vector<double> acc_energy_mj;
  std::vector<double> acc_static_mj;
  std::vector<double> acc_mac_weighted_util;

  std::vector<ModelCost> result;
};

/// MAESTRO-style analytical cost model.
///
/// For each (layer, dataflow, PE count) it derives a greedy spatial mapping,
/// temporal iteration counts with edge effects (ceil divisions), per-level
/// traffic with dataflow-specific reuse, and a roofline latency
/// max(compute, NoC, DRAM). Energy combines MAC, SRAM+NoC, DRAM and static
/// components. See DESIGN.md §2 for the substitution rationale vs. the
/// MAESTRO binary used by the paper's artifact.
///
/// One evaluation kernel, one memo: CostTable builds go through
/// cached_model_cost_all_levels, the model-level memo over the
/// level-batched model_cost_all_levels kernel. layer_cost / model_cost /
/// model_cost_at are the un-memoized per-level reference that the kernel
/// is tested against bit for bit.
class AnalyticalCostModel {
 public:
  explicit AnalyticalCostModel(EnergyParams energy = {});

  /// Copying shares the energy constants but starts a fresh model memo.
  AnalyticalCostModel(const AnalyticalCostModel& other);
  AnalyticalCostModel& operator=(const AnalyticalCostModel& other);

  /// Greedy spatial unrolling of `layer` under `dataflow` over `num_pes`.
  /// Exposed for tests/ablations. MAC ops only (vector ops have no mapping).
  SpatialMapping spatial_mapping(const Layer& layer, Dataflow dataflow,
                                 std::int64_t num_pes) const;

  /// Cost of one layer at the nominal clock. Validates both arguments
  /// (std::invalid_argument) and evaluates from scratch on every call:
  /// layer_cost, model_cost and model_cost_at are the un-memoized scalar
  /// reference the level-batched kernel is tested against.
  LayerCost layer_cost(const Layer& layer, const SubAccelConfig& accel) const;

  ModelCost model_cost(const ModelGraph& graph,
                       const SubAccelConfig& accel) const;

  /// Cost of `graph` on `accel` running at DVFS level `dvfs_level` of
  /// accel.dvfs. Latency follows the shifted clock through the roofline
  /// (compute cycles scale with frequency; NoC/DRAM bandwidths are physical
  /// and clock-independent), dynamic energy scales with (V/Vnom)^2 and
  /// static power with V/Vnom, anchored at the global calibration voltage
  /// hw::kNominalVoltageV. For a table whose nominal point sits at the
  /// configured clock and the calibration voltage (hw::default_dvfs_state
  /// does both) the nominal level is bit-identical to model_cost(). Throws
  /// std::out_of_range for an invalid level.
  ModelCost model_cost_at(const ModelGraph& graph, const SubAccelConfig& accel,
                          std::size_t dvfs_level) const;

  /// Level-batched cost kernel: the costs of `graph` on `accel` at EVERY
  /// DVFS level of accel.dvfs (result[l] == model_cost_at(graph, accel, l)
  /// bit-exactly, test-enforced). Walks the layer list ONCE: the
  /// level-invariant terms of each layer (spatial mapping, compute cycles,
  /// SRAM/NoC/DRAM traffic, dynamic switching energy) are computed a single
  /// time, and only the per-level tail — the roofline against the shifted
  /// clock, the latency-proportional static energy and the (V/Vnom)^2
  /// voltage scaling — runs in the inner loop over levels. This is the
  /// CostTable build kernel: a five-level ladder stops paying five full
  /// layer walks per (task, sub-accelerator).
  std::vector<ModelCost> model_cost_all_levels(
      const ModelGraph& graph, const SubAccelConfig& accel) const;

  /// Scratch-reusing variant of model_cost_all_levels: writes the result
  /// into `scratch` and returns a reference into it (valid until the next
  /// call with the same scratch). Bit-identical to the value-returning
  /// overload; the only difference is that a warmed scratch makes the call
  /// allocation-free.
  const std::vector<ModelCost>& model_cost_all_levels(
      const ModelGraph& graph, const SubAccelConfig& accel,
      AllLevelsScratch& scratch) const;

  /// Memoized model_cost_all_levels: a sharded (graph signature x
  /// sub-accel config) cache of ModelCostLevels, so repeated (model,
  /// sub-accelerator) pairs across sweep points skip the layer walk and the
  /// prefix sums entirely (CostTable builds call this). The value is
  /// shared: every table built for an identical design holds the same
  /// entry. A lookup reads the graph's precomputed signature and allocates
  /// nothing; keys compare the full layer signature, never just a hash, so
  /// a collision can not alias two models.
  /// `scratch`, when given, is reused for the layer walk on a memo miss
  /// (hits never touch it) — the CostTable build loop passes its own.
  std::shared_ptr<const ModelCostLevels> cached_model_cost_all_levels(
      const ModelGraph& graph, const SubAccelConfig& accel,
      AllLevelsScratch* scratch = nullptr) const;

  /// Idle power (mW) of `accel` parked at DVFS level `dvfs_level`:
  /// DvfsState::idle_mw scaled by V/Vnom at that level (leakage ~ V, same
  /// relation the static term uses), anchored at the global calibration
  /// voltage like every other energy quantity. 0 whenever the hardware
  /// declares no idle-power term. Throws std::out_of_range for an invalid
  /// level.
  double idle_power_mw(const SubAccelConfig& accel,
                       std::size_t dvfs_level) const;

  const EnergyParams& energy_params() const { return energy_; }

  /// Fixed per-layer control/pipeline-fill overhead in cycles.
  static constexpr double kLayerOverheadCycles = 500.0;

  /// Vector ops run on the PE array as SIMD lanes at reduced efficiency.
  static constexpr double kVectorOpEfficiency = 0.25;

  /// Entries in the model-level memo (distinct (graph, sub-accel config)
  /// pairs evaluated through cached_model_cost_all_levels).
  std::size_t model_memo_size() const;
  void clear_model_memo() const;

  /// Hit/miss/insert counters plus per-shard occupancy of the model-level
  /// memo, aggregated across all shards. Miss/insert counts and entries are
  /// exact after the sweep quiesces (e.g. past ThreadPool::wait_idle); the
  /// hit count is a tight lower bound — concurrent hits on one shard can
  /// permanently drop an increment (see MemoStats).
  MemoStats model_memo_stats() const;

  /// Shard count of the model-level memo (power of two; shard = top bits of
  /// the key hash). One shared_mutex per shard instead of one for the whole
  /// memo: concurrent CostTable builds inside a sweep hit disjoint shards
  /// and stop serializing on a single lock.
  static constexpr std::size_t kModelMemoShards = 8;

 private:
  /// The level-invariant part of one layer's cost: everything that does not
  /// depend on the clock or the per-cycle bandwidths. finish_layer_cost
  /// turns a core into a LayerCost for one operating point; the per-level
  /// path (layer_cost) and the batched all-levels kernel both run through
  /// this exact pair, which is what makes them bit-identical.
  struct LayerCostCore {
    bool vector_op = false;
    SpatialMapping mapping;
    double compute_cycles = 0.0;
    double noc_bytes = 0.0;  ///< Numerator of noc_cycles (SRAM<->PE bytes).
    double sram_traffic_bytes = 0.0;
    double dram_traffic_bytes = 0.0;
    double macs = 0.0;        ///< MACs (or vector ops); 0-util for vectors.
    double dynamic_pj = 0.0;  ///< Switching energy at the nominal voltage.
  };
  LayerCostCore mac_layer_core(const Layer& layer,
                               const SubAccelConfig& accel) const;
  LayerCostCore vector_layer_core(const Layer& layer,
                                  const SubAccelConfig& accel) const;
  LayerCostCore layer_core(const Layer& layer,
                           const SubAccelConfig& accel) const;

  /// Per-level tail: roofline against (clock, bandwidths), static energy
  /// over the resulting latency, utilization clamp.
  LayerCost finish_layer_cost(const LayerCostCore& core, double clock_ghz,
                              double noc_bytes_per_cycle,
                              double offchip_bytes_per_cycle,
                              std::int64_t num_pes) const;

  /// SIMD level-axis tail: applies finish_layer_cost's expression sequence
  /// — plus the voltage pass — to one LayerCostCore across every level lane
  /// of `scratch` at once, writing the per-level output lanes.
  /// Each lane performs the exact FP op sequence of finish_layer_cost plus
  /// model_cost_at's voltage pass (including the vr != 1.0 select
  /// preserving unscaled values), so the results are bit-identical, not
  /// tolerance-equal.
  void finish_layer_levels(const LayerCostCore& core, std::int64_t num_pes,
                           AllLevelsScratch& scratch) const;

  /// The one body behind both model_cost_all_levels overloads: the single
  /// layer walk with the vectorized per-level tail, writing into `scratch`.
  void compute_all_levels(const ModelGraph& graph,
                          const SubAccelConfig& accel,
                          AllLevelsScratch& scratch) const;

  /// DRAM traffic with SRAM-capacity-driven re-fetch (choose the cheaper of
  /// re-streaming inputs per weight tile or weights per input tile).
  double dram_traffic(const Layer& layer, const SubAccelConfig& accel) const;

  /// Model-level memo key: the graph's layer signature plus every
  /// sub-accel field model_cost_all_levels reads — including the DVFS
  /// ladder, since the value covers all levels. The signature is the
  /// graph's own shared snapshot (ModelGraph::shared_signature), not a
  /// copy. Names are excluded (two graphs with identical layer lists cost
  /// the same), and so are transition_ms / idle_mw / nominal_level, which
  /// never enter a ModelCost.
  struct ModelCostKey {
    ModelCostKey(const ModelGraph& graph, const SubAccelConfig& accel);
    /// Full-content equality with the key `graph` x `accel` would make.
    /// Holding the very same signature object short-cuts the layer
    /// compare: snapshots are immutable, so identity implies equality.
    bool matches(const LayerSignature& sig, const SubAccelConfig& accel) const;

    std::shared_ptr<const LayerSignature> layers;
    int dataflow;
    std::int64_t num_pes, sram_bytes;
    double clock_ghz, noc_bytes_per_cycle, offchip_bytes_per_cycle;
    std::vector<hw::DvfsOperatingPoint> levels;
  };
  /// The key hash: the signature's running fold continued over the
  /// sub-accel fields, then one splitmix64 finalizer. It picks the shard
  /// and the bucket; matches() decides.
  static std::size_t model_key_hash(const LayerSignature& sig,
                                    const SubAccelConfig& accel);

  struct ModelMemoEntry {
    ModelCostKey key;
    std::shared_ptr<const ModelCostLevels> value;
  };
  /// The hash is already mixed; buckets use it as is.
  struct PrehashedKey {
    std::size_t operator()(std::size_t hash) const { return hash; }
  };

  /// One model-memo shard: its own map, lock and counters. Lookups take
  /// the shard's shared lock, inserts its unique lock (a rare duplicate
  /// computation on a race is harmless — both threads computed the same
  /// value, one emplace wins). Entries are filed under their key hash;
  /// equal hashes with different content sit side by side.
  struct ModelMemoShard {
    std::unordered_multimap<std::size_t, ModelMemoEntry, PrehashedKey> map;
    mutable std::shared_mutex mutex;
    /// Written under the shared lock (concurrently) — atomic, lossy store.
    std::atomic<std::uint64_t> hits{0};
    /// Written only under the unique lock — plain fields, exact.
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;

    /// The entry matching (sig, accel) filed under `hash`, or null. The
    /// caller holds `mutex`.
    const std::shared_ptr<const ModelCostLevels>* find(
        std::size_t hash, const LayerSignature& sig,
        const SubAccelConfig& accel) const;
  };

  /// Shard of `hash`: the top bits, Fibonacci-folded first so the shard
  /// index stays decorrelated from the map's bucket index (which consumes
  /// the low bits).
  static std::size_t model_shard_index(std::size_t hash);

  EnergyParams energy_;
  /// Thread-safe sharded ModelCostLevels memo (see kModelMemoShards).
  mutable std::array<ModelMemoShard, kModelMemoShards> model_memo_shards_;
};

}  // namespace xrbench::costmodel
