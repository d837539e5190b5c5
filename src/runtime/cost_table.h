#pragma once

#include <memory>
#include <vector>

#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "models/task.h"

namespace xrbench::runtime {

/// Latency/energy of one (model, sub-accelerator, DVFS level) triple.
struct ExecutionCost {
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  /// Leakage/clock share of energy_mj (the rest is dynamic switching
  /// energy). Telemetry streams this split into the per-sub-accelerator
  /// dynamic/static breakdown.
  double static_energy_mj = 0.0;
  double avg_utilization = 0.0;
};

/// Precomputed execution costs of every unit model on every sub-accelerator
/// of one accelerator system, at every DVFS operating level the
/// sub-accelerator exposes. The dispatcher (and the FrequencyGovernor it
/// consults) query this table instead of re-running the analytical model per
/// request (models are static per run, mirroring the paper's
/// MAESTRO-precomputation flow). A sub-accelerator without a DVFS table has
/// exactly one level — the nominal clock — so the non-DVFS path pays no
/// extra build cost.
class CostTable {
 public:
  /// Evaluates all 11 unit models on each (sub-accelerator, level) of
  /// `system`.
  CostTable(const hw::AcceleratorSystem& system,
            const costmodel::AnalyticalCostModel& cost_model);

  /// Cost at the sub-accelerator's nominal level. One bounds check and one
  /// multiply-add, same as the pre-DVFS table — this is the scheduler's hot
  /// path (every (pending, idle) pair of every dispatch event).
  const ExecutionCost& cost(models::TaskId task, std::size_t sub_accel) const {
    check_sub_accel(sub_accel);
    return costs_[models::task_index(task) * total_levels_ +
                  nominal_offset_[sub_accel]];
  }
  /// Cost at an explicit DVFS level. Throws std::out_of_range.
  const ExecutionCost& cost(models::TaskId task, std::size_t sub_accel,
                            std::size_t level) const {
    check_sub_accel(sub_accel);
    if (level >= num_levels_[sub_accel]) {
      throw_out_of_range("CostTable::cost: DVFS level out of range");
    }
    return costs_[models::task_index(task) * total_levels_ +
                  level_offset_[sub_accel] + level];
  }

  double latency_ms(models::TaskId task, std::size_t sub_accel) const {
    return cost(task, sub_accel).latency_ms;
  }
  double latency_ms(models::TaskId task, std::size_t sub_accel,
                    std::size_t level) const {
    return cost(task, sub_accel, level).latency_ms;
  }
  double energy_mj(models::TaskId task, std::size_t sub_accel) const {
    return cost(task, sub_accel).energy_mj;
  }
  double energy_mj(models::TaskId task, std::size_t sub_accel,
                   std::size_t level) const {
    return cost(task, sub_accel, level).energy_mj;
  }

  /// Index of the sub-accelerator with minimal nominal latency for `task`.
  std::size_t fastest_sub_accel(models::TaskId task) const;

  std::size_t num_sub_accels() const { return num_sub_accels_; }

  /// Number of DVFS levels of `sub_accel` (>= 1).
  std::size_t num_levels(std::size_t sub_accel) const {
    check_sub_accel(sub_accel);
    return num_levels_[sub_accel];
  }
  /// The nominal (calibration) level of `sub_accel`.
  std::size_t nominal_level(std::size_t sub_accel) const {
    return checked_nominal(sub_accel);
  }

  /// Idle power (W) of `sub_accel` parked at `level`, precomputed from
  /// DvfsState::idle_mw at the level's voltage. 0 for hardware without an
  /// idle-power term — the runner skips idle accounting entirely then.
  double idle_power_w(std::size_t sub_accel, std::size_t level) const {
    check_sub_accel(sub_accel);
    if (level >= num_levels_[sub_accel]) {
      throw_out_of_range("CostTable::idle_power_w: level out of range");
    }
    return idle_power_w_[level_offset_[sub_accel] + level];
  }

  // ---- Layer-granular cost prefixes (checkpoint/resume) ------------------
  // Per (task, sub-accel, level) prefix sums over the model's layers, in
  // graph order and summed left-to-right exactly like model_cost_at — so
  // prefix[num_layers] is bit-identical to the whole-model cost above, and
  // a resume at layer k pays exactly (total - prefix[k]). The table owns no
  // prefix arrays: each (task, sub-accel) holds a shared_ptr to its model
  // memo entry (costmodel::ModelCostLevels), which computed them once on
  // insert. Tables built for identical designs share those entries, and an
  // entry outlives a memo clear for as long as a table holds it.

  /// Number of layers in `task`'s model graph.
  std::size_t num_layers(models::TaskId task) const {
    return entry(task, 0).num_layers();
  }
  /// Sum of the first `layer` layers' latencies (0 <= layer <= num_layers).
  double layer_latency_prefix_ms(models::TaskId task, std::size_t sub_accel,
                                 std::size_t level, std::size_t layer) const {
    return checked_prefix_entry(task, sub_accel, level, layer)
        .latency_prefix_ms(level, layer);
  }
  /// Sum of the first `layer` layers' total energies.
  double layer_energy_prefix_mj(models::TaskId task, std::size_t sub_accel,
                                std::size_t level, std::size_t layer) const {
    return checked_prefix_entry(task, sub_accel, level, layer)
        .energy_prefix_mj(level, layer);
  }
  /// Sum of the first `layer` layers' static (leakage) energies.
  double layer_static_prefix_mj(models::TaskId task, std::size_t sub_accel,
                                std::size_t level, std::size_t layer) const {
    return checked_prefix_entry(task, sub_accel, level, layer)
        .static_prefix_mj(level, layer);
  }
  /// Number of layers fully completed by an execution that started at layer
  /// `from_layer` and ran for `elapsed_ms` on (sub_accel, level): the
  /// largest k in [from_layer, num_layers] with
  /// prefix[k] - prefix[from_layer] <= elapsed_ms. A deterministic forward
  /// walk over the prefix array — identical on every replay of the same
  /// kill, which is what keeps checkpointed sweeps byte-stable.
  std::size_t completed_layers(models::TaskId task, std::size_t sub_accel,
                               std::size_t level, std::size_t from_layer,
                               double elapsed_ms) const;

 private:
  /// Inline range checks (these accessors run several times per request);
  /// the throw itself stays out of line.
  [[noreturn]] static void throw_out_of_range(const char* what);
  void check_sub_accel(std::size_t sub_accel) const {
    if (sub_accel >= num_sub_accels_) {
      throw_out_of_range("CostTable: sub_accel out of range");
    }
  }
  std::size_t checked_nominal(std::size_t sub_accel) const {
    check_sub_accel(sub_accel);
    return nominal_level_[sub_accel];
  }

  std::size_t num_sub_accels_ = 0;
  std::size_t total_levels_ = 0;  ///< Sum of num_levels_ over sub-accels.
  std::vector<std::size_t> num_levels_;     ///< Per sub-accelerator.
  std::vector<std::size_t> nominal_level_;  ///< Per sub-accelerator.
  std::vector<std::size_t> level_offset_;   ///< Prefix sums of num_levels_.
  /// level_offset_ + nominal_level_, precomputed for the nominal hot path.
  std::vector<std::size_t> nominal_offset_;
  // Row-major [task][level_offset(sub_accel) + level].
  std::vector<ExecutionCost> costs_;
  /// Idle power (W) per [level_offset(sub_accel) + level].
  std::vector<double> idle_power_w_;

  const costmodel::ModelCostLevels& entry(models::TaskId task,
                                         std::size_t sub_accel) const {
    return *entries_[models::task_index(task) * num_sub_accels_ + sub_accel];
  }
  /// The (task, sub_accel) entry after checking sub_accel, level and
  /// layer; throws std::out_of_range.
  const costmodel::ModelCostLevels& checked_prefix_entry(
      models::TaskId task, std::size_t sub_accel, std::size_t level,
      std::size_t layer) const;

  /// Shared model-memo entries, row-major [task][sub_accel].
  std::vector<std::shared_ptr<const costmodel::ModelCostLevels>> entries_;
};

}  // namespace xrbench::runtime
