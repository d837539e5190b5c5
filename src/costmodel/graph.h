#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/layer.h"

namespace xrbench::costmodel {

/// The cost-relevant content of a layer list, packed for the model memo:
/// 8 fields per layer (op type and the seven dimensions; names excluded)
/// plus a running hash over them. Two graphs with equal signatures cost
/// the same on every sub-accelerator.
struct LayerSignature {
  static constexpr std::size_t kFieldsPerLayer = 8;

  std::vector<std::int64_t> fields;
  /// Polynomial fold of `fields` (see fold); not finalized, so the model
  /// memo can keep folding sub-accelerator fields into it.
  std::size_t hash = 0;

  void append(const Layer& layer);

  /// Polynomial accumulation with an odd multiplier (FNV-style): the
  /// multiply shifts every prior field's bits upward so small integers in
  /// successive fields never cancel. Consumers finalize the fold once.
  static std::size_t fold(std::size_t seed, std::size_t v) {
    return (seed ^ v) * 0x9e3779b97f4a7c15ULL;
  }

  bool operator==(const LayerSignature& o) const {
    return hash == o.hash && fields == o.fields;
  }
};

/// A model lowered to an ordered list of primitive layers.
///
/// Execution is layer-by-layer (the cost model assumes no inter-layer
/// pipelining, matching MAESTRO's per-layer analysis).
class ModelGraph {
 public:
  ModelGraph() = default;
  explicit ModelGraph(std::string name) : name_(std::move(name)) {}

  /// Appends `layer` and extends the signature in amortized O(1).
  void add(Layer layer);

  const std::string& name() const { return name_; }
  const std::vector<Layer>& layers() const { return layers_; }
  std::size_t num_layers() const { return layers_.size(); }
  bool empty() const { return layers_.empty(); }

  /// Packed signature of layers(), kept current by add().
  const LayerSignature& signature() const;
  /// The same signature as a shared, immutable snapshot (memo keys hold
  /// it). add() never writes to a snapshot someone else holds: it copies
  /// first, so a graph mutated after a memo lookup can not alias the entry
  /// made for its earlier layer list.
  std::shared_ptr<const LayerSignature> shared_signature() const;

  /// Aggregate multiply-accumulate count across layers.
  std::int64_t total_macs() const;

  /// FLOPs = 2 * MACs for MAC ops plus vector op counts.
  std::int64_t total_flops() const { return 2 * total_macs(); }

  /// Total parameter count (elements; bytes at 8-bit quantization).
  std::int64_t total_params() const;

  /// Sum of per-layer activation output bytes (8-bit).
  std::int64_t total_activation_bytes() const;

 private:
  std::string name_;
  std::vector<Layer> layers_;
  /// Null while the graph has no layers.
  std::shared_ptr<const LayerSignature> sig_;
};

}  // namespace xrbench::costmodel
