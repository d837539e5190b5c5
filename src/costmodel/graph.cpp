#include "costmodel/graph.h"

#include <stdexcept>

namespace xrbench::costmodel {
namespace {

const std::shared_ptr<const LayerSignature>& empty_signature() {
  static const auto empty = std::make_shared<const LayerSignature>();
  return empty;
}

}  // namespace

void LayerSignature::append(const Layer& layer) {
  const std::int64_t packed[kFieldsPerLayer] = {
      static_cast<std::int64_t>(layer.type),
      layer.k,
      layer.c,
      layer.y,
      layer.x,
      layer.r,
      layer.s,
      layer.elems};
  for (std::int64_t v : packed) {
    fields.push_back(v);
    hash = fold(hash, static_cast<std::size_t>(v));
  }
}

void ModelGraph::add(Layer layer) {
  if (!layer.valid()) {
    throw std::invalid_argument("ModelGraph::add: invalid layer '" +
                                layer.name + "' in model '" + name_ + "'");
  }
  // Copy-on-write: extend in place only while this graph is the sole owner.
  // A signature shared with a memo key (or a copied graph) stays frozen.
  std::shared_ptr<LayerSignature> sig =
      sig_ && sig_.use_count() == 1
          ? std::const_pointer_cast<LayerSignature>(sig_)
          : std::make_shared<LayerSignature>(sig_ ? *sig_ : LayerSignature{});
  sig->append(layer);
  sig_ = std::move(sig);
  layers_.push_back(std::move(layer));
}

const LayerSignature& ModelGraph::signature() const {
  return sig_ ? *sig_ : *empty_signature();
}

std::shared_ptr<const LayerSignature> ModelGraph::shared_signature() const {
  return sig_ ? sig_ : empty_signature();
}

std::int64_t ModelGraph::total_macs() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l.macs();
  return total;
}

std::int64_t ModelGraph::total_params() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l.params();
  return total;
}

std::int64_t ModelGraph::total_activation_bytes() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l.output_bytes();
  return total;
}

}  // namespace xrbench::costmodel
