#include "graph/graph.h"

#include <utility>

#include "util/check.h"

namespace tpa {

namespace {

/// Per-edge normalized weights for the out-CSR: every edge in row u carries
/// 1/out-degree(u).  The reciprocal is computed in fp64 and rounded once to
/// the storage tier V — the exact expression the value-free kernels
/// synthesize per row, which is what pins kExplicit and kRowConstant
/// bitwise-identical.
template <typename V>
std::vector<V> OutWeights(std::span<const uint64_t> out_offsets,
                          size_t num_edges) {
  std::vector<V> weights(num_edges);
  const size_t num_nodes = out_offsets.size() - 1;
  for (size_t u = 0; u < num_nodes; ++u) {
    const uint64_t begin = out_offsets[u];
    const uint64_t end = out_offsets[u + 1];
    if (begin == end) continue;
    const V w = static_cast<V>(1.0 / static_cast<double>(end - begin));
    for (uint64_t e = begin; e < end; ++e) weights[e] = w;
  }
  return weights;
}

/// Per-edge weights for the in-CSR: the edge (v ← u) carries
/// 1/out-degree(u), looked up from the out offsets.
template <typename V>
std::vector<V> InWeights(std::span<const uint64_t> out_offsets,
                         std::span<const NodeId> in_sources) {
  std::vector<V> weights(in_sources.size());
  for (size_t e = 0; e < in_sources.size(); ++e) {
    const NodeId u = in_sources[e];
    weights[e] = static_cast<V>(
        1.0 / static_cast<double>(out_offsets[u + 1] - out_offsets[u]));
  }
  return weights;
}

/// Per-node reciprocal out-degrees, the one n-length array value-free
/// storage keeps per direction: the out-CSR reads it as a per-row scale
/// (kRowConstant — once per row, which beats synthesizing the division
/// in-loop on frontier-sparse queries), the in-CSR as a column scale
/// (kColumnScale — edge (v ← u) carries 1/out-degree(u), and u is the
/// column there).  Each entry is the same fp64-reciprocal-rounded-once
/// expression as OutWeights/InWeights, which pins the value-free modes
/// bitwise-identical to explicit storage.  Dangling nodes get 0: an empty
/// row is skipped by the kernels and a node with no out-edge never appears
/// as an in-CSR column, so those entries exist for indexing but are never
/// read.
template <typename V>
std::vector<V> OutDegreeReciprocals(std::span<const uint64_t> out_offsets) {
  const size_t num_nodes = out_offsets.size() - 1;
  std::vector<V> scales(num_nodes, V{0});
  for (size_t u = 0; u < num_nodes; ++u) {
    const uint64_t degree = out_offsets[u + 1] - out_offsets[u];
    if (degree == 0) continue;
    scales[u] = static_cast<V>(1.0 / static_cast<double>(degree));
  }
  return scales;
}

}  // namespace

Graph::Graph(NodeId num_nodes, std::vector<uint64_t> out_offsets,
             std::vector<NodeId> out_targets, std::vector<uint64_t> in_offsets,
             std::vector<NodeId> in_sources, la::Precision value_precision,
             ValueStorage value_storage)
    : num_nodes_(num_nodes),
      precision_(value_precision),
      value_storage_(value_storage) {
  TPA_CHECK_EQ(out_targets.size(), in_sources.size());
  // MakeCsrStructure validates offsets shape/monotonicity and index range
  // (in particular in_sources < num_nodes, which the weight builders rely
  // on before dereferencing out_offsets[u + 1]).
  out_structure_ = la::MakeCsrStructure(num_nodes_, num_nodes_,
                                        std::move(out_offsets),
                                        std::move(out_targets));
  in_structure_ = la::MakeCsrStructure(num_nodes_, num_nodes_,
                                       std::move(in_offsets),
                                       std::move(in_sources));
  EnsureTier(precision_);
}

Graph::Graph(const Graph& other, la::Precision tier)
    : num_nodes_(other.num_nodes_),
      precision_(tier),
      value_storage_(other.value_storage_),
      out_structure_(other.out_structure_),  // aliases the shared topology
      in_structure_(other.in_structure_),
      permutation_(other.permutation_) {
  EnsureTier(tier);
}

template <typename V>
void Graph::MaterializeTierT(la::CsrMatrixT<V>& out,
                             la::CsrMatrixT<V>& in) const {
  const std::span<const uint64_t> out_offsets =
      out_structure_.row_offsets.span();
  if (value_storage_ == ValueStorage::kExplicit) {
    out = la::CsrMatrixT<V>(out_structure_,
                            OutWeights<V>(out_offsets, out_structure_.nnz()));
    in = la::CsrMatrixT<V>(in_structure_,
                           InWeights<V>(out_offsets,
                                        in_structure_.col_indices.span()));
  } else {
    std::vector<V> scales = OutDegreeReciprocals<V>(out_offsets);
    out = la::CsrMatrixT<V>(out_structure_, la::CsrValueMode::kRowConstant,
                            std::vector<V>(scales));
    in = la::CsrMatrixT<V>(in_structure_, la::CsrValueMode::kColumnScale,
                           std::move(scales));
  }
}

void Graph::EnsureTier(la::Precision tier) {
  if (HasTier(tier)) return;
  if (tier == la::Precision::kFloat64) {
    MaterializeTierT<double>(out_csr_, in_csr_);
    has_fp64_ = true;
  } else {
    MaterializeTierT<float>(out_csr_f_, in_csr_f_);
    has_fp32_ = true;
  }
}

NodeId Graph::CountDangling() const {
  NodeId count = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (OutDegree(u) == 0) ++count;
  }
  return count;
}

Graph RematerializeWithPrecision(const Graph& graph, la::Precision precision) {
  return Graph(graph, precision);
}

}  // namespace tpa
