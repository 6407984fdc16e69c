#include "graph/graph.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace df::graph {

namespace {
// Append `edges` shifted by `shift`. An endpoint outside the graph's own
// [0, nodes) would land on another pose's nodes, so it is rejected.
void append_shifted(const EdgeList& edges, int32_t shift, int64_t nodes, EdgeList& out) {
  if (edges.dst.size() != edges.src.size()) {
    throw std::invalid_argument("pack_graphs: edge list src/dst sizes differ");
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    const int32_t s = edges.src[e], d = edges.dst[e];
    if (s < 0 || s >= nodes || d < 0 || d >= nodes) {
      throw std::invalid_argument("pack_graphs: edge " + std::to_string(s) + " -> " +
                                  std::to_string(d) + " outside a graph of " +
                                  std::to_string(nodes) + " nodes");
    }
    out.src.push_back(s + shift);
    out.dst.push_back(d + shift);
  }
}
}  // namespace

PackedGraphBatch pack_graphs(const std::vector<const SpatialGraph*>& graphs) {
  if (graphs.empty()) throw std::invalid_argument("pack_graphs: empty batch");

  PackedGraphBatch out;
  out.node_offset.reserve(graphs.size() + 1);
  out.ligand_counts.reserve(graphs.size());
  out.node_offset.push_back(0);
  int64_t total_nodes = 0;
  size_t total_cov = 0, total_noncov = 0;
  int64_t F = -1;
  for (const SpatialGraph* g : graphs) {
    if (g == nullptr || g->num_nodes() == 0) {
      throw std::invalid_argument("pack_graphs: empty graph in batch");
    }
    if (F < 0) F = g->feature_dim();
    if (g->feature_dim() != F) {
      throw std::invalid_argument("pack_graphs: mismatched node feature widths");
    }
    total_nodes += g->num_nodes();
    total_cov += g->covalent.size();
    total_noncov += g->noncovalent.size();
    out.node_offset.push_back(total_nodes);
    out.ligand_counts.push_back(g->num_ligand_nodes);
  }

  out.node_features = Tensor::uninit({total_nodes, F});
  out.covalent.src.reserve(total_cov);
  out.covalent.dst.reserve(total_cov);
  out.noncovalent.src.reserve(total_noncov);
  out.noncovalent.dst.reserve(total_noncov);

  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const SpatialGraph& g = *graphs[gi];
    const int64_t base = out.node_offset[gi];
    std::memcpy(out.node_features.data() + base * F, g.node_features.data(),
                static_cast<size_t>(g.num_nodes() * F) * sizeof(float));
    const int32_t shift = static_cast<int32_t>(base);
    append_shifted(g.covalent, shift, g.num_nodes(), out.covalent);
    append_shifted(g.noncovalent, shift, g.num_nodes(), out.noncovalent);
  }
  return out;
}

}  // namespace df::graph
