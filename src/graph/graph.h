// Spatial graph representation of a protein–ligand complex, the input to the
// SG-CNN. Two directed edge sets mirror FAST/PotentialNet's edge types:
// covalent (bond graph, short threshold) and non-covalent (spatial
// neighbours across the interface, longer threshold).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/tensor.h"

namespace df::graph {

using core::Tensor;

/// Directed edge list stored as parallel (src, dst) arrays for tight loops.
struct EdgeList {
  std::vector<int32_t> src;
  std::vector<int32_t> dst;

  void add(int32_t s, int32_t d) {
    src.push_back(s);
    dst.push_back(d);
  }
  /// Add both directions (all chemistry edges in this library are symmetric).
  void add_undirected(int32_t a, int32_t b) {
    add(a, b);
    add(b, a);
  }
  size_t size() const { return src.size(); }
};

struct SpatialGraph {
  Tensor node_features;    // (num_nodes, feature_dim)
  EdgeList covalent;       // bond-graph edges
  EdgeList noncovalent;    // interface / spatial edges
  /// Per-directed-edge geometry channels for `noncovalent`, row i describing
  /// edge i: [distance / threshold, interface H-bond flag]. Populated only
  /// at feature_set_version >= 2 (chem/graph_featurizer.h); empty for v1,
  /// so v1 graphs — and every model consuming them — stay bitwise pinned.
  Tensor noncovalent_features;  // (noncovalent.size(), kGraphEdgeFeaturesV2) or empty
  int32_t num_ligand_nodes = 0;  // ligand atoms come first; gather sums them

  int64_t num_nodes() const { return node_features.empty() ? 0 : node_features.dim(0); }
  int64_t feature_dim() const { return node_features.empty() ? 0 : node_features.dim(1); }
};

/// A batch of pose graphs packed block-diagonally: node features stacked
/// into one (total_nodes, F) matrix, edge lists concatenated with node ids
/// shifted by each graph's offset. Message passing over the packed batch is
/// one wide GEMM per layer instead of one small GEMM per pose — no edge can
/// cross graphs, so the result rows are bitwise identical to running each
/// graph alone (the GEMM kernel is row-stable). The SG-CNN's batched
/// inference path (models/sgcnn.h) and the fusion models' predict_batch run
/// on this layout.
struct PackedGraphBatch {
  Tensor node_features;              // (total_nodes, F), graph g at rows
                                     //   [node_offset[g], node_offset[g+1])
  EdgeList covalent, noncovalent;    // shifted into packed node ids
  std::vector<int64_t> node_offset;  // size num_graphs()+1, prefix sums
  std::vector<int64_t> ligand_counts;  // per-graph num_ligand_nodes

  int64_t num_graphs() const { return static_cast<int64_t>(ligand_counts.size()); }
  int64_t total_nodes() const { return node_offset.empty() ? 0 : node_offset.back(); }
};

/// Pack `graphs` block-diagonally. Throws std::invalid_argument on an empty
/// batch, an empty graph (no nodes — mirrors Sgcnn's per-pose check),
/// mismatched feature widths or an edge endpoint outside its own graph.
PackedGraphBatch pack_graphs(const std::vector<const SpatialGraph*>& graphs);

}  // namespace df::graph
