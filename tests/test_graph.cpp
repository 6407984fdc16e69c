#include <gtest/gtest.h>

#include <cstring>

#include "core/rng.h"
#include "core/threadpool.h"
#include "graph/gated_graph_conv.h"
#include "graph/gather.h"
#include "graph/graph.h"
#include "graph/gru_cell.h"

namespace df::graph {
namespace {

using core::Rng;
using core::Tensor;

TEST(EdgeList, UndirectedAddsBothDirections) {
  EdgeList e;
  e.add_undirected(1, 2);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e.src[0], 1);
  EXPECT_EQ(e.dst[0], 2);
  EXPECT_EQ(e.src[1], 2);
  EXPECT_EQ(e.dst[1], 1);
}

TEST(GRUCell, OutputShapeMatchesState) {
  Rng rng(1);
  GRUCell gru(8, rng);
  Tensor x = Tensor::randn({5, 8}, rng);
  Tensor h = Tensor::randn({5, 8}, rng);
  Tensor h2 = gru.forward(x, h, false);
  EXPECT_EQ(h2.shape(), h.shape());
}

TEST(GRUCell, InterpolatesBetweenStateAndCandidate) {
  // h' = (1-z) h + z c is a convex combination, so each output element lies
  // within [min(h,c)-eps, max(h,c)+eps] where c in (-1,1) from tanh.
  Rng rng(2);
  GRUCell gru(4, rng);
  Tensor x = Tensor::randn({3, 4}, rng);
  Tensor h = Tensor::randn({3, 4}, rng, 0.5f);
  Tensor h2 = gru.forward(x, h, false);
  for (int64_t i = 0; i < h2.numel(); ++i) {
    EXPECT_LE(h2[i], std::max(h[i], 1.0f) + 1e-5f);
    EXPECT_GE(h2[i], std::min(h[i], -1.0f) - 1e-5f);
  }
}

TEST(GRUCell, FrameStackDiscipline) {
  Rng rng(3);
  GRUCell gru(4, rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor h = Tensor::randn({2, 4}, rng);
  EXPECT_FALSE(gru.has_frames());
  Tensor h1 = gru.forward(x, h, true);
  Tensor h2 = gru.forward(x, h1, true);
  EXPECT_TRUE(gru.has_frames());
  gru.backward(Tensor::ones({2, 4}));
  gru.backward(Tensor::ones({2, 4}));
  EXPECT_FALSE(gru.has_frames());
  EXPECT_THROW(gru.backward(Tensor::ones({2, 4})), std::runtime_error);
}

TEST(GRUCell, RejectsInputsOfTheWrongWidth) {
  // A width other than dim() would read past the x/h rows and the
  // dim x dim weights.
  Rng rng(11);
  GRUCell gru(8, rng);
  for (bool training : {false, true}) {
    Tensor x = Tensor::randn({5, 7}, rng);
    Tensor h = Tensor::randn({5, 7}, rng);
    EXPECT_THROW(gru.forward(x, h, training), std::invalid_argument);
    Tensor x9 = Tensor::randn({5, 9}, rng);
    EXPECT_THROW(gru.forward(x9, Tensor::randn({5, 9}, rng), training), std::invalid_argument);
    EXPECT_THROW(gru.forward(Tensor::randn({5, 8}, rng), h, training), std::invalid_argument);
    EXPECT_THROW(gru.forward(Tensor::randn({40}, rng), Tensor::randn({40}, rng), training),
                 std::invalid_argument);
  }
  EXPECT_FALSE(gru.has_frames());
}

TEST(GRUCell, ParameterCount) {
  Rng rng(4);
  GRUCell gru(8, rng);
  std::vector<nn::Parameter*> p;
  gru.collect_parameters(p);
  EXPECT_EQ(p.size(), 9u);  // 3 gates x (W, U, b)
}

TEST(GatedGraphConv, IsolatedNodesKeepZeroMessages) {
  // With no edges, message is zero everywhere; states still evolve through
  // the GRU but identically for identical inputs.
  Rng rng(5);
  GatedGraphConv ggc(6, 3, rng);
  EdgeList empty;
  Tensor h0 = Tensor::randn({4, 6}, rng);
  // duplicate rows 0 and 1
  for (int64_t j = 0; j < 6; ++j) h0.at(1, j) = h0.at(0, j);
  Tensor h = ggc.forward(h0, empty, false);
  for (int64_t j = 0; j < 6; ++j) EXPECT_FLOAT_EQ(h.at(0, j), h.at(1, j));
}

TEST(GatedGraphConv, MessagePassingPropagatesInformation) {
  // A chain 0-1-2: after 2 steps, node 2's state must depend on node 0's
  // input. Verify by perturbing node 0 and observing node 2 change.
  Rng rng(6);
  GatedGraphConv ggc(6, 2, rng);
  EdgeList chain;
  chain.add_undirected(0, 1);
  chain.add_undirected(1, 2);
  Tensor h0 = Tensor::randn({3, 6}, rng);
  Tensor out1 = ggc.forward(h0, chain, false);
  h0.at(0, 0) += 1.0f;
  Tensor out2 = ggc.forward(h0, chain, false);
  float delta = 0.0f;
  for (int64_t j = 0; j < 6; ++j) delta += std::abs(out2.at(2, j) - out1.at(2, j));
  EXPECT_GT(delta, 1e-6f);
}

TEST(GatedGraphConv, OneStepLocality) {
  // With K=1, node 2 (two hops from node 0) cannot see node 0.
  Rng rng(7);
  GatedGraphConv ggc(6, 1, rng);
  EdgeList chain;
  chain.add_undirected(0, 1);
  chain.add_undirected(1, 2);
  Tensor h0 = Tensor::randn({3, 6}, rng);
  Tensor out1 = ggc.forward(h0, chain, false);
  h0.at(0, 0) += 1.0f;
  Tensor out2 = ggc.forward(h0, chain, false);
  for (int64_t j = 0; j < 6; ++j) EXPECT_FLOAT_EQ(out2.at(2, j), out1.at(2, j));
}

TEST(GatedGraphConv, RejectsEdgeEndpointsOutsideTheGraph) {
  Rng rng(12);
  GatedGraphConv ggc(6, 2, rng);
  Tensor h0 = Tensor::randn({4, 6}, rng);
  for (auto [s, d] : {std::pair{0, 4}, {4, 0}, {-1, 2}, {2, -1}, {0, 1 << 30}}) {
    EdgeList edges;
    edges.add_undirected(0, 1);
    edges.add(s, d);
    for (bool training : {false, true}) {
      EXPECT_THROW(ggc.forward(h0, edges, training), std::invalid_argument) << s << " -> " << d;
    }
  }
}

TEST(PackGraphs, RejectsEdgesOutsideTheirGraph) {
  // Packing shifts pose g's ids by its offset, so an out-of-range edge of
  // pose 0 would silently connect to pose 1's nodes.
  Rng rng(13);
  SpatialGraph a, b;
  a.node_features = Tensor::randn({3, 4}, rng);
  b.node_features = Tensor::randn({2, 4}, rng);
  a.covalent.add_undirected(0, 1);
  b.covalent.add_undirected(0, 1);
  EXPECT_NO_THROW(pack_graphs({&a, &b}));
  a.noncovalent.add(2, 3);
  EXPECT_THROW(pack_graphs({&a, &b}), std::invalid_argument);
  a.noncovalent = EdgeList{};
  b.covalent.add(-1, 0);
  EXPECT_THROW(pack_graphs({&a, &b}), std::invalid_argument);
}

// ---- eval == training, bitwise ---------------------------------------------
//
// GatedGraphConv's eval runs the fused tile step (gather, W_msg and the GRU
// gates per tile of kTileRows lane-padded rows); training runs whole-matrix
// sgemm calls per gate and is the reference. Widths cover the HPO's hidden sizes,
// the 16-lane edges and a width past sgemm's k-panel depth; row counts sit at
// and around the tile size.

const int64_t kEvalWidths[] = {1, 8, 16, 17, 24, 33, 40, 64, 88, 104, 128, 200};
const int64_t kEvalRows[] = {1, GatedGraphConv::kTileRows - 1, GatedGraphConv::kTileRows,
                             GatedGraphConv::kTileRows + 1, 3 * GatedGraphConv::kTileRows + 5};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Random in-edges with self-loops, duplicate edges and about a fifth of the
// nodes left without in-edges.
EdgeList random_edges(Rng& rng, int64_t rows, int64_t per_node) {
  EdgeList e;
  for (int32_t v = 0; v < rows; ++v) {
    if (rng.bernoulli(0.2)) continue;
    const int64_t deg = rng.randint(1, 2 * per_node);
    for (int64_t j = 0; j < deg; ++j) {
      const auto u = static_cast<int32_t>(rng.randint(0, rows - 1));
      e.add(u, v);
      if (j == 0 && rng.bernoulli(0.3)) e.add(u, v);  // duplicate edge
    }
    if (rng.bernoulli(0.3)) e.add(v, v);  // self-loop
  }
  return e;
}

TEST(GraphEval, GRUCellEvalEqualsTraining) {
  for (int64_t d : kEvalWidths) {
    for (int64_t rows : kEvalRows) {
      Rng rng(static_cast<uint64_t>(100 * d + rows));
      GRUCell gru(d, rng);
      const Tensor x = Tensor::randn({rows, d}, rng);
      const Tensor h = Tensor::randn({rows, d}, rng);
      const Tensor eval = gru.forward(x, h, false);
      const Tensor train = gru.forward(x, h, true);
      EXPECT_TRUE(bitwise_equal(eval, train)) << "d=" << d << " rows=" << rows;
      gru.clear_frames();
    }
  }
}

TEST(GraphEval, GatedGraphConvEvalEqualsTraining) {
  for (int64_t d : kEvalWidths) {
    for (int64_t rows : kEvalRows) {
      Rng rng(static_cast<uint64_t>(1000 * d + rows));
      GatedGraphConv ggc(d, 3, rng);
      const Tensor h0 = Tensor::randn({rows, d}, rng);
      const EdgeList edges = random_edges(rng, rows, 4);
      const Tensor eval = ggc.forward(h0, edges, false);
      const Tensor train = ggc.forward(h0, edges, true);
      EXPECT_TRUE(bitwise_equal(eval, train)) << "d=" << d << " rows=" << rows;
    }
  }
}

TEST(GraphEval, MatchesAReferenceSummingTheEdgeListInOrder) {
  // Eval and training share the neighbour aggregation, so pin it against an
  // independent step: sum each node's sources in flat edge-list order (the
  // edges shuffled, so the CSR must keep that order per node), multiply by
  // W_msg and run GRUCell::forward with the layer's own weights.
  for (int64_t d : {8, 24, 40}) {
    Rng rng(static_cast<uint64_t>(31 * d));
    GatedGraphConv ggc(d, 2, rng);
    GRUCell ref(d, rng);
    std::vector<nn::Parameter*> layer, cell;
    ggc.collect_parameters(layer);  // W_msg, then the GRU's nine
    ref.collect_parameters(cell);
    ASSERT_EQ(layer.size(), cell.size() + 1);
    for (size_t i = 0; i < cell.size(); ++i) cell[i]->value = layer[i + 1]->value;
    const int64_t rows = 2 * GatedGraphConv::kTileRows + 7;
    const EdgeList grouped = random_edges(rng, rows, 6);
    std::vector<size_t> order(grouped.size());
    for (size_t e = 0; e < order.size(); ++e) order[e] = e;
    rng.shuffle(order);
    EdgeList edges;
    for (size_t e : order) edges.add(grouped.src[e], grouped.dst[e]);
    Tensor h = Tensor::randn({rows, d}, rng);
    const Tensor out = ggc.forward(h, edges, false);
    for (int k = 0; k < 2; ++k) {
      Tensor agg({rows, d});
      for (size_t e = 0; e < edges.size(); ++e) {
        for (int64_t j = 0; j < d; ++j) agg.at(edges.dst[e], j) += h.at(edges.src[e], j);
      }
      h = ref.forward(agg.matmul(layer[0]->value), h, false);
    }
    EXPECT_TRUE(bitwise_equal(out, h)) << "d=" << d;
  }
}

TEST(GraphEval, EmptyEdgeListAndIsolatedNodes) {
  for (int64_t d : {8, 24, 40}) {
    Rng rng(static_cast<uint64_t>(d));
    GatedGraphConv ggc(d, 2, rng);
    const Tensor h0 = Tensor::randn({GatedGraphConv::kTileRows + 3, d}, rng);
    const EdgeList none;
    EXPECT_TRUE(bitwise_equal(ggc.forward(h0, none, false), ggc.forward(h0, none, true)))
        << "d=" << d;
    // One edge into the last node of the first tile; every other node,
    // the whole second tile included, is isolated.
    EdgeList one;
    one.add(GatedGraphConv::kTileRows + 2, GatedGraphConv::kTileRows - 1);
    EXPECT_TRUE(bitwise_equal(ggc.forward(h0, one, false), ggc.forward(h0, one, true)))
        << "d=" << d;
  }
}

TEST(GraphEval, ManyTilesMatchTraining) {
  for (int64_t d : {17, 24, 64}) {
    Rng rng(static_cast<uint64_t>(7 * d));
    GatedGraphConv ggc(d, 2, rng);
    const int64_t rows = 29 * GatedGraphConv::kTileRows + 11;
    const Tensor h0 = Tensor::randn({rows, d}, rng);
    const EdgeList edges = random_edges(rng, rows, 6);
    const Tensor train = ggc.forward(h0, edges, true);
    EXPECT_TRUE(bitwise_equal(ggc.forward(h0, edges, false), train)) << "d=" << d;
  }
}

TEST(Gather, OutputWidth) {
  Rng rng(8);
  Gather gather(6, 4, 10, rng);
  Tensor h = Tensor::randn({5, 6}, rng);
  Tensor x = Tensor::randn({5, 4}, rng);
  Tensor per_node = gather.forward_nodes(h, x, false);
  EXPECT_EQ(per_node.shape(), (std::vector<int64_t>{5, 10}));
  Tensor pooled = gather.forward_sum(h, x, 3, false);
  EXPECT_EQ(pooled.shape(), (std::vector<int64_t>{1, 10}));
}

TEST(Gather, SumOnlyCoversLigandNodes) {
  Rng rng(9);
  Gather gather(4, 2, 6, rng);
  Tensor h = Tensor::randn({4, 4}, rng);
  Tensor x = Tensor::randn({4, 2}, rng);
  Tensor per_node = gather.forward_nodes(h, x, false);
  Tensor pooled = gather.forward_sum(h, x, 2, false);
  for (int64_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(pooled.at(0, j), per_node.at(0, j) + per_node.at(1, j), 1e-5f);
  }
}

TEST(Gather, NodeCountMismatchThrows) {
  Rng rng(10);
  Gather gather(4, 2, 6, rng);
  Tensor h = Tensor::randn({4, 4}, rng);
  Tensor x = Tensor::randn({3, 2}, rng);
  EXPECT_THROW(gather.forward_nodes(h, x, false), std::invalid_argument);
}

}  // namespace
}  // namespace df::graph
