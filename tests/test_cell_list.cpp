// Neighbor-search pins for the chem::CellList engine (ROADMAP item 4):
//   * gather() is a sorted superset of the in-radius set; knearest() matches
//     the full (distance, index) sort exactly, ties included,
//   * the featurizer (knearest crop, branch-free pair sweep) matches a
//     test-local reference that shares none of its code — node features,
//     both edge lists, crop order — across random geometries and cutoff
//     boundary cases (atom exactly at the threshold, far off-grid atoms,
//     empty pocket, single atom),
//   * all MM-GBSA terms (LJ, GB with a finite cutoff, SA, electrostatics)
//     and the full mmgbsa_score pipeline are bitwise identical on both
//     paths, and elec_energy reproduces score_terms().electrostatic bit for
//     bit (the minimizer-objective bugfix rests on this),
//   * hostile geometry: a non-finite position or probe throws, far-apart
//     atoms keep the grid within max(27, 8n) cells with both queries exact,
//     the voxelizer drops atoms far off its grid and rejects non-finite
//     ones, and the scorer turns a NaN pocket into std::invalid_argument,
//   * the pocket crop breaks distance ties by index (symmetric pockets),
//     on the featurizer's own crop list and on a prebuilt one,
//   * at serving shapes (2048-atom receptors, 64-atom crop) the featurizer
//     matches a test-local reference that shares none of its scan code,
//     with and without a pre-built crop list, and concurrent queries on one
//     shared list match serial ones,
//   * feature_set_version wiring: v1 stays bitwise-pinned next to v2, v2
//     adds the H-bond channels/degrees, and mismatched versions are
//     rejected by the scorer and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chem/cell_list.h"
#include "chem/conformer.h"
#include "chem/graph_featurizer.h"
#include "chem/hbond.h"
#include "chem/smiles.h"
#include "chem/voxelizer.h"
#include "compile/model_compiler.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "data/target.h"
#include "dock/mmgbsa.h"
#include "dock/scoring.h"
#include "models/cnn3d.h"
#include "serve/registry.h"
#include "serve/scorer.h"

namespace df {
namespace {

using core::Rng;
using core::Tensor;
using core::Vec3;

std::vector<Vec3> random_points(Rng& rng, int n, float extent) {
  std::vector<Vec3> pts(static_cast<size_t>(n));
  for (Vec3& p : pts) {
    p = {(rng.uniform() - 0.5f) * extent, (rng.uniform() - 0.5f) * extent,
         (rng.uniform() - 0.5f) * extent};
  }
  return pts;
}

chem::Molecule random_ligand(Rng& rng) {
  chem::Molecule m = chem::generate_molecule({}, rng);
  chem::embed_conformer(m, rng);
  return m;
}

std::vector<chem::Atom> random_pocket(Rng& rng, int n, float radius = 7.0f) {
  data::PocketConfig pc;
  pc.num_atoms = n;
  pc.radius = radius;
  return data::make_pocket(pc, rng);
}

// A receptor at serving scale: `n` heavy atoms uniform in a ball at protein
// density (0.055 atoms/A^3) around the origin, with a protein-like element,
// charge, implicit-H and aromatic mix.
std::vector<chem::Atom> protein_cloud(Rng& rng, int n) {
  const float radius = std::cbrt(3.0f * static_cast<float>(n) / (4.0f * 3.14159265f * 0.055f));
  std::vector<chem::Atom> cloud(static_cast<size_t>(n));
  for (chem::Atom& a : cloud) {
    const Vec3 dir = Vec3{rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f)}
                         .normalized();
    a.pos = dir * (radius * std::cbrt(rng.uniform()));
    const float u = rng.uniform();
    if (u < 0.1f) {
      a.element = rng.bernoulli(0.5) ? chem::Element::N : chem::Element::O;
      a.formal_charge = a.element == chem::Element::N ? 1 : -1;
    } else if (u < 0.6f) {
      a.element = chem::Element::C;
      a.aromatic = rng.bernoulli(0.3);
    } else {
      const float v = rng.uniform();
      a.element = v < 0.4f ? chem::Element::O : (v < 0.8f ? chem::Element::N : chem::Element::S);
      a.implicit_h = rng.bernoulli(0.5) ? 1 : 0;
    }
  }
  return cloud;
}

// A bonded ligand placed at the site: embedded, centred, rotated and
// shifted by about an Angstrom, as docked poses are.
chem::Molecule ligand_at_site(Rng& rng) {
  chem::Molecule m = random_ligand(rng);
  m.translate(Vec3{} - m.centroid());
  const Vec3 axis = Vec3{rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f)}
                        .normalized();
  m.rotate(Vec3{}, axis, rng.uniform(0.0f, 6.2831853f));
  m.translate(Vec3{rng.normal(0.0f, 0.8f), rng.normal(0.0f, 0.8f), rng.normal(0.0f, 0.8f)});
  return m;
}

std::vector<Vec3> positions(const std::vector<chem::Atom>& atoms) {
  std::vector<Vec3> pos;
  for (const chem::Atom& a : atoms) pos.push_back(a.pos);
  return pos;
}

void expect_tensor_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)));
}

void expect_graph_bitwise(const graph::SpatialGraph& a, const graph::SpatialGraph& b) {
  EXPECT_EQ(a.num_ligand_nodes, b.num_ligand_nodes);
  expect_tensor_bitwise(a.node_features, b.node_features);
  EXPECT_EQ(a.covalent.src, b.covalent.src);
  EXPECT_EQ(a.covalent.dst, b.covalent.dst);
  EXPECT_EQ(a.noncovalent.src, b.noncovalent.src);
  EXPECT_EQ(a.noncovalent.dst, b.noncovalent.dst);
  EXPECT_EQ(a.noncovalent_features.empty(), b.noncovalent_features.empty());
  if (!a.noncovalent_features.empty()) {
    expect_tensor_bitwise(a.noncovalent_features, b.noncovalent_features);
  }
}

// ---- CellList unit pins --------------------------------------------------

void expect_gather_is_sorted_superset(const chem::CellList& cells, const std::vector<Vec3>& pts,
                                      const Vec3& p, float r) {
  std::vector<int32_t> got;
  cells.gather(p, got);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  for (size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].dist(p) <= r) {
      EXPECT_TRUE(std::binary_search(got.begin(), got.end(), static_cast<int32_t>(i)))
          << "atom " << i << " within radius missing from gather";
    }
  }
}

TEST(CellList, GatherIsSortedSupersetOfRadius) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<Vec3> pts = random_points(rng, 200, 30.0f);
    chem::CellList cells;
    const float r = 5.0f;
    cells.build(pts.data(), static_cast<int32_t>(pts.size()), r);
    for (int probe = 0; probe < 20; ++probe) {
      const Vec3 p = {(rng.uniform() - 0.5f) * 40.0f, (rng.uniform() - 0.5f) * 40.0f,
                      (rng.uniform() - 0.5f) * 40.0f};
      expect_gather_is_sorted_superset(cells, pts, p, r);
    }
  }
}

void expect_knearest_is_sort_prefix(const chem::CellList& cells, const std::vector<Vec3>& pts,
                                    const Vec3& p, int k) {
  std::vector<int32_t> got;
  cells.knearest(p, k, got);
  std::vector<std::pair<float, int32_t>> ref(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) ref[i] = {pts[i].dist(p), static_cast<int32_t>(i)};
  std::sort(ref.begin(), ref.end());
  ASSERT_EQ(got.size(), static_cast<size_t>(std::min<size_t>(static_cast<size_t>(k), pts.size())));
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], ref[i].second) << "k " << k << ", place " << i;
  }
}

TEST(CellList, KNearestMatchesFullSortWithIndexTieBreak) {
  Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<Vec3> pts = random_points(rng, 150, 25.0f);
    chem::CellList cells;
    cells.build(pts.data(), static_cast<int32_t>(pts.size()), 4.0f);
    const Vec3 p = {(rng.uniform() - 0.5f) * 25.0f, (rng.uniform() - 0.5f) * 25.0f,
                    (rng.uniform() - 0.5f) * 25.0f};
    // k = n - 1 and k = n exhaust the grid before the stopping bound holds.
    for (int k : {1, 7, 64, 149, 150}) expect_knearest_is_sort_prefix(cells, pts, p, k);
  }

  // The serving crop's shape: 2048 atoms at protein density in 5.22-A cells,
  // k = 64, probed near the site (where ligand centroids sit) and anywhere
  // in the cloud; then k = n - 1 and k = n on the same list.
  const chem::GraphFeaturizerConfig serving;
  const std::vector<Vec3> cloud = positions(protein_cloud(rng, 2048));
  chem::CellList crop;
  crop.build(cloud.data(), static_cast<int32_t>(cloud.size()), serving.noncovalent_threshold);
  for (int probe = 0; probe < 16; ++probe) {
    const float spread = probe < 8 ? 2.0f : 30.0f;
    const Vec3 p = {rng.normal(0.0f, spread), rng.normal(0.0f, spread), rng.normal(0.0f, spread)};
    expect_knearest_is_sort_prefix(crop, cloud, p, serving.max_pocket_atoms);
  }
  expect_knearest_is_sort_prefix(crop, cloud, {0, 0, 0}, 2047);
  expect_knearest_is_sort_prefix(crop, cloud, {0, 0, 0}, 2048);

  // Exact distance ties straddling the k-th place: copy the k-th nearest
  // atom's position onto atoms on both sides of it in index order (and on
  // both sides of the cut), so only the index tie-break decides who stays.
  const int k = serving.max_pocket_atoms;
  const Vec3 p = {0.3f, -0.2f, 0.1f};
  std::vector<std::pair<float, int32_t>> order(cloud.size());
  for (size_t i = 0; i < cloud.size(); ++i) order[i] = {cloud[i].dist(p), static_cast<int32_t>(i)};
  std::sort(order.begin(), order.end());
  std::vector<Vec3> tied = cloud;
  const Vec3 kth = cloud[static_cast<size_t>(order[static_cast<size_t>(k - 1)].second)];
  for (int place : {k - 3, k - 2, k, k + 1, k + 5, k + 40}) {
    tied[static_cast<size_t>(order[static_cast<size_t>(place)].second)] = kth;
  }
  chem::CellList tied_cells;
  tied_cells.build(tied.data(), static_cast<int32_t>(tied.size()), serving.noncovalent_threshold);
  for (int kk : {k - 2, k - 1, k, k + 1, k + 2}) expect_knearest_is_sort_prefix(tied_cells, tied, p, kk);
}

TEST(CellList, ConcurrentQueriesOnOneSharedListMatchSerial) {
  // The pocket cache hands one built list to every replica: four threads
  // querying it at once, directly and as featurize's crop_cells, must see
  // exactly what one thread sees.
  Rng rng(13);
  const std::vector<chem::Atom> pocket = protein_cloud(rng, 2048);
  const std::vector<Vec3> pos = positions(pocket);
  const chem::GraphFeaturizer featurizer;
  chem::CellList shared;
  shared.build(pos.data(), static_cast<int32_t>(pos.size()),
               featurizer.config().noncovalent_threshold);
  std::vector<chem::Molecule> ligands;
  for (int i = 0; i < 12; ++i) ligands.push_back(ligand_at_site(rng));

  std::vector<std::vector<int32_t>> crops(ligands.size());
  std::vector<graph::SpatialGraph> graphs;
  for (size_t i = 0; i < ligands.size(); ++i) {
    shared.knearest(ligands[i].centroid(), 64, crops[i]);
    graphs.push_back(featurizer.featurize(ligands[i], pocket, &shared));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<int32_t>>> got_crops(kThreads);
  std::vector<std::vector<graph::SpatialGraph>> got_graphs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the ligands from its own offset, twice.
      for (size_t step = 0; step < 2 * ligands.size(); ++step) {
        const size_t i = (step + static_cast<size_t>(t) * 5) % ligands.size();
        std::vector<int32_t> crop;
        shared.knearest(ligands[i].centroid(), 64, crop);
        got_crops[static_cast<size_t>(t)].push_back(std::move(crop));
        got_graphs[static_cast<size_t>(t)].push_back(featurizer.featurize(ligands[i], pocket, &shared));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t step = 0; step < 2 * ligands.size(); ++step) {
      const size_t i = (step + static_cast<size_t>(t) * 5) % ligands.size();
      EXPECT_EQ(got_crops[static_cast<size_t>(t)][step], crops[i]) << "thread " << t << ", ligand " << i;
      expect_graph_bitwise(got_graphs[static_cast<size_t>(t)][step], graphs[i]);
    }
  }
}

TEST(CellList, EmptyAndSingleAtom) {
  chem::CellList cells;
  cells.build(nullptr, 0, 3.0f);
  std::vector<int32_t> got{99};
  cells.gather({0, 0, 0}, got);
  EXPECT_TRUE(got.empty());
  cells.knearest({0, 0, 0}, 4, got);
  EXPECT_TRUE(got.empty());

  const Vec3 one{1, 2, 3};
  cells.build(&one, 1, 3.0f);
  cells.gather({1, 2, 3}, got);
  EXPECT_EQ(got, (std::vector<int32_t>{0}));
  cells.knearest({100, 100, 100}, 5, got);  // probe far off-grid, k > n
  EXPECT_EQ(got, (std::vector<int32_t>{0}));
  EXPECT_THROW(cells.build(&one, 1, 0.0f), std::invalid_argument);
}

// ---- hostile geometry ----------------------------------------------------

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(CellList, NonFinitePositionOrProbeThrows) {
  chem::CellList cells;
  const std::vector<Vec3> nan_atom = {{0, 0, 0}, {1, kNaN, 2}};
  EXPECT_THROW(cells.build(nan_atom.data(), 2, 4.0f), std::invalid_argument);
  const Vec3 inf_atom{kInf, 0, 0};
  EXPECT_THROW(cells.build(&inf_atom, 1, 4.0f), std::invalid_argument);

  const std::vector<Vec3> pts = {{0, 0, 0}, {3, 1, 2}};
  cells.build(pts.data(), 2, 4.0f);
  std::vector<int32_t> got;
  for (const Vec3& probe : {Vec3{kNaN, 0, 0}, Vec3{0, 0, -kInf}}) {
    EXPECT_THROW(cells.gather(probe, got), std::invalid_argument);
    EXPECT_THROW(cells.knearest(probe, 1, got), std::invalid_argument);
    EXPECT_THROW(cells.covers_all(probe), std::invalid_argument);
  }
  // A finite probe whose cell lies past int32_t range answers as one just
  // off the grid: an empty stencil, and every atom by (distance, index).
  cells.gather({1e30f, 0, 0}, got);
  EXPECT_TRUE(got.empty());
  cells.knearest({-1e30f, 0, 0}, 2, got);
  EXPECT_EQ(got, (std::vector<int32_t>{0, 1}));
}

// Cells of a grid whose cell side is `cell` over the bounding box of `pts`.
double grid_cells(const std::vector<Vec3>& pts, float cell) {
  Vec3 lo = pts[0], hi = pts[0];
  for (const Vec3& p : pts) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  return (std::floor((hi.x - lo.x) / cell) + 1.0) * (std::floor((hi.y - lo.y) / cell) + 1.0) *
         (std::floor((hi.z - lo.z) / cell) + 1.0);
}

TEST(CellList, FarApartAtomsKeepTheGridLinear) {
  // Two atoms 500 A apart span 96 cells of 5.22 A, past the cap of
  // max(27, 8n) cells, and a cloud with one far outlier spans 2475 against
  // its cap of 1208: each list coarsens its cells until the grid fits, and
  // both queries keep their contracts on the coarse grid.
  Rng rng(14);
  std::vector<Vec3> cloud = random_points(rng, 150, 25.0f);
  cloud.push_back({500.0f, 0.0f, 0.0f});
  const float cell = 5.22f;
  for (const std::vector<Vec3>& pts : {std::vector<Vec3>{{0, 0, 0}, {500, 0, 0}}, cloud}) {
    const double cap = std::max(27.0, 8.0 * static_cast<double>(pts.size()));
    ASSERT_GT(grid_cells(pts, cell), cap);
    chem::CellList cells;
    cells.build(pts.data(), static_cast<int32_t>(pts.size()), cell);
    EXPECT_GT(cells.cell_size(), cell);
    EXPECT_LE(grid_cells(pts, cells.cell_size()), cap);
    for (const Vec3& p : {pts[0], pts.back(), Vec3{250, 0, 0}, Vec3{3, -4, 2}, Vec3{-40, 9, 0}}) {
      expect_gather_is_sorted_superset(cells, pts, p, cell);
      for (int k : {1, 2, 17}) expect_knearest_is_sort_prefix(cells, pts, p, k);
    }
  }
}

TEST(HostileGeometry, VoxelizerDropsFarAtomsAndRejectsNonFinite) {
  Rng rng(15);
  chem::Molecule lig = random_ligand(rng);
  lig.translate(Vec3{} - lig.centroid());
  const std::vector<chem::Atom> pocket = random_pocket(rng, 60);
  std::vector<chem::Atom> far = pocket;
  far.push_back({chem::Element::N, {1e30f, 0, -1e30f}, 0, false, 1});
  for (int v : {1, 2}) {
    chem::VoxelConfig cfg;
    cfg.feature_set_version = v;
    const chem::Voxelizer vox(cfg);
    expect_tensor_bitwise(vox.voxelize(lig, far, {}), vox.voxelize(lig, pocket, {}));
    expect_tensor_bitwise(vox.voxelize_pocket(far, {}), vox.voxelize_pocket(pocket, {}));
  }
  const chem::Voxelizer vox;
  std::vector<chem::Atom> nan_pocket = pocket;
  nan_pocket[3].pos.y = kNaN;
  EXPECT_THROW(vox.voxelize(lig, nan_pocket, {}), std::invalid_argument);
  EXPECT_THROW(vox.voxelize_pocket(pocket, {kNaN, 0, 0}), std::invalid_argument);
}

TEST(HostileGeometry, ScorerRejectsANaNPocket) {
  Rng rng(16);
  const chem::VoxelConfig vc;
  models::Cnn3dConfig cc;
  cc.grid_dim = vc.grid_dim;
  cc.in_channels = vc.channels();
  cc.conv_filters1 = 4;
  cc.conv_filters2 = 8;
  cc.dense_nodes = 16;
  serve::RegressorScorer scorer("cnn3d", std::make_unique<models::Cnn3d>(cc, rng), vc, {});
  std::vector<chem::Atom> pocket = random_pocket(rng, 40);
  pocket[5].pos.x = kNaN;
  serve::PoseInput pose;
  pose.ligand = random_ligand(rng);
  pose.pocket = &pocket;
  EXPECT_THROW(scorer.score({&pose}), std::invalid_argument);
  scorer.set_pocket_cache(std::make_shared<serve::PocketCache>(2));
  EXPECT_THROW(scorer.score({&pose}), std::invalid_argument);
}

// ---- featurizer vs an independent reference -----------------------------

// Test-local reference featurizer, sharing no scan code with the library:
// the crop is a full (distance, index) sort, both pair scans are plain
// double loops into add_undirected, ligand bonds come from the bond list,
// and the v2 edge channels look H-bonds up by linear search. Comparing
// against it sees a changed crop, edge set or edge order.
graph::SpatialGraph reference_featurize(const chem::Molecule& lig,
                                        const std::vector<chem::Atom>& pocket,
                                        const chem::GraphFeaturizerConfig& cfg) {
  const int64_t nl = static_cast<int64_t>(lig.num_atoms());
  const int64_t np = std::min<int64_t>(static_cast<int64_t>(pocket.size()), cfg.max_pocket_atoms);
  const Vec3 lc = lig.centroid();
  std::vector<std::pair<float, int32_t>> by_dist;
  for (size_t i = 0; i < pocket.size(); ++i) {
    by_dist.emplace_back(pocket[i].pos.dist(lc), static_cast<int32_t>(i));
  }
  std::sort(by_dist.begin(), by_dist.end());
  std::vector<chem::Atom> crop;
  for (int64_t i = 0; i < np; ++i) {
    crop.push_back(pocket[static_cast<size_t>(by_dist[static_cast<size_t>(i)].second)]);
  }
  std::vector<Vec3> xyz;
  for (const chem::Atom& a : lig.atoms()) xyz.push_back(a.pos);
  for (const chem::Atom& a : crop) xyz.push_back(a.pos);
  const int64_t total = nl + np;
  const bool v2 = cfg.feature_set_version >= 2;

  graph::SpatialGraph g;
  g.num_ligand_nodes = static_cast<int32_t>(nl);
  std::vector<std::pair<int32_t, int32_t>> pseudo;
  for (int64_t i = nl; i < total; ++i) {
    for (int64_t j = i + 1; j < total; ++j) {
      if (xyz[static_cast<size_t>(i)].dist(xyz[static_cast<size_t>(j)]) <= cfg.covalent_threshold) {
        pseudo.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
      }
    }
  }
  std::vector<int> degree(static_cast<size_t>(total), 0);
  for (int64_t i = 0; i < nl; ++i) degree[static_cast<size_t>(i)] = lig.degree(static_cast<int32_t>(i));
  if (v2) {
    for (const auto& [a, b] : pseudo) {
      ++degree[static_cast<size_t>(a)];
      ++degree[static_cast<size_t>(b)];
    }
  }
  g.node_features = Tensor({total, chem::kGraphNodeFeatures});
  for (int64_t r = 0; r < total; ++r) {
    const chem::Atom& a = r < nl ? lig.atoms()[static_cast<size_t>(r)] : crop[static_cast<size_t>(r - nl)];
    const chem::ElementInfo& info = chem::element_info(a.element);
    const int64_t off = chem::kNumElements;
    g.node_features.at(r, chem::element_index(a.element)) = 1.0f;
    g.node_features.at(r, off + 0) = static_cast<float>(degree[static_cast<size_t>(r)]) / 4.0f;
    g.node_features.at(r, off + 1) = a.aromatic ? 1.0f : 0.0f;
    g.node_features.at(r, off + 2) = static_cast<float>(a.formal_charge);
    g.node_features.at(r, off + 3) = info.hydrophobic ? 1.0f : 0.0f;
    g.node_features.at(r, off + 4) = info.hbond_donor_heavy && a.implicit_h > 0 ? 1.0f : 0.0f;
    g.node_features.at(r, off + 5) = info.hbond_acceptor ? 1.0f : 0.0f;
    g.node_features.at(r, off + 6) = r < nl ? 1.0f : 0.0f;
  }
  for (const chem::Bond& b : lig.bonds()) g.covalent.add_undirected(b.a, b.b);
  for (const auto& [a, b] : pseudo) g.covalent.add_undirected(a, b);

  const std::vector<chem::HBond> hbonds =
      v2 && nl > 0 && np > 0 ? chem::find_hbonds(lig, crop, cfg.hbond) : std::vector<chem::HBond>{};
  auto ligand_bond = [&](int64_t i, int64_t j) {
    for (const chem::Bond& b : lig.bonds()) {
      if ((b.a == i && b.b == j) || (b.a == j && b.b == i)) return true;
    }
    return false;
  };
  std::vector<float> edge_features;
  for (int64_t i = 0; i < total; ++i) {
    for (int64_t j = i + 1; j < total; ++j) {
      const float d = xyz[static_cast<size_t>(i)].dist(xyz[static_cast<size_t>(j)]);
      if (d > cfg.noncovalent_threshold || d <= cfg.covalent_threshold) continue;
      if (j < nl && ligand_bond(i, j)) continue;
      g.noncovalent.add_undirected(static_cast<int32_t>(i), static_cast<int32_t>(j));
      if (!v2) continue;
      bool hb = false;
      for (const chem::HBond& h : hbonds) hb = hb || (h.ligand_atom == i && nl + h.pocket_atom == j);
      const float dn = d / cfg.noncovalent_threshold;
      for (int dir = 0; dir < 2; ++dir) {
        edge_features.push_back(dn);
        edge_features.push_back(hb ? 1.0f : 0.0f);
      }
    }
  }
  if (!edge_features.empty()) {
    g.noncovalent_features =
        Tensor({static_cast<int64_t>(edge_features.size()) / chem::kGraphEdgeFeaturesV2,
                chem::kGraphEdgeFeaturesV2});
    std::copy(edge_features.begin(), edge_features.end(), g.noncovalent_features.data());
  }
  return g;
}

TEST(CellListFeaturize, GraphBitwiseAcrossRandomGeometries) {
  Rng rng(21);
  for (int trial = 0; trial < 6; ++trial) {
    chem::Molecule lig = random_ligand(rng);
    const std::vector<chem::Atom> pocket = random_pocket(rng, 40 + trial * 60);
    for (int v : {1, 2}) {
      chem::GraphFeaturizerConfig cfg;
      cfg.feature_set_version = v;
      expect_graph_bitwise(chem::GraphFeaturizer(cfg).featurize(lig, pocket),
                           reference_featurize(lig, pocket, cfg));
    }
  }
}

TEST(CellListFeaturize, CutoffBoundaryAndDegenerateGeometries) {
  Rng rng(22);
  chem::Molecule lig = random_ligand(rng);
  lig.translate(Vec3{} - lig.centroid());
  chem::GraphFeaturizerConfig cfg;

  // Pocket atoms exactly at the two thresholds from a ligand atom, plus
  // far off-grid outliers and a coincident-position pair.
  const Vec3 a0 = lig.atoms()[0].pos;
  std::vector<chem::Atom> pocket;
  pocket.push_back({chem::Element::O, a0 + Vec3{cfg.noncovalent_threshold, 0, 0}, 0, false, 1});
  pocket.push_back({chem::Element::N, a0 + Vec3{0, cfg.covalent_threshold, 0}, 0, false, 1});
  pocket.push_back({chem::Element::C, a0 + Vec3{0, 0, 500.0f}});   // far off-grid
  pocket.push_back({chem::Element::C, a0 - Vec3{400.0f, 0, 0}});   // far off-grid
  pocket.push_back({chem::Element::S, a0 + Vec3{3.0f, 0, 0}});
  pocket.push_back({chem::Element::S, a0 + Vec3{3.0f, 0, 0}});     // coincident pair
  for (int v : {1, 2}) {
    chem::GraphFeaturizerConfig vcfg = cfg;
    vcfg.feature_set_version = v;
    expect_graph_bitwise(chem::GraphFeaturizer(vcfg).featurize(lig, pocket),
                         reference_featurize(lig, pocket, vcfg));
  }

  // Empty pocket and single-atom pocket.
  expect_graph_bitwise(chem::GraphFeaturizer(cfg).featurize(lig, {}),
                       reference_featurize(lig, {}, cfg));
  std::vector<chem::Atom> single{chem::Atom{chem::Element::O, a0 + Vec3{4, 0, 0}, 0, false, 1}};
  expect_graph_bitwise(chem::GraphFeaturizer(cfg).featurize(lig, single),
                       reference_featurize(lig, single, cfg));
}

TEST(CellListFeaturize, SymmetricPocketCropBreaksTiesByIndex) {
  // Eight pocket atoms all at the same distance from the ligand centroid:
  // the crop must keep the lowest indices, on the featurizer's own crop
  // list and on a prebuilt one. The first four are oxygens, the mirrored
  // four nitrogens — element one-hots reveal which made the cut.
  chem::Molecule lig;
  lig.add_atom(chem::Element::C, {0, 0, 0});
  const float d = 4.0f;
  std::vector<chem::Atom> pocket;
  pocket.push_back({chem::Element::O, {d, 0, 0}, 0, false, 1});
  pocket.push_back({chem::Element::O, {0, d, 0}, 0, false, 1});
  pocket.push_back({chem::Element::O, {0, 0, d}, 0, false, 1});
  pocket.push_back({chem::Element::O, {-d, 0, 0}, 0, false, 1});
  pocket.push_back({chem::Element::N, {0, -d, 0}, 0, false, 1});
  pocket.push_back({chem::Element::N, {0, 0, -d}, 0, false, 1});
  pocket.push_back({chem::Element::N, {d, 0, 0}, 0, false, 1});
  pocket.push_back({chem::Element::N, {-d, 0, 0}, 0, false, 1});

  chem::GraphFeaturizerConfig cfg;
  cfg.max_pocket_atoms = 4;
  const chem::GraphFeaturizer featurizer(cfg);
  chem::CellList prebuilt;
  featurizer.build_crop_cells(pocket, prebuilt);
  const chem::CellList* const crop_lists[] = {nullptr, &prebuilt};
  for (const chem::CellList* crop_cells : crop_lists) {
    const graph::SpatialGraph g = featurizer.featurize(lig, pocket, crop_cells);
    ASSERT_EQ(g.num_nodes(), 1 + 4);
    const int64_t o_col = chem::element_index(chem::Element::O);
    const int64_t n_col = chem::element_index(chem::Element::N);
    for (int64_t row = 1; row < 5; ++row) {
      EXPECT_EQ(g.node_features.at(row, o_col), 1.0f) << "tie-break must keep indices 0-3";
      EXPECT_EQ(g.node_features.at(row, n_col), 0.0f);
    }
    expect_graph_bitwise(g, reference_featurize(lig, pocket, cfg));
  }
}

// ---- featurizer vs the reference at serving shapes -----------------------

TEST(FeaturizeReference, ServingShapesMatchIndependentReferenceBitwise) {
  Rng rng(71);
  for (int receptor = 0; receptor < 2; ++receptor) {
    const std::vector<chem::Atom> pocket = protein_cloud(rng, 2048);
    const std::vector<Vec3> pos = positions(pocket);
    for (int pose = 0; pose < 6; ++pose) {
      const chem::Molecule lig = ligand_at_site(rng);
      for (int v : {1, 2}) {
        chem::GraphFeaturizerConfig cfg;
        cfg.feature_set_version = v;
        const chem::GraphFeaturizer featurizer(cfg);
        chem::CellList crop_cells;
        crop_cells.build(pos.data(), static_cast<int32_t>(pos.size()), cfg.noncovalent_threshold);
        const graph::SpatialGraph want = reference_featurize(lig, pocket, cfg);
        ASSERT_GT(want.noncovalent.size(), 0u);
        ASSERT_EQ(want.noncovalent_features.empty(), v == 1);
        expect_graph_bitwise(featurizer.featurize(lig, pocket, &crop_cells), want);
        expect_graph_bitwise(featurizer.featurize(lig, pocket), want);
      }
    }
  }
}

// ---- MM-GBSA terms: cell list vs brute force -----------------------------

TEST(CellListMmGbsa, AllTermsBitwiseAcrossRandomGeometries) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    chem::Molecule lig = random_ligand(rng);
    const std::vector<chem::Atom> pocket = random_pocket(rng, 60 + trial * 80);
    dock::MmGbsaConfig cell_cfg;
    cell_cfg.gb_cutoff = 7.0f;  // finite cutoff so GB exercises the cell route
    cell_cfg.cell_list_min_atoms = 0;  // force the engine at test sizes
    dock::MmGbsaConfig brute_cfg = cell_cfg;
    brute_cfg.use_cell_list = false;

    EXPECT_EQ(dock::lj_energy(lig, pocket, cell_cfg), dock::lj_energy(lig, pocket, brute_cfg));
    EXPECT_EQ(dock::gb_polar(lig, pocket, cell_cfg), dock::gb_polar(lig, pocket, brute_cfg));
    EXPECT_EQ(dock::sa_nonpolar(lig, pocket, cell_cfg), dock::sa_nonpolar(lig, pocket, brute_cfg));
    EXPECT_EQ(dock::elec_energy(lig, pocket, cell_cfg), dock::elec_energy(lig, pocket, brute_cfg));
    // Full pipeline (minimizer + all terms) stays bitwise equal too.
    EXPECT_EQ(dock::mmgbsa_score(lig, pocket, cell_cfg),
              dock::mmgbsa_score(lig, pocket, brute_cfg));

    // Default config: GB keeps the historical cutoff-free sum; the cell
    // route must leave it untouched.
    dock::MmGbsaConfig default_brute;
    default_brute.use_cell_list = false;
    EXPECT_EQ(dock::gb_polar(lig, pocket, {}), dock::gb_polar(lig, pocket, default_brute));
  }
}

TEST(CellListMmGbsa, ElecEnergyMatchesScoreTermsBitwise) {
  // The minimizer-objective bugfix adds electrostatics via elec_energy;
  // this pins it to the canonical score_terms accumulation bit for bit.
  Rng rng(32);
  for (int trial = 0; trial < 4; ++trial) {
    chem::MoleculeGenConfig mc;
    mc.charge_probability = 0.5f;  // make charged-charged pairs common
    chem::Molecule lig = chem::generate_molecule(mc, rng);
    chem::embed_conformer(lig, rng);
    data::PocketConfig pc;
    pc.charged_frac = 0.5f;
    const std::vector<chem::Atom> pocket = data::make_pocket(pc, rng);
    for (bool cells : {true, false}) {
      dock::MmGbsaConfig cfg;
      cfg.use_cell_list = cells;
      cfg.cell_list_min_atoms = 0;
      EXPECT_EQ(dock::elec_energy(lig, pocket, cfg),
                dock::score_terms(lig, pocket).electrostatic);
    }
  }
}

TEST(CellListMmGbsa, EmptyPocketAndSingleAtom) {
  Rng rng(33);
  chem::Molecule lig = random_ligand(rng);
  EXPECT_EQ(dock::lj_energy(lig, {}, {}), 0.0f);
  EXPECT_EQ(dock::elec_energy(lig, {}, {}), 0.0f);
  std::vector<chem::Atom> single{chem::Atom{chem::Element::O, lig.atoms()[0].pos + Vec3{3, 0, 0}, 0, false, 1}};
  dock::MmGbsaConfig bcfg;
  bcfg.use_cell_list = false;
  dock::MmGbsaConfig ccfg;
  ccfg.cell_list_min_atoms = 0;  // force the engine even for one atom
  EXPECT_EQ(dock::lj_energy(lig, single, ccfg), dock::lj_energy(lig, single, bcfg));
  EXPECT_EQ(dock::sa_nonpolar(lig, single, ccfg), dock::sa_nonpolar(lig, single, bcfg));
}

// ---- a 120-atom pocket against the reference -----------------------------

TEST(CellListDeterminism, GraphBitwiseEqualsReferenceFeaturizer) {
  Rng rng(41);
  chem::Molecule lig = random_ligand(rng);
  const std::vector<chem::Atom> pocket = random_pocket(rng, 120);

  const chem::GraphFeaturizerConfig gcfg;
  const graph::SpatialGraph g = chem::GraphFeaturizer(gcfg).featurize(lig, pocket);
  expect_graph_bitwise(g, reference_featurize(lig, pocket, gcfg));
}

// ---- feature_set_version wiring ------------------------------------------

TEST(FeatureSetVersion, V1StaysBitwisePinnedNextToV2) {
  Rng rng(51);
  chem::Molecule lig = random_ligand(rng);
  const std::vector<chem::Atom> pocket = random_pocket(rng, 60);

  // Voxel: v2 widens each block by one channel; the 8 historical channels
  // must be bitwise unchanged (per-channel splat sequences are identical).
  chem::VoxelConfig v1, v2;
  v2.feature_set_version = 2;
  ASSERT_EQ(v1.channels(), 2 * chem::kVoxelChannelsPerBlock);
  ASSERT_EQ(v2.channels(), 2 * (chem::kVoxelChannelsPerBlock + 1));
  const Tensor g1 = chem::Voxelizer(v1).voxelize(lig, pocket, {});
  const Tensor g2 = chem::Voxelizer(v2).voxelize(lig, pocket, {});
  const int64_t vox = static_cast<int64_t>(v1.grid_dim) * v1.grid_dim * v1.grid_dim;
  for (int block = 0; block < 2; ++block) {
    for (int ch = 0; ch < chem::kVoxelChannelsPerBlock; ++ch) {
      const float* p1 = g1.data() + (static_cast<int64_t>(block) * v1.channels_per_block() + ch) * vox;
      const float* p2 = g2.data() + (static_cast<int64_t>(block) * v2.channels_per_block() + ch) * vox;
      EXPECT_EQ(0, std::memcmp(p1, p2, static_cast<size_t>(vox) * sizeof(float)))
          << "historical channel " << ch << " block " << block << " drifted under v2";
    }
  }

  // Graph: v1 carries no edge-feature tensor and zero pocket degrees.
  chem::GraphFeaturizerConfig gc1;
  const graph::SpatialGraph sg1 = chem::GraphFeaturizer(gc1).featurize(lig, pocket);
  EXPECT_TRUE(sg1.noncovalent_features.empty());
  const int64_t deg_col = chem::kNumElements + 0;
  for (int64_t r = sg1.num_ligand_nodes; r < sg1.num_nodes(); ++r) {
    EXPECT_EQ(sg1.node_features.at(r, deg_col), 0.0f);
  }
}

TEST(FeatureSetVersion, V2AddsHBondChannelsAndPocketDegrees) {
  // Donor-N ligand atom 3.0 A from an acceptor O, with a carbon neighbor
  // behind it (angle ~180 deg): a textbook interface H-bond. Two pocket
  // atoms sit within the covalent threshold of each other -> pseudo-bond
  // degree 1 each under v2.
  chem::Molecule lig;
  const int32_t c = lig.add_atom(chem::Element::C, {-1.4f, 0, 0});
  const int32_t n = lig.add_atom(chem::Element::N, {0, 0, 0});
  lig.add_bond(c, n);
  lig.atoms()[static_cast<size_t>(n)].implicit_h = 2;
  std::vector<chem::Atom> pocket;
  pocket.push_back({chem::Element::O, {3.0f, 0, 0}, 0, false, 0});
  pocket.push_back({chem::Element::O, {3.0f, 1.5f, 0}, 0, false, 0});

  const std::vector<chem::HBond> hbonds = chem::find_hbonds(lig, pocket);
  ASSERT_FALSE(hbonds.empty());
  EXPECT_EQ(hbonds[0].ligand_atom, n);
  EXPECT_EQ(hbonds[0].pocket_atom, 0);

  chem::GraphFeaturizerConfig gc2;
  gc2.feature_set_version = 2;
  const graph::SpatialGraph sg2 = chem::GraphFeaturizer(gc2).featurize(lig, pocket);
  ASSERT_FALSE(sg2.noncovalent_features.empty());
  ASSERT_EQ(sg2.noncovalent_features.dim(0), static_cast<int64_t>(sg2.noncovalent.size()));
  ASSERT_EQ(sg2.noncovalent_features.dim(1), chem::kGraphEdgeFeaturesV2);
  // Some interface edge must carry the H-bond flag, and every distance
  // channel lies in (0, 1].
  bool saw_hbond_edge = false;
  for (int64_t e = 0; e < sg2.noncovalent_features.dim(0); ++e) {
    const float dn = sg2.noncovalent_features.at(e, 0);
    EXPECT_GT(dn, 0.0f);
    EXPECT_LE(dn, 1.0f);
    if (sg2.noncovalent_features.at(e, 1) == 1.0f) saw_hbond_edge = true;
  }
  EXPECT_TRUE(saw_hbond_edge);
  // Pocket atoms 0 and 1 are 1.5 A apart (< covalent threshold): degree 1.
  const int64_t deg_col = chem::kNumElements + 0;
  EXPECT_EQ(sg2.node_features.at(2, deg_col), 0.25f);  // degree 1 / 4
  EXPECT_EQ(sg2.node_features.at(3, deg_col), 0.25f);

  // Voxel: the v2 H-bond channel holds mass.
  chem::VoxelConfig v2;
  v2.feature_set_version = 2;
  chem::Voxelizer vox(v2);
  const Tensor grid = vox.voxelize(lig, pocket, {});
  const int64_t voxels = static_cast<int64_t>(v2.grid_dim) * v2.grid_dim * v2.grid_dim;
  float hb_mass = 0.0f;
  const float* hb = grid.data() + static_cast<int64_t>(chem::kVoxelHBondChannel) * voxels;
  for (int64_t i = 0; i < voxels; ++i) hb_mass += hb[i];
  EXPECT_GT(hb_mass, 0.0f);
}

TEST(FeatureSetVersion, ScorerAndRegistryRejectMismatches) {
  chem::VoxelConfig v1;
  chem::GraphFeaturizerConfig g2;
  g2.feature_set_version = 2;
  Rng rng(61);
  models::Cnn3dConfig cc;
  cc.grid_dim = v1.grid_dim;
  cc.in_channels = v1.channels();
  cc.conv_filters1 = 4;
  cc.conv_filters2 = 8;
  cc.dense_nodes = 16;
  EXPECT_THROW(serve::RegressorScorer("mismatch", std::make_unique<models::Cnn3d>(cc, rng), v1, g2),
               std::invalid_argument);

  // Artifact round trip: a v2-trained artifact refuses v1 serving configs
  // and accepts matching v2 ones.
  const std::string path =
      (std::filesystem::temp_directory_path() / "df_fsv_artifact.dfc").string();
  chem::VoxelConfig v2 = v1;
  v2.feature_set_version = 2;
  cc.in_channels = v2.channels();
  models::Cnn3d donor(cc, rng);
  compile::save_compiled(donor, path, {}, /*feature_set_version=*/2);
  const compile::CompiledModel cm = compile::load_compiled(path);
  EXPECT_EQ(cm.feature_set_version, 2);

  serve::ModelRegistry reg;
  chem::GraphFeaturizerConfig g1;
  EXPECT_THROW(serve::add_compiled(reg, "v2_model", path, v1, g1), std::invalid_argument);
  serve::add_compiled(reg, "v2_model", path, v2, g2);
  EXPECT_TRUE(reg.contains("v2_model"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace df
