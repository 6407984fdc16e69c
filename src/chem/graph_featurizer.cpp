#include "chem/graph_featurizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "chem/cell_list.h"

namespace df::chem {

namespace {
void fill_node_features(core::Tensor& feats, int64_t row, const Atom& a, int degree,
                        bool is_ligand) {
  feats.at(row, element_index(a.element)) = 1.0f;
  int64_t off = kNumElements;
  feats.at(row, off + 0) = static_cast<float>(degree) / 4.0f;
  feats.at(row, off + 1) = a.aromatic ? 1.0f : 0.0f;
  feats.at(row, off + 2) = static_cast<float>(a.formal_charge);
  const ElementInfo& info = element_info(a.element);
  feats.at(row, off + 3) = info.hydrophobic ? 1.0f : 0.0f;
  feats.at(row, off + 4) = (info.hbond_donor_heavy && a.implicit_h > 0) ? 1.0f : 0.0f;
  feats.at(row, off + 5) = info.hbond_acceptor ? 1.0f : 0.0f;
  feats.at(row, off + 6) = is_ligand ? 1.0f : 0.0f;
}
}  // namespace

void GraphFeaturizer::build_crop_cells(const std::vector<Atom>& pocket, CellList& cells) const {
  static thread_local std::vector<core::Vec3> pos;
  pos.resize(pocket.size());
  for (size_t i = 0; i < pocket.size(); ++i) pos[i] = pocket[i].pos;
  cells.build(pos.data(), static_cast<int32_t>(pocket.size()), cfg_.noncovalent_threshold);
}

graph::SpatialGraph GraphFeaturizer::featurize(const Molecule& ligand,
                                               const std::vector<Atom>& pocket,
                                               const CellList* crop_cells) const {
  graph::SpatialGraph g;
  const int64_t nl = static_cast<int64_t>(ligand.num_atoms());
  const int64_t np = std::min<int64_t>(static_cast<int64_t>(pocket.size()), cfg_.max_pocket_atoms);

  // Select the pocket atoms nearest to the ligand centroid (the paper's
  // featurization crops the pocket around the binding site similarly).
  // Ordered by (distance, index) — the index tie-break makes the crop
  // deterministic for symmetric pockets where distances tie exactly.
  static thread_local std::vector<int32_t> pocket_order;
  pocket_order.clear();
  if (np > 0) {
    if (crop_cells == nullptr) {
      static thread_local CellList own_cells;
      build_crop_cells(pocket, own_cells);
      crop_cells = &own_cells;
    }
    crop_cells->knearest(ligand.centroid(), static_cast<int32_t>(np), pocket_order);
  }

  // Combined position array: ligand atoms first, then the cropped pocket in
  // crop order. Every distance below is read from this one array.
  const int64_t total = nl + np;
  static thread_local std::vector<core::Vec3> xyz;
  xyz.resize(static_cast<size_t>(total));
  for (int64_t i = 0; i < nl; ++i) xyz[static_cast<size_t>(i)] = ligand.atoms()[static_cast<size_t>(i)].pos;
  static thread_local std::vector<const Atom*> sel;
  sel.resize(static_cast<size_t>(np));
  for (int64_t i = 0; i < np; ++i) {
    sel[static_cast<size_t>(i)] = &pocket[static_cast<size_t>(pocket_order[static_cast<size_t>(i)])];
    xyz[static_cast<size_t>(nl + i)] = sel[static_cast<size_t>(i)]->pos;
  }

  // One sweep over every pair (i, j > i), in (i, ascending j) order, feeds
  // both edge sets. Two pocket atoms within the covalent threshold are a
  // protein pseudo-bond; a pair within the non-covalent threshold but past
  // the covalent one, and not a ligand bond, is a non-covalent edge
  // (ligand–protein pairs dominate by construction). Only the ligand–ligand
  // block can hold a bond, so only it checks bonded(). Past it the sweep
  // compacts without a branch: every pair is written at the cursor, which
  // advances by the predicate, so the buffers must hold a whole row first.
  const float cov = cfg_.covalent_threshold;
  const float ncut = cfg_.noncovalent_threshold;
  auto bonded = [&](int32_t a, int32_t b) {
    for (int32_t u : ligand.neighbors(a)) {
      if (u == b) return true;
    }
    return false;
  };
  struct Pair {
    int32_t i, j;
    float d;
  };
  static thread_local std::vector<Pair> pseudo, noncov;
  size_t n_pseudo = 0, n_noncov = 0;
  for (int64_t i = 0; i < total; ++i) {
    const core::Vec3 pi = xyz[static_cast<size_t>(i)];
    const int32_t a = static_cast<int32_t>(i);
    const bool pocket_row = i >= nl;
    const size_t row = static_cast<size_t>(total - i - 1);
    if (noncov.size() < n_noncov + row) noncov.resize(n_noncov + row);
    if (pseudo.size() < n_pseudo + row) pseudo.resize(n_pseudo + row);
    int64_t j = i + 1;
    for (; j < nl; ++j) {
      const float d = pi.dist(xyz[static_cast<size_t>(j)]);
      if (d <= ncut && d > cov && !bonded(a, static_cast<int32_t>(j))) {
        noncov[n_noncov++] = {a, static_cast<int32_t>(j), d};
      }
    }
    for (; j < total; ++j) {
      const float d = pi.dist(xyz[static_cast<size_t>(j)]);
      noncov[n_noncov] = {a, static_cast<int32_t>(j), d};
      pseudo[n_pseudo] = {a, static_cast<int32_t>(j), d};
      n_noncov += static_cast<size_t>((d <= ncut) & (d > cov));
      n_pseudo += static_cast<size_t>(pocket_row & (d <= cov));
    }
  }

  g.node_features = core::Tensor({total, kGraphNodeFeatures});
  g.num_ligand_nodes = static_cast<int32_t>(nl);

  for (int64_t i = 0; i < nl; ++i) {
    fill_node_features(g.node_features, i, ligand.atoms()[static_cast<size_t>(i)],
                       ligand.degree(static_cast<int32_t>(i)), true);
  }
  // v1 pins pocket degree at 0 (the historical behaviour models were trained
  // against); v2 reports each pocket node's pseudo-bond degree.
  static thread_local std::vector<int> pdeg;
  pdeg.assign(static_cast<size_t>(np), 0);
  if (cfg_.feature_set_version >= 2) {
    for (size_t e = 0; e < n_pseudo; ++e) {
      ++pdeg[static_cast<size_t>(pseudo[e].i - nl)];
      ++pdeg[static_cast<size_t>(pseudo[e].j - nl)];
    }
  }
  for (int64_t i = 0; i < np; ++i) {
    fill_node_features(g.node_features, nl + i, *sel[static_cast<size_t>(i)],
                       pdeg[static_cast<size_t>(i)], false);
  }

  // Covalent edges: ligand bond graph, then the protein pseudo-bonds.
  const size_t n_cov = ligand.bonds().size() + n_pseudo;
  g.covalent.src.reserve(2 * n_cov);
  g.covalent.dst.reserve(2 * n_cov);
  for (const Bond& b : ligand.bonds()) g.covalent.add_undirected(b.a, b.b);
  for (size_t e = 0; e < n_pseudo; ++e) g.covalent.add_undirected(pseudo[e].i, pseudo[e].j);

  // Non-covalent edges, written once at their final size in add_undirected's
  // (i, j), (j, i) order.
  g.noncovalent.src.resize(2 * n_noncov);
  g.noncovalent.dst.resize(2 * n_noncov);
  for (size_t e = 0; e < n_noncov; ++e) {
    g.noncovalent.src[2 * e] = g.noncovalent.dst[2 * e + 1] = noncov[e].i;
    g.noncovalent.dst[2 * e] = g.noncovalent.src[2 * e + 1] = noncov[e].j;
  }

  // v2 edge channels, one row per directed edge: [d / threshold, interface
  // H-bond flag]. H-bond pairs are keyed (ligand_atom << 32 | pocket_node)
  // for binary-search lookup.
  if (cfg_.feature_set_version >= 2 && n_noncov > 0) {
    static thread_local std::vector<int64_t> hbond_keys;
    hbond_keys.clear();
    if (nl > 0 && np > 0) {
      static thread_local std::vector<Atom> sel_atoms;
      sel_atoms.resize(static_cast<size_t>(np));
      for (int64_t i = 0; i < np; ++i) sel_atoms[static_cast<size_t>(i)] = *sel[static_cast<size_t>(i)];
      for (const HBond& hb : find_hbonds(ligand, sel_atoms, cfg_.hbond)) {
        hbond_keys.push_back((static_cast<int64_t>(hb.ligand_atom) << 32) |
                             static_cast<int64_t>(nl + hb.pocket_atom));
      }
      std::sort(hbond_keys.begin(), hbond_keys.end());
    }
    g.noncovalent_features =
        core::Tensor::uninit({static_cast<int64_t>(2 * n_noncov), kGraphEdgeFeaturesV2});
    float* f = g.noncovalent_features.data();
    for (size_t e = 0; e < n_noncov; ++e) {
      const Pair& p = noncov[e];
      const int64_t key = (static_cast<int64_t>(p.i) << 32) | static_cast<int64_t>(p.j);
      const bool hb = p.i < nl && p.j >= nl &&
                      std::binary_search(hbond_keys.begin(), hbond_keys.end(), key);
      const float dn = p.d / ncut;
      const float hbf = hb ? 1.0f : 0.0f;
      f[4 * e + 0] = dn; f[4 * e + 1] = hbf;
      f[4 * e + 2] = dn; f[4 * e + 3] = hbf;
    }
  }
  return g;
}

}  // namespace df::chem
