// Spatial-graph featurization of a complex — the SG-CNN's input (paper
// Fig. 1, right branch). Node features combine a one-hot element with
// pharmacophore flags; covalent edges come from the bond graph (plus
// short-range protein pseudo-bonds) and non-covalent edges connect atoms
// within the longer spatial threshold, primarily across the interface.
// The two thresholds are the paper's Table-1/2 "Neighbor Threshold"
// hyper-parameters.
//
// Each step has one route. The pocket crop is a CellList::knearest query
// (on the caller's list, or on one built per call), and both edge sets come
// from one branch-free sweep over every pair of the cropped graph, which
// holds at most a few hundred atoms. tests/test_cell_list.cpp pins the
// graph against a test-local reference that shares none of this code.
#pragma once

#include <vector>

#include "chem/hbond.h"
#include "chem/molecule.h"
#include "graph/graph.h"

namespace df::chem {

struct GraphFeaturizerConfig {
  float covalent_threshold = 2.24f;    // Angstrom (Table 2 final value)
  float noncovalent_threshold = 5.22f; // Angstrom (Table 2 final value)
  /// Cap pocket atoms included in the graph, nearest to the ligand first.
  int max_pocket_atoms = 64;
  /// Feature-set contract version. 1 = today's features, bitwise-pinned so
  /// existing models keep scoring identically. 2 adds (a) pocket node
  /// degrees derived from the pseudo-bond graph (v1 hard-codes 0) and
  /// (b) per-edge geometry channels on the non-covalent edge set
  /// (SpatialGraph::noncovalent_features): [distance / threshold,
  /// interface H-bond flag] under the chem/hbond.h heavy-atom criteria.
  int feature_set_version = 1;
  /// v2 H-bond channel geometry.
  HBondConfig hbond;
};

/// Node feature layout: one-hot element (kNumElements) followed by
/// [degree/4, aromatic, charge, hydrophobic, donor, acceptor, is_ligand].
inline constexpr int kGraphNodeFeatures = kNumElements + 7;
/// v2 per-edge channels on the non-covalent set: [dist/threshold, hbond].
inline constexpr int kGraphEdgeFeaturesV2 = 2;

class CellList;

class GraphFeaturizer {
 public:
  explicit GraphFeaturizer(GraphFeaturizerConfig cfg = {}) : cfg_(cfg) {}

  /// The complex's spatial graph. The pocket crop keeps the
  /// `max_pocket_atoms` atoms nearest the ligand centroid, ordered by
  /// (distance, index), through CellList::knearest on `crop_cells`: a list
  /// built over exactly `pocket`'s positions, which the pocket cache and the
  /// scorer keep per receptor (build_crop_cells). knearest is exact at any
  /// cell size, so any such list gives the same crop. nullptr builds one
  /// for this call. Queries are const and thread-safe, so one list serves
  /// concurrent replicas.
  graph::SpatialGraph featurize(const Molecule& ligand, const std::vector<Atom>& pocket,
                                const CellList* crop_cells = nullptr) const;

  /// Bin `pocket`'s positions into `cells` at cell size
  /// `noncovalent_threshold`: the crop list featurize() queries.
  void build_crop_cells(const std::vector<Atom>& pocket, CellList& cells) const;

  const GraphFeaturizerConfig& config() const { return cfg_; }

 private:
  GraphFeaturizerConfig cfg_;
};

}  // namespace df::chem
