// Fixtures of the screening benchmark, pinned here so that edits to other
// benches, tests or examples can never change what bench_screening
// measures: the paper-shaped Coherent Fusion scorer, the receptor clouds,
// the pre-docked pose stream, the campaign library and the digest that
// proves two commits measured identical inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chem/graph_featurizer.h"
#include "chem/voxelizer.h"
#include "data/compound_library.h"
#include "screen/job.h"
#include "serve/scorer.h"

namespace df::bench::screening {

// ---- scorer --------------------------------------------------------------

/// Registry name of the benchmark scorer.
inline constexpr const char* kScorerName = "fusion";

/// 8^3 grid, feature set v1 (16 voxel channels).
chem::VoxelConfig voxel_config();
chem::GraphFeaturizerConfig graph_config();

/// A plain replica of the benchmark scorer (no pocket cache, no pipeline):
/// Coherent Fusion with the 3D-CNN at Table 3 widths (32/64 filters, 128
/// dense) and the SG-CNN at Table 2 widths (gather widths 24/128, k = 6/3),
/// weights from a fixed seed (they do not affect speed). The service mints
/// these through its registry; the correctness gates score on one directly.
std::unique_ptr<serve::RegressorScorer> make_fusion_scorer();

// ---- receptors and poses --------------------------------------------------

using Receptor = std::vector<chem::Atom>;

inline constexpr int kReceptorAtoms = 2048;
inline constexpr int kPosesPerRun = 4;  // poses per (compound, receptor) docking run

/// A panel of protein-density receptor clouds centred on the origin, each
/// kReceptorAtoms heavy atoms uniform in a ball at ~0.055 atoms/A^3 with a
/// protein-like element mix: the binding-site scale whose pocket grids and
/// crop cell lists the pocket cache holds.
std::vector<Receptor> make_panel(int receptors, core::Rng& rng);

/// A pre-docked pose stream in docking-output order: compound after
/// compound, each docked against four receptors with kPosesPerRun poses
/// per receptor. Ligands are drawn from a pool of embedded conformers and
/// each pose gets its own rigid placement at the site, so every pose in the
/// stream has distinct coordinates (and a distinct content key).
std::vector<chem::Molecule> make_pose_stream(int poses, int distinct_ligands, core::Rng& rng);

/// Receptor of stream position `i`: docking runs of kPosesPerRun poses
/// cycle over the panel.
inline size_t receptor_of(size_t i, size_t panel) { return (i / kPosesPerRun) % panel; }

/// Job inputs over the stream: `jobs` slices of `poses_per_job` poses whose
/// pockets point into `panel` (which must outlive them).
std::vector<std::vector<screen::PoseWorkItem>> make_jobs(const std::vector<chem::Molecule>& stream,
                                                         const std::vector<Receptor>& panel,
                                                         int jobs, int poses_per_job);

/// Content key of a ligand pose (its Digest). Identifies a pose after it
/// has been copied into a request or decoded off the wire.
uint64_t ligand_key(const chem::Molecule& ligand);

// ---- campaign -------------------------------------------------------------

/// Enamine-profile library of the campaign workload.
std::vector<data::LibraryCompound> make_library(int compounds, core::Rng& rng);

// ---- input digest ---------------------------------------------------------

/// FNV-1a accumulator over the bytes of every generated input; printed with
/// each result so that two commits can show they measured identical inputs.
class Digest {
 public:
  void bytes(const void* p, size_t n);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void u64(uint64_t v) { value(v); }
  void atoms(const std::vector<chem::Atom>& atoms);
  void molecule(const chem::Molecule& m);
  uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace df::bench::screening
