#include "fixtures.h"

#include <cmath>
#include <cstdio>

#include "chem/conformer.h"
#include "models/cnn3d.h"
#include "models/fusion.h"
#include "models/sgcnn.h"

namespace df::bench::screening {

chem::VoxelConfig voxel_config() {
  chem::VoxelConfig v;
  v.grid_dim = 8;
  v.resolution = 1.25f;
  v.feature_set_version = 1;
  return v;
}

chem::GraphFeaturizerConfig graph_config() {
  chem::GraphFeaturizerConfig g;
  g.feature_set_version = 1;
  return g;
}

namespace {

std::unique_ptr<models::Regressor> make_fusion_model() {
  // Table 3 (3D-CNN) and Table 2 (SG-CNN) widths, Table 5 fusion wiring.
  // Every field is written out so a changed library default cannot change
  // the measured model.
  models::Cnn3dConfig cc;
  cc.in_channels = voxel_config().channels();
  cc.grid_dim = voxel_config().grid_dim;
  cc.conv_filters1 = 32;
  cc.conv_filters2 = 64;
  cc.dense_nodes = 128;
  cc.batch_norm = false;
  cc.residual1 = false;
  cc.residual2 = true;
  cc.dropout1 = 0.25f;
  cc.dropout2 = 0.125f;

  models::SgcnnConfig sc;
  sc.node_features = chem::kGraphNodeFeatures;
  sc.covalent_k = 6;
  sc.noncovalent_k = 3;
  sc.covalent_gather_width = 24;
  sc.noncovalent_gather_width = 128;

  models::FusionConfig fc;
  fc.kind = models::FusionKind::Coherent;
  fc.num_fusion_layers = 4;
  fc.fusion_nodes = 64;
  fc.model_specific_layers = false;
  fc.residual_fusion = false;
  fc.activation = nn::Activation::kSELU;
  fc.dropout1 = 0.386f;
  fc.dropout2 = 0.247f;
  fc.dropout3 = 0.055f;

  core::Rng rng(0x5c2eeULL);
  auto cnn = std::make_shared<models::Cnn3d>(cc, rng);
  auto sg = std::make_shared<models::Sgcnn>(sc, rng);
  return std::make_unique<models::FusionModel>(fc, std::move(cnn), std::move(sg), rng);
}


Receptor make_receptor_cloud(int atoms, core::Rng& rng) {
  const float radius =
      std::cbrt(3.0f * static_cast<float>(atoms) / (4.0f * 3.14159265f * 0.055f));
  Receptor cloud;
  cloud.reserve(static_cast<size_t>(atoms));
  for (int i = 0; i < atoms; ++i) {
    const core::Vec3 dir =
        core::Vec3{rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f)}
            .normalized();
    chem::Atom a;
    a.pos = dir * (radius * std::cbrt(rng.uniform()));
    const float u = rng.uniform();
    if (u < 0.10f) {
      a.element = rng.bernoulli(0.5) ? chem::Element::N : chem::Element::O;
      a.formal_charge = a.element == chem::Element::N ? 1 : -1;
    } else if (u < 0.60f) {
      a.element = chem::Element::C;
    } else {
      const float v = rng.uniform();
      a.element = v < 0.4f ? chem::Element::O : (v < 0.8f ? chem::Element::N : chem::Element::S);
      a.implicit_h = rng.bernoulli(0.5) ? 1 : 0;
    }
    cloud.push_back(a);
  }
  return cloud;
}

// A compound is docked against four receptors, kPosesPerRun poses each.
constexpr size_t kPosesPerCompound = 4 * kPosesPerRun;

}  // namespace

std::unique_ptr<serve::RegressorScorer> make_fusion_scorer() {
  return std::make_unique<serve::RegressorScorer>(kScorerName, make_fusion_model(),
                                                  voxel_config(), graph_config());
}

std::vector<Receptor> make_panel(int receptors, core::Rng& rng) {
  std::vector<Receptor> panel;
  for (int r = 0; r < receptors; ++r) panel.push_back(make_receptor_cloud(kReceptorAtoms, rng));
  return panel;
}

std::vector<chem::Molecule> make_pose_stream(int poses, int distinct_ligands, core::Rng& rng) {
  std::vector<chem::Molecule> pool;
  pool.reserve(static_cast<size_t>(distinct_ligands));
  for (int i = 0; i < distinct_ligands; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    pool.push_back(std::move(lig));
  }
  // A compound's poses share its ligand and differ in placement.
  std::vector<chem::Molecule> stream;
  stream.reserve(static_cast<size_t>(poses));
  for (size_t i = 0; i < static_cast<size_t>(poses); ++i) {
    chem::Molecule lig = pool[(i / kPosesPerCompound) % pool.size()];
    const core::Vec3 axis =
        core::Vec3{rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f)}
            .normalized();
    lig.rotate(core::Vec3{}, axis, rng.uniform(0.0f, 6.2831853f));
    lig.translate(core::Vec3{rng.normal(0.0f, 0.8f), rng.normal(0.0f, 0.8f),
                             rng.normal(0.0f, 0.8f)});
    stream.push_back(std::move(lig));
  }
  return stream;
}

std::vector<std::vector<screen::PoseWorkItem>> make_jobs(const std::vector<chem::Molecule>& stream,
                                                         const std::vector<Receptor>& panel,
                                                         int jobs, int poses_per_job) {
  std::vector<std::vector<screen::PoseWorkItem>> out(static_cast<size_t>(jobs));
  size_t pos = 0;
  for (auto& job : out) {
    job.reserve(static_cast<size_t>(poses_per_job));
    for (int k = 0; k < poses_per_job; ++k, ++pos) {
      const size_t i = pos % stream.size();
      screen::PoseWorkItem item;
      item.compound_id = static_cast<int64_t>(i / kPosesPerCompound);
      item.target_id = static_cast<int32_t>(receptor_of(i, panel.size()));
      item.pose_id = static_cast<int32_t>(i % kPosesPerRun);
      item.ligand = stream[i];
      item.pocket = &panel[static_cast<size_t>(item.target_id)];
      job.push_back(std::move(item));
    }
  }
  return out;
}

uint64_t ligand_key(const chem::Molecule& ligand) {
  Digest d;
  d.molecule(ligand);
  return d.value();
}

std::vector<data::LibraryCompound> make_library(int compounds, core::Rng& rng) {
  return data::generate_library(data::default_library(data::LibrarySource::Enamine, compounds),
                                rng);
}

void Digest::bytes(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;  // FNV-1a prime
  }
}

void Digest::atoms(const std::vector<chem::Atom>& atoms) {
  u64(atoms.size());
  for (const chem::Atom& a : atoms) {
    // Field by field: struct padding bytes are indeterminate.
    value(a.element);
    value(a.pos.x);
    value(a.pos.y);
    value(a.pos.z);
    value(a.formal_charge);
    value(a.aromatic);
    value(a.implicit_h);
  }
}

void Digest::molecule(const chem::Molecule& m) {
  atoms(m.atoms());
  u64(m.bonds().size());
  for (const chem::Bond& b : m.bonds()) {
    value(b.a);
    value(b.b);
    value(b.order);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace df::bench::screening
