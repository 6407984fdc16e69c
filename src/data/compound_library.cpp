#include "data/compound_library.h"

#include "chem/smiles.h"
#include "io/model_artifact.h"

namespace df::data {

const char* library_name(LibrarySource s) {
  switch (s) {
    case LibrarySource::ZINC: return "ZINC";
    case LibrarySource::ChEMBL: return "ChEMBL";
    case LibrarySource::eMolecules: return "eMolecules";
    case LibrarySource::Enamine: return "Enamine";
  }
  return "?";
}

LibraryConfig default_library(LibrarySource source, int count) {
  LibraryConfig cfg;
  cfg.source = source;
  cfg.count = count;
  switch (source) {
    case LibrarySource::ZINC:
      // Approved drugs: mid-size, frequent salts (formulations), no metals
      // survive prep anyway but a few appear raw.
      cfg.gen = {.min_heavy_atoms = 14, .max_heavy_atoms = 32, .ring_probability = 0.4f,
                 .hetero_probability = 0.35f, .halogen_probability = 0.10f,
                 .charge_probability = 0.08f, .salt_probability = 0.25f,
                 .metal_probability = 0.03f};
      break;
    case LibrarySource::ChEMBL:
      cfg.gen = {.min_heavy_atoms = 12, .max_heavy_atoms = 30, .ring_probability = 0.38f,
                 .hetero_probability = 0.32f, .halogen_probability = 0.08f,
                 .charge_probability = 0.06f, .salt_probability = 0.12f,
                 .metal_probability = 0.01f};
      break;
    case LibrarySource::eMolecules:
      cfg.gen = {.min_heavy_atoms = 10, .max_heavy_atoms = 28, .ring_probability = 0.35f,
                 .hetero_probability = 0.30f, .halogen_probability = 0.08f,
                 .charge_probability = 0.05f, .salt_probability = 0.05f,
                 .metal_probability = 0.005f};
      break;
    case LibrarySource::Enamine:
      // Synthetically-feasible drug-like: small, clean.
      cfg.gen = {.min_heavy_atoms = 10, .max_heavy_atoms = 24, .ring_probability = 0.32f,
                 .hetero_probability = 0.28f, .halogen_probability = 0.06f,
                 .charge_probability = 0.04f, .salt_probability = 0.02f,
                 .metal_probability = 0.0f};
      break;
  }
  return cfg;
}

std::vector<LibraryCompound> generate_library(const LibraryConfig& cfg, core::Rng& rng) {
  std::vector<LibraryCompound> out;
  out.reserve(static_cast<size_t>(cfg.count));
  const bool smiles_form =
      cfg.source == LibrarySource::eMolecules || cfg.source == LibrarySource::Enamine;
  for (int i = 0; i < cfg.count; ++i) {
    LibraryCompound c;
    c.source = cfg.source;
    c.id = std::string(library_name(cfg.source)) + "-" + std::to_string(i);
    c.molecule = chem::generate_molecule(cfg.gen, rng);
    if (smiles_form) {
      c.is_smiles_entry = true;
      c.smiles = chem::write_smiles(c.molecule);
    }
    out.push_back(std::move(c));
  }
  return out;
}

chem::Molecule materialize(const LibraryCompound& c) {
  return c.is_smiles_entry ? chem::parse_smiles(c.smiles) : c.molecule;
}

uint64_t library_fingerprint(const std::vector<LibraryCompound>& compounds) {
  // Two independent CRC32 streams folded into one u64; cheap, stable across
  // runs, and sensitive to ordering (position is mixed into the hash).
  uint32_t lo = 0;
  uint32_t hi = io::crc32("df-library", 10);
  const auto mix = [&](const void* data, size_t n) {
    lo = io::crc32(data, n, lo);
    hi = io::crc32(data, n, hi ^ 0x9e3779b9u);
  };
  const uint64_t count = compounds.size();
  mix(&count, sizeof(count));
  for (size_t i = 0; i < compounds.size(); ++i) {
    const LibraryCompound& c = compounds[i];
    const uint64_t pos = i;
    mix(&pos, sizeof(pos));
    mix(c.id.data(), c.id.size());
    const int32_t source = static_cast<int32_t>(c.source);
    mix(&source, sizeof(source));
    const uint8_t form = c.is_smiles_entry ? 1 : 0;
    mix(&form, sizeof(form));
    mix(c.smiles.data(), c.smiles.size());
    const uint64_t sizes[2] = {c.molecule.num_atoms(), c.molecule.num_bonds()};
    mix(sizes, sizeof(sizes));
  }
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

}  // namespace df::data
