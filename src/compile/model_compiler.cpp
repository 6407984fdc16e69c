#include "compile/model_compiler.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "models/cnn3d.h"
#include "models/fusion.h"
#include "models/sgcnn.h"
#include "nn/conv3d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/norm.h"
#include "nn/residual.h"
#include "nn/sequential.h"

namespace df::compile {

namespace {

// ---- BatchNorm folding ----------------------------------------------------
//
// Eval-mode BatchNorm is the per-feature affine x -> s*x + t with
// s = gamma / sqrt(running_var + eps) and t = beta - s*mean, computed in
// float exactly as norm.cpp does. Absorbing it into the neighbouring linear
// layer reassociates one multiply per weight, so the folded output matches
// the unfused stack within fp tolerance (see docs/API.md for the bound the
// tests pin); the compiled artifact then pins itself bitwise against the
// folded donor, which is the identity serving actually relies on.

void fold_bn1d_into_prev(nn::Dense& d, nn::BatchNorm1d& bn) {
  const int64_t in = d.in_features(), out = d.out_features();
  core::Tensor& W = d.weight().value;  // (in, out)
  core::Tensor& b = d.bias().value;    // (out)
  for (int64_t j = 0; j < out; ++j) {
    const float is = 1.0f / std::sqrt(bn.running_var()[j] + bn.eps());
    const float s = bn.gamma().value[j] * is;
    for (int64_t i = 0; i < in; ++i) W.at(i, j) *= s;
    b[j] = (b[j] - bn.running_mean()[j]) * s + bn.beta().value[j];
  }
}

void fold_bn1d_into_next(nn::BatchNorm1d& bn, nn::Dense& d) {
  const int64_t in = d.in_features(), out = d.out_features();
  core::Tensor& W = d.weight().value;
  core::Tensor& b = d.bias().value;
  for (int64_t i = 0; i < in; ++i) {
    const float is = 1.0f / std::sqrt(bn.running_var()[i] + bn.eps());
    const float s = bn.gamma().value[i] * is;
    const float t = bn.beta().value[i] - bn.running_mean()[i] * s;
    for (int64_t j = 0; j < out; ++j) {
      b[j] += t * W.at(i, j);  // uses the pre-scale weight
      W.at(i, j) *= s;
    }
  }
}

void fold_bn3d_into_prev(nn::Conv3d& c, nn::BatchNorm3d& bn) {
  const int64_t cout = c.out_channels();
  const int64_t row = c.in_channels() * c.kernel() * c.kernel() * c.kernel();
  float* W = c.weight().value.data();  // (cout, cin*k^3) row-major
  float* b = c.bias().value.data();
  for (int64_t co = 0; co < cout; ++co) {
    const float is = 1.0f / std::sqrt(bn.running_var()[co] + bn.eps());
    const float s = bn.gamma().value[co] * is;
    float* wr = W + co * row;
    for (int64_t i = 0; i < row; ++i) wr[i] *= s;
    b[co] = (b[co] - bn.running_mean()[co]) * s + bn.beta().value[co];
  }
}

// Only valid for pad == 0: with zero padding the BN's constant shift t is
// absent on the padded border taps, so it cannot be hoisted into the bias.
// The caller guards on padding.
void fold_bn3d_into_next(nn::BatchNorm3d& bn, nn::Conv3d& c) {
  const int64_t cout = c.out_channels(), cin = c.in_channels();
  const int64_t kk = c.kernel() * c.kernel() * c.kernel();
  float* W = c.weight().value.data();
  float* b = c.bias().value.data();
  for (int64_t ci = 0; ci < cin; ++ci) {
    const float is = 1.0f / std::sqrt(bn.running_var()[ci] + bn.eps());
    const float s = bn.gamma().value[ci] * is;
    const float t = bn.beta().value[ci] - bn.running_mean()[ci] * s;
    for (int64_t co = 0; co < cout; ++co) {
      float* wr = W + (co * cin + ci) * kk;
      float tap_sum = 0.0f;
      for (int64_t k = 0; k < kk; ++k) tap_sum += wr[k];
      b[co] += t * tap_sum;
      for (int64_t k = 0; k < kk; ++k) wr[k] *= s;
    }
  }
}

int fold_sequential(nn::Sequential& seq) {
  int folded = 0;
  size_t i = 0;
  while (i < seq.size()) {
    nn::Module* m = &seq.layer(i);
    if (auto* r = dynamic_cast<nn::Residual*>(m)) {
      // A BN adjacent to a Residual never folds across the skip boundary;
      // only the wrapped block is rewritten.
      if (auto* s = dynamic_cast<nn::Sequential*>(&r->inner())) folded += fold_sequential(*s);
      ++i;
      continue;
    }
    if (auto* s = dynamic_cast<nn::Sequential*>(m)) {
      folded += fold_sequential(*s);
      ++i;
      continue;
    }
    if (auto* bn = dynamic_cast<nn::BatchNorm1d*>(m)) {
      nn::Dense* prev = i > 0 ? dynamic_cast<nn::Dense*>(&seq.layer(i - 1)) : nullptr;
      if (prev != nullptr && prev->has_bias() && prev->out_features() == bn->features()) {
        fold_bn1d_into_prev(*prev, *bn);
        seq.remove(i);
        ++folded;
        continue;  // layer i is now the one that followed the BN
      }
      nn::Dense* next = i + 1 < seq.size() ? dynamic_cast<nn::Dense*>(&seq.layer(i + 1)) : nullptr;
      if (next != nullptr && next->has_bias() && next->in_features() == bn->features()) {
        fold_bn1d_into_next(*bn, *next);
        seq.remove(i);
        ++folded;
        continue;
      }
      ++i;
      continue;
    }
    if (auto* bn = dynamic_cast<nn::BatchNorm3d*>(m)) {
      nn::Conv3d* prev = i > 0 ? dynamic_cast<nn::Conv3d*>(&seq.layer(i - 1)) : nullptr;
      if (prev != nullptr && prev->out_channels() == bn->channels()) {
        fold_bn3d_into_prev(*prev, *bn);
        seq.remove(i);
        ++folded;
        continue;
      }
      nn::Conv3d* next = i + 1 < seq.size() ? dynamic_cast<nn::Conv3d*>(&seq.layer(i + 1)) : nullptr;
      if (next != nullptr && next->padding() == 0 && next->in_channels() == bn->channels()) {
        fold_bn3d_into_next(*bn, *next);
        seq.remove(i);
        ++folded;
        continue;
      }
      ++i;
      continue;
    }
    ++i;
  }
  return folded;
}

int strip_dropout(nn::Sequential& seq) {
  int stripped = 0;
  size_t i = 0;
  while (i < seq.size()) {
    nn::Module* m = &seq.layer(i);
    if (dynamic_cast<nn::Dropout*>(m) != nullptr) {
      seq.remove(i);
      ++stripped;
      continue;
    }
    if (auto* r = dynamic_cast<nn::Residual*>(m)) {
      if (auto* s = dynamic_cast<nn::Sequential*>(&r->inner())) stripped += strip_dropout(*s);
    } else if (auto* s = dynamic_cast<nn::Sequential*>(m)) {
      stripped += strip_dropout(*s);
    }
    ++i;
  }
  return stripped;
}

int count_batchnorms(nn::Sequential& seq) {
  int n = 0;
  for (size_t i = 0; i < seq.size(); ++i) {
    nn::Module* m = &seq.layer(i);
    if (dynamic_cast<nn::BatchNorm1d*>(m) != nullptr ||
        dynamic_cast<nn::BatchNorm3d*>(m) != nullptr) {
      ++n;
    } else if (auto* r = dynamic_cast<nn::Residual*>(m)) {
      if (auto* s = dynamic_cast<nn::Sequential*>(&r->inner())) n += count_batchnorms(*s);
    } else if (auto* s = dynamic_cast<nn::Sequential*>(m)) {
      n += count_batchnorms(*s);
    }
  }
  return n;
}

// ---- canonical structure walks --------------------------------------------
//
// StructureWalk itself lives in the header (the quantization pass shares
// it); the collectors stay here.

void walk_seq_gemm(nn::Sequential& seq, StructureWalk& w) {
  for (size_t i = 0; i < seq.size(); ++i) {
    nn::Module* m = &seq.layer(i);
    if (auto* d = dynamic_cast<nn::Dense*>(m)) {
      w.dense.push_back(d);
    } else if (auto* c = dynamic_cast<nn::Conv3d*>(m)) {
      w.conv.push_back(c);
    } else if (auto* r = dynamic_cast<nn::Residual*>(m)) {
      nn::Module& inner = r->inner();
      if (auto* s = dynamic_cast<nn::Sequential*>(&inner)) {
        walk_seq_gemm(*s, w);
      } else if (auto* d2 = dynamic_cast<nn::Dense*>(&inner)) {
        w.dense.push_back(d2);
      } else if (auto* c2 = dynamic_cast<nn::Conv3d*>(&inner)) {
        w.conv.push_back(c2);
      }
    } else if (auto* s = dynamic_cast<nn::Sequential*>(m)) {
      walk_seq_gemm(*s, w);
    }
  }
}

void collect_cnn(models::Cnn3d& m, StructureWalk& w) {
  w.seqs.push_back(&m.trunk());
  walk_seq_gemm(m.trunk(), w);
  w.dense.push_back(&m.out_dense());
}

// The graph-convolution layers (GatedGraphConv, Gather) keep their own GEMM
// paths — their operand shapes depend on the per-request graph, so there is
// nothing to prepack; only the dense head is walked.
void collect_sg(models::Sgcnn& m, StructureWalk& w) {
  w.dense.push_back(&m.embed_dense());
  w.dense.push_back(&m.dense1());
  w.dense.push_back(&m.dense2());
  w.dense.push_back(&m.out_dense());
}

void collect(models::Regressor& model, StructureWalk& w) {
  if (auto* c = dynamic_cast<models::Cnn3d*>(&model)) {
    collect_cnn(*c, w);
    return;
  }
  if (auto* s = dynamic_cast<models::Sgcnn*>(&model)) {
    collect_sg(*s, w);
    return;
  }
  if (auto* f = dynamic_cast<models::FusionModel*>(&model)) {
    collect_cnn(f->cnn_head(), w);
    collect_sg(f->sg_head(), w);
    if (f->ms_cnn() != nullptr) {
      w.seqs.push_back(f->ms_cnn());
      walk_seq_gemm(*f->ms_cnn(), w);
    }
    if (f->ms_sg() != nullptr) {
      w.seqs.push_back(f->ms_sg());
      walk_seq_gemm(*f->ms_sg(), w);
    }
    w.seqs.push_back(&f->fusion_trunk());
    walk_seq_gemm(f->fusion_trunk(), w);
    return;
  }
  if (auto* l = dynamic_cast<models::LateFusion*>(&model)) {
    collect_cnn(l->cnn_head(), w);
    collect_sg(l->sg_head(), w);
    return;
  }
  throw std::invalid_argument("model compiler: unsupported model type: " + model.name());
}

// Parameter walk for artifact serialization. NOT trainable_parameters() for
// the fusion families: FusionModel excludes its heads unless Coherent, and
// the artifact must carry every weight the eval path reads regardless of
// the training wiring.
std::vector<nn::Parameter*> walk_parameters(models::Regressor& model) {
  if (auto* f = dynamic_cast<models::FusionModel*>(&model)) {
    std::vector<nn::Parameter*> out = f->cnn_head().trainable_parameters();
    std::vector<nn::Parameter*> sg = f->sg_head().trainable_parameters();
    out.insert(out.end(), sg.begin(), sg.end());
    if (f->ms_cnn() != nullptr) f->ms_cnn()->collect_parameters(out);
    if (f->ms_sg() != nullptr) f->ms_sg()->collect_parameters(out);
    f->fusion_trunk().collect_parameters(out);
    return out;
  }
  if (auto* l = dynamic_cast<models::LateFusion*>(&model)) {
    std::vector<nn::Parameter*> out = l->cnn_head().trainable_parameters();
    std::vector<nn::Parameter*> sg = l->sg_head().trainable_parameters();
    out.insert(out.end(), sg.begin(), sg.end());
    return out;
  }
  return model.trainable_parameters();  // Cnn3d / Sgcnn walk everything
}

models::Cnn3d* cnn_head_of(models::Regressor& model) {
  if (auto* c = dynamic_cast<models::Cnn3d*>(&model)) return c;
  if (auto* f = dynamic_cast<models::FusionModel*>(&model)) return &f->cnn_head();
  if (auto* l = dynamic_cast<models::LateFusion*>(&model)) return &l->cnn_head();
  return nullptr;
}

// Build every Conv3d lowering (row and tap offsets) for the model's voxel
// geometry with one zero-valued dummy trunk forward (values are discarded;
// the lowerings depend only on geometry).
void warm_conv_plans(models::Regressor& model) {
  models::Cnn3d* cnn = cnn_head_of(model);
  if (cnn == nullptr) return;
  const models::Cnn3dConfig& cfg = cnn->config();
  core::Tensor zero({1, cfg.in_channels, cfg.grid_dim, cfg.grid_dim, cfg.grid_dim});
  (void)cnn->forward_latent(zero, /*training=*/false);
}

// ---- per-family config serialization --------------------------------------

io::H5LiteError format_error(const std::string& msg) {
  return io::H5LiteError(io::H5LiteError::Kind::Format, "artifact: " + msg);
}

void add_cnn_cfg(io::ArtifactWriter& w, const models::Cnn3dConfig& c) {
  const int64_t iv[] = {c.in_channels,        c.grid_dim,           c.conv_filters1,
                        c.conv_filters2,      c.dense_nodes,        c.batch_norm ? 1 : 0,
                        c.residual1 ? 1 : 0,  c.residual2 ? 1 : 0};
  w.add_ints("cfg/cnn/int", {8}, iv);
  const float fv[] = {c.dropout1, c.dropout2};
  w.add_floats("cfg/cnn/float", {2}, fv);
}

models::Cnn3dConfig read_cnn_cfg(const io::ArtifactReader& a) {
  const int64_t* iv = a.ints("cfg/cnn/int", 8);
  const float* fv = a.floats("cfg/cnn/float", 2);
  models::Cnn3dConfig c;
  c.in_channels = static_cast<int>(iv[0]);
  c.grid_dim = static_cast<int>(iv[1]);
  c.conv_filters1 = static_cast<int>(iv[2]);
  c.conv_filters2 = static_cast<int>(iv[3]);
  c.dense_nodes = static_cast<int>(iv[4]);
  c.batch_norm = iv[5] != 0;
  c.residual1 = iv[6] != 0;
  c.residual2 = iv[7] != 0;
  c.dropout1 = fv[0];
  c.dropout2 = fv[1];
  return c;
}

void add_sg_cfg(io::ArtifactWriter& w, const models::SgcnnConfig& c) {
  const int64_t iv[] = {c.node_features, c.covalent_k, c.noncovalent_k, c.covalent_gather_width,
                        c.noncovalent_gather_width};
  w.add_ints("cfg/sg/int", {5}, iv);
}

models::SgcnnConfig read_sg_cfg(const io::ArtifactReader& a) {
  const int64_t* iv = a.ints("cfg/sg/int", 5);
  models::SgcnnConfig c;
  c.node_features = static_cast<int>(iv[0]);
  c.covalent_k = static_cast<int>(iv[1]);
  c.noncovalent_k = static_cast<int>(iv[2]);
  c.covalent_gather_width = static_cast<int>(iv[3]);
  c.noncovalent_gather_width = static_cast<int>(iv[4]);
  return c;
}

void add_fusion_cfg(io::ArtifactWriter& w, const models::FusionConfig& c) {
  const int64_t iv[] = {static_cast<int64_t>(c.kind),
                        c.num_fusion_layers,
                        c.fusion_nodes,
                        c.model_specific_layers ? 1 : 0,
                        c.residual_fusion ? 1 : 0,
                        static_cast<int64_t>(c.activation)};
  w.add_ints("cfg/fusion/int", {6}, iv);
  const float fv[] = {c.dropout1, c.dropout2, c.dropout3};
  w.add_floats("cfg/fusion/float", {3}, fv);
}

models::FusionConfig read_fusion_cfg(const io::ArtifactReader& a) {
  const int64_t* iv = a.ints("cfg/fusion/int", 6);
  const float* fv = a.floats("cfg/fusion/float", 3);
  if (iv[0] < 0 || iv[0] > 2) throw format_error("bad fusion kind in " + a.path());
  if (iv[5] < 0 || iv[5] > 2) throw format_error("bad fusion activation in " + a.path());
  models::FusionConfig c;
  c.kind = static_cast<models::FusionKind>(iv[0]);
  c.num_fusion_layers = static_cast<int>(iv[1]);
  c.fusion_nodes = static_cast<int>(iv[2]);
  c.model_specific_layers = iv[3] != 0;
  c.residual_fusion = iv[4] != 0;
  c.activation = static_cast<nn::Activation>(iv[5]);
  c.dropout1 = fv[0];
  c.dropout2 = fv[1];
  c.dropout3 = fv[2];
  return c;
}

void write_config(io::ArtifactWriter& w, models::Regressor& model, ModelFamily fam) {
  switch (fam) {
    case ModelFamily::kCnn3d:
      add_cnn_cfg(w, dynamic_cast<models::Cnn3d&>(model).config());
      return;
    case ModelFamily::kSgcnn:
      add_sg_cfg(w, dynamic_cast<models::Sgcnn&>(model).config());
      return;
    case ModelFamily::kFusion: {
      auto& f = dynamic_cast<models::FusionModel&>(model);
      add_fusion_cfg(w, f.config());
      add_cnn_cfg(w, f.cnn_head().config());
      add_sg_cfg(w, f.sg_head().config());
      return;
    }
    case ModelFamily::kLateFusion: {
      auto& l = dynamic_cast<models::LateFusion&>(model);
      add_cnn_cfg(w, l.cnn_head().config());
      add_sg_cfg(w, l.sg_head().config());
      return;
    }
  }
  throw std::invalid_argument("model compiler: bad family");
}

std::unique_ptr<models::Regressor> rebuild(const io::ArtifactReader& a, ModelFamily fam) {
  // Structure-only rebuild: every parameter value is overwritten from the
  // artifact afterwards, so the init Rng just has to be *some* fixed seed.
  core::Rng rng(0x9a7e);
  switch (fam) {
    case ModelFamily::kCnn3d:
      return std::make_unique<models::Cnn3d>(read_cnn_cfg(a), rng);
    case ModelFamily::kSgcnn:
      return std::make_unique<models::Sgcnn>(read_sg_cfg(a), rng);
    case ModelFamily::kFusion: {
      auto cnn = std::make_shared<models::Cnn3d>(read_cnn_cfg(a), rng);
      auto sg = std::make_shared<models::Sgcnn>(read_sg_cfg(a), rng);
      return std::make_unique<models::FusionModel>(read_fusion_cfg(a), std::move(cnn),
                                                   std::move(sg), rng);
    }
    case ModelFamily::kLateFusion: {
      auto cnn = std::make_shared<models::Cnn3d>(read_cnn_cfg(a), rng);
      auto sg = std::make_shared<models::Sgcnn>(read_sg_cfg(a), rng);
      return std::make_unique<models::LateFusion>(std::move(cnn), std::move(sg));
    }
  }
  throw format_error("bad family in " + a.path());
}

/// Eval-only facade over a model restored from an artifact: forwards the
/// scoring surface and throws on any training entry point (the packed
/// weight images would go stale underneath an update).
class CompiledRegressor : public models::Regressor {
 public:
  explicit CompiledRegressor(std::unique_ptr<models::Regressor> inner)
      : inner_(std::move(inner)) {}

  float forward_train(const data::Sample&) override {
    throw std::logic_error("compiled model is eval-only: forward_train on " + inner_->name());
  }
  void backward(float) override {
    throw std::logic_error("compiled model is eval-only: backward on " + inner_->name());
  }
  float predict(const data::Sample& s) override { return inner_->predict(s); }
  std::vector<float> predict_batch(const std::vector<const data::Sample*>& batch) override {
    return inner_->predict_batch(batch);
  }
  std::vector<nn::Parameter*> trainable_parameters() override {
    return inner_->trainable_parameters();
  }
  void set_training(bool t) override {
    if (t) throw std::logic_error("compiled model is eval-only: set_training(true)");
    inner_->set_training(false);
  }
  std::string name() const override { return inner_->name(); }
  /// The wrapped model — walk_structure/family_of look through the facade.
  models::Regressor& inner() { return *inner_; }

 private:
  std::unique_ptr<models::Regressor> inner_;
};

// The passes that change the layer chain: fold BatchNorms, strip Dropouts.
// They only remove BN/Dropout layers, so the returned walk's Dense/Conv3d
// pointers stay valid — and now hold the folded weights.
StructureWalk fold_and_strip(models::Regressor& model, CompileReport& rep) {
  model.set_training(false);
  StructureWalk w;
  collect(model, w);
  for (nn::Sequential* s : w.seqs) rep.folded_batch_norms += fold_sequential(*s);
  for (nn::Sequential* s : w.seqs) rep.stripped_dropouts += strip_dropout(*s);
  return w;
}

// Give every layer that is not int8 its fp32 handle; returns how many.
template <class Layer>
int pack_f32(const std::vector<Layer*>& layers) {
  int packed = 0;
  for (Layer* l : layers) {
    if (l->eval_weights().kind == nn::EvalWeights::Kind::kInt8) continue;
    l->set_eval_weights(l->packed_f32());
    ++packed;
  }
  return packed;
}

// One layer's serving handle, stored verbatim under `base`: its kind, its
// image and, when int8, its scales, comp (Dense only) and act step.
void write_eval_weights(io::ArtifactWriter& out, const std::string& base,
                        const nn::EvalWeights& e) {
  out.add_scalar(base + "kind", static_cast<int64_t>(e.kind));
  if (e.kind == nn::EvalWeights::Kind::kF32)
    out.add_floats(base + "image", {e.image_len}, e.f32());
  if (e.kind != nn::EvalWeights::Kind::kInt8) return;
  out.add_int8s(base + "image", {e.image_len}, e.s8());
  out.add_floats(base + "scales", {e.scales_len}, e.scales);
  if (e.comp != nullptr) out.add_int32s(base + "comp", {e.comp_len}, e.comp);
  out.add_floats(base + "act", {1}, &e.act_scale);
}

// Give `layer` the handle stored under `base`, as views into the mapping
// that keep it alive. A group that does not fit the layer is a Format error.
template <class Layer>
void read_eval_weights(const std::shared_ptr<io::ArtifactReader>& image, const std::string& base,
                       Layer& layer) {
  const io::ArtifactReader& a = *image;
  nn::EvalWeights e{.kind = static_cast<nn::EvalWeights::Kind>(a.scalar(base + "kind")),
                    .keep_alive = image};
  const std::string img = base + "image", scales = base + "scales", comp = base + "comp";
  if (e.kind == nn::EvalWeights::Kind::kF32) {
    e.image = a.floats(img);
    e.image_len = a.section(img).numel();
  } else if (e.kind == nn::EvalWeights::Kind::kInt8) {
    e.image = a.int8s(img);
    e.image_len = a.section(img).numel();
    e.scales = a.floats(scales);
    e.scales_len = a.section(scales).numel();
    if (a.has(comp)) {
      e.comp = a.int32s(comp);
      e.comp_len = a.section(comp).numel();
    }
    e.act_scale = a.floats(base + "act", 1)[0];
  }
  try {
    layer.set_eval_weights(std::move(e));
  } catch (const std::invalid_argument& err) {
    throw format_error("sections " + base + "* do not fit their layer in " + a.path() + ": " +
                       err.what());
  }
}

}  // namespace

StructureWalk walk_structure(models::Regressor& model) {
  if (auto* cr = dynamic_cast<CompiledRegressor*>(&model)) return walk_structure(cr->inner());
  StructureWalk w;
  collect(model, w);
  return w;
}

ModelFamily family_of(models::Regressor& model) {
  if (auto* cr = dynamic_cast<CompiledRegressor*>(&model)) return family_of(cr->inner());
  if (dynamic_cast<models::FusionModel*>(&model) != nullptr) return ModelFamily::kFusion;
  if (dynamic_cast<models::LateFusion*>(&model) != nullptr) return ModelFamily::kLateFusion;
  if (dynamic_cast<models::Cnn3d*>(&model) != nullptr) return ModelFamily::kCnn3d;
  if (dynamic_cast<models::Sgcnn*>(&model) != nullptr) return ModelFamily::kSgcnn;
  throw std::invalid_argument("model compiler: unsupported model type: " + model.name());
}

CompileReport compile_model(models::Regressor& model) {
  CompileReport rep;
  const StructureWalk w = fold_and_strip(model, rep);
  rep.prepacked_dense = pack_f32(w.dense);
  rep.prepacked_conv = pack_f32(w.conv);
  warm_conv_plans(model);
  return rep;
}

void save_compiled(models::Regressor& model, const std::string& path, int64_t poses_per_batch,
                   WorkspaceBudget budget, int64_t feature_set_version) {
  if (feature_set_version < 1) {
    throw std::invalid_argument("save_compiled: feature_set_version must be >= 1");
  }
  const ModelFamily fam = family_of(model);
  compile_model(model);

  // The artifact has no carrier for BatchNorm running statistics (they are
  // not Parameters) — by design: a BN that survived folding would silently
  // lose its stats on the round trip, so refuse to serialize it.
  StructureWalk w;
  collect(model, w);
  int surviving_bn = 0;
  for (nn::Sequential* s : w.seqs) surviving_bn += count_batchnorms(*s);
  if (surviving_bn > 0) {
    throw std::invalid_argument("save_compiled: " + std::to_string(surviving_bn) +
                                " BatchNorm layer(s) survived folding in " + model.name() +
                                "; the artifact cannot carry running statistics");
  }

  io::ArtifactWriter out;
  out.add_scalar("compile/schema", kCompiledSchema);
  out.add_scalar("family", static_cast<int64_t>(fam));
  out.add_scalar("poses_per_batch", poses_per_batch);
  out.add_scalar("ws/forward", budget.forward_floats);
  out.add_scalar("ws/feat", budget.feat_floats);
  out.add_scalar("meta/feature_set_version", feature_set_version);
  write_config(out, model, fam);

  const std::vector<nn::Parameter*> params = walk_parameters(model);
  out.add_scalar("param_count", static_cast<int64_t>(params.size()));
  for (size_t i = 0; i < params.size(); ++i) {
    out.add_floats("param/" + std::to_string(i), params[i]->value.shape(),
                   params[i]->value.data());
  }

  // The layers' handles, verbatim: fp32 panels are a pure function of the
  // folded weights, but int8 images embed calibration results, and the
  // verbatim copy is what makes a restored replica bitwise-reproduce the
  // donor's int8 scores (int32 accumulation is exact).
  out.add_scalar("dense/count", static_cast<int64_t>(w.dense.size()));
  out.add_scalar("conv/count", static_cast<int64_t>(w.conv.size()));
  for (size_t i = 0; i < w.dense.size(); ++i)
    write_eval_weights(out, "dense/" + std::to_string(i) + "/", w.dense[i]->eval_weights());
  for (size_t i = 0; i < w.conv.size(); ++i)
    write_eval_weights(out, "conv/" + std::to_string(i) + "/", w.conv[i]->eval_weights());

  out.save(path);
}

CompiledModel load_compiled(std::shared_ptr<io::ArtifactReader> image) {
  const io::ArtifactReader& a = *image;
  const int64_t schema = a.has("compile/schema") ? a.scalar("compile/schema") : 0;
  if (schema != kCompiledSchema) {
    throw format_error("compiled schema " + std::to_string(schema) + " in " + a.path() +
                       " (reader supports " + std::to_string(kCompiledSchema) +
                       "; recompile the artifact)");
  }
  CompiledModel out;
  const int64_t fam_raw = a.scalar("family");
  if (fam_raw < 0 || fam_raw > 3) throw format_error("bad family in " + a.path());
  out.family = static_cast<ModelFamily>(fam_raw);
  out.poses_per_batch = a.scalar("poses_per_batch");
  out.budget = {a.scalar("ws/forward"), a.scalar("ws/feat")};
  out.feature_set_version = a.scalar("meta/feature_set_version");

  std::unique_ptr<models::Regressor> model = rebuild(a, out.family);

  // Re-run the structural passes so the replica's layer chain matches the
  // donor's post-compile chain (same walk order for the positional
  // sections). The fold rewrites init-garbage weights — harmless, every
  // parameter is overwritten next.
  CompileReport structural;
  const StructureWalk w = fold_and_strip(*model, structural);

  const std::vector<nn::Parameter*> params = walk_parameters(*model);
  if (a.scalar("param_count") != static_cast<int64_t>(params.size())) {
    throw format_error("parameter count mismatch in " + a.path() +
                       " (artifact/model structure divergence)");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const std::string name = "param/" + std::to_string(i);
    if (a.section(name).dims != params[i]->value.shape())
      throw format_error("parameter shape mismatch for " + name + " in " + a.path());
    std::memcpy(params[i]->value.data(), a.floats(name),
                static_cast<size_t>(params[i]->value.numel()) * sizeof(float));
  }

  // Point the GEMM layers straight into the mapping — zero-copy weights.
  if (a.scalar("dense/count") != static_cast<int64_t>(w.dense.size()) ||
      a.scalar("conv/count") != static_cast<int64_t>(w.conv.size())) {
    throw format_error("GEMM layer count mismatch in " + a.path());
  }
  for (size_t i = 0; i < w.dense.size(); ++i)
    read_eval_weights(image, "dense/" + std::to_string(i) + "/", *w.dense[i]);
  for (size_t i = 0; i < w.conv.size(); ++i)
    read_eval_weights(image, "conv/" + std::to_string(i) + "/", *w.conv[i]);

  warm_conv_plans(*model);
  model->set_training(false);

  out.model = std::make_unique<CompiledRegressor>(std::move(model));
  return out;
}

CompiledModel load_compiled(const std::string& path) {
  return load_compiled(io::ArtifactReader::open(path));
}

}  // namespace df::compile
