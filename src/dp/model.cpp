#include "dp/model.hpp"

#include <cmath>

#include "md/box.hpp"
#include "md/neighbor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::dp {

DeepPotModel::DeepPotModel(const ModelSpec& spec, std::vector<md::Species> types,
                           double energy_bias_per_atom, std::uint64_t seed)
    : spec_(spec),
      types_(std::move(types)),
      energy_bias_per_atom_(energy_bias_per_atom),
      switching_(spec.descriptor.rcut, spec.descriptor.rcut_smth),
      sel_norm_(1.0 / static_cast<double>(spec.descriptor.sel)) {
  spec_.validate();
  if (types_.empty()) throw util::ValueError("model needs at least one atom");
  util::Rng rng(seed);

  const std::size_t m1 = spec_.m1();
  const std::size_t m2 = spec_.m2();
  embeddings_.reserve(md::kNumSpecies * md::kNumSpecies);
  for (std::size_t pair = 0; pair < md::kNumSpecies * md::kNumSpecies; ++pair) {
    nn::Mlp net(1, spec_.descriptor.neuron, spec_.descriptor.activation,
                spec_.descriptor.activation);
    net.init_xavier(rng);
    embeddings_.push_back(std::move(net));
  }
  fittings_.reserve(md::kNumSpecies);
  std::vector<std::size_t> fit_widths = spec_.fitting.neuron;
  fit_widths.push_back(1);  // scalar atomic energy head
  for (std::size_t t = 0; t < md::kNumSpecies; ++t) {
    nn::Mlp net(m1 * m2, fit_widths, spec_.fitting.activation,
                nn::Activation::kIdentity);
    net.init_xavier(rng);
    fittings_.push_back(std::move(net));
  }
  num_params_ = 0;
  for (const auto& net : embeddings_) num_params_ += net.num_params();
  for (const auto& net : fittings_) num_params_ += net.num_params();
}

DeepPotModel::DeepPotModel(const TrainInput& config, std::vector<md::Species> types,
                           double energy_bias_per_atom, std::uint64_t seed)
    : DeepPotModel(ModelSpec::from_train_input(config), std::move(types),
                   energy_bias_per_atom, seed) {}

std::vector<double> DeepPotModel::gather_params() const {
  std::vector<double> flat;
  flat.reserve(num_params_);
  for (const auto& net : embeddings_) {
    const auto view = net.params();
    flat.insert(flat.end(), view.begin(), view.end());
  }
  for (const auto& net : fittings_) {
    const auto view = net.params();
    flat.insert(flat.end(), view.begin(), view.end());
  }
  return flat;
}

void DeepPotModel::scatter_params(std::span<const double> params) {
  if (params.size() != num_params_) {
    throw util::ValueError("scatter_params: wrong parameter count");
  }
  std::size_t offset = 0;
  for (auto& net : embeddings_) {
    net.load_params(params.subspan(offset, net.num_params()));
    offset += net.num_params();
  }
  for (auto& net : fittings_) {
    net.load_params(params.subspan(offset, net.num_params()));
    offset += net.num_params();
  }
}

DeepPotModel::FrameGraph DeepPotModel::build_graph(ad::Tape& tape,
                                                   const md::Frame& frame) const {
  const std::size_t n = types_.size();
  if (frame.positions.size() != n) {
    throw util::ValueError("frame atom count does not match model");
  }
  const md::NeighborList list(md::Box(frame.box_length), frame.positions,
                              spec_.descriptor.rcut);
  const std::size_t m1 = spec_.m1();
  const std::size_t m2 = spec_.m2();

  // Bind coordinates first, then parameters, so gradients for both are cheap
  // to extract from one backward pass.
  std::vector<ad::Var> coords;
  coords.reserve(3 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      coords.push_back(tape.input(frame.positions[i][k]));
    }
  }

  std::vector<ad::Var> params;
  params.reserve(num_params_);
  std::vector<std::span<const ad::Var>> embed_views(embeddings_.size());
  std::vector<std::span<const ad::Var>> fit_views(fittings_.size());
  for (const auto& net : embeddings_) net.bind_params(tape, params);
  for (const auto& net : fittings_) net.bind_params(tape, params);
  {
    std::size_t offset = 0;
    for (std::size_t e = 0; e < embeddings_.size(); ++e) {
      embed_views[e] = std::span(params).subspan(offset, embeddings_[e].num_params());
      offset += embeddings_[e].num_params();
    }
    for (std::size_t f = 0; f < fittings_.size(); ++f) {
      fit_views[f] = std::span(params).subspan(offset, fittings_[f].num_params());
      offset += fittings_[f].num_params();
    }
  }

  ad::Var total = tape.constant(static_cast<double>(n) * energy_bias_per_atom_);
  std::vector<ad::Var> t_matrix(m1 * 4);
  std::vector<ad::Var> descriptor(m1 * m2);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& cell : t_matrix) cell = tape.constant(0.0);
    for (const md::Neighbor& nb : list.neighbors_of(i)) {
      // The periodic-image shift, recovered as build_frame_geometry does, so
      // displacement = (x_j + shift) - x_i carries coordinate gradients.
      const std::size_t j = nb.index;
      const md::Vec3 shift =
          nb.displacement - (frame.positions[j] - frame.positions[i]);
      const ad::Var dx = (coords[j * 3 + 0] + shift[0]) - coords[i * 3 + 0];
      const ad::Var dy = (coords[j * 3 + 1] + shift[1]) - coords[i * 3 + 1];
      const ad::Var dz = (coords[j * 3 + 2] + shift[2]) - coords[i * 3 + 2];
      const ad::Var r = ad::sqrt(dx * dx + dy * dy + dz * dz);
      if (r.value() >= spec_.descriptor.rcut) continue;
      const ad::Var s = switching_.value(r);
      const ad::Var inv_r = 1.0 / r;
      const ad::Var row[4] = {s, s * dx * inv_r, s * dy * inv_r, s * dz * inv_r};
      const std::size_t net = pair_index(types_[i], types_[j]);
      const ad::Var input[1] = {s};
      const std::vector<ad::Var> g =
          embeddings_[net].forward(tape, embed_views[net], std::span(input, 1));
      for (std::size_t m = 0; m < m1; ++m) {
        const ad::Var scaled = g[m] * sel_norm_;
        for (std::size_t c = 0; c < 4; ++c) {
          t_matrix[m * 4 + c] = t_matrix[m * 4 + c] + scaled * row[c];
        }
      }
    }
    for (std::size_t a = 0; a < m1; ++a) {
      for (std::size_t b = 0; b < m2; ++b) {
        ad::Var sum = t_matrix[a * 4 + 0] * t_matrix[b * 4 + 0];
        for (std::size_t c = 1; c < 4; ++c) {
          sum = sum + t_matrix[a * 4 + c] * t_matrix[b * 4 + c];
        }
        descriptor[a * m2 + b] = sum;
      }
    }
    const std::size_t fit_net = static_cast<std::size_t>(types_[i]);
    const std::vector<ad::Var> atomic =
        fittings_[fit_net].forward(tape, fit_views[fit_net], descriptor);
    total = total + atomic[0];
  }

  // Forces: F = -dE/dx.
  const std::vector<ad::Var> de_dx = tape.gradient(total, coords);
  FrameGraph graph;
  graph.energy = total;
  graph.forces.reserve(3 * n);
  for (const ad::Var& g : de_dx) graph.forces.push_back(-g);
  graph.params = std::move(params);
  return graph;
}

md::ForceEnergy DeepPotModel::energy_forces_tape(const md::Frame& frame) const {
  ad::Tape tape;
  const FrameGraph graph = build_graph(tape, frame);
  md::ForceEnergy out;
  out.energy = graph.energy.value();
  out.forces.resize(types_.size());
  for (std::size_t i = 0; i < types_.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      out.forces[i][k] = graph.forces[i * 3 + k].value();
    }
  }
  return out;
}

util::Json DeepPotModel::save() const {
  util::Json json;
  json["spec"] = spec_.to_json();
  json["energy_bias_per_atom"] = energy_bias_per_atom_;
  util::JsonArray type_array;
  for (md::Species s : types_) type_array.emplace_back(static_cast<int>(s));
  json["types"] = util::Json(std::move(type_array));
  util::JsonArray param_array;
  for (double p : gather_params()) param_array.emplace_back(p);
  json["params"] = util::Json(std::move(param_array));
  return json;
}

DeepPotModel DeepPotModel::load(const util::Json& json) {
  // "spec" is the current checkpoint shape; "config" is the legacy one (a
  // full TrainInput document, whose model block ModelSpec also understands).
  const ModelSpec spec = json.contains("spec")
                             ? ModelSpec::from_json(json.at("spec"))
                             : ModelSpec::from_json(json.at("config"));
  std::vector<md::Species> types;
  for (const util::Json& t : json.at("types").as_array()) {
    types.push_back(static_cast<md::Species>(t.as_int()));
  }
  DeepPotModel model(spec, std::move(types),
                     json.at("energy_bias_per_atom").as_number(), /*seed=*/0);
  std::vector<double> params;
  for (const util::Json& p : json.at("params").as_array()) {
    params.push_back(p.as_number());
  }
  model.scatter_params(params);
  return model;
}

}  // namespace dpho::dp
