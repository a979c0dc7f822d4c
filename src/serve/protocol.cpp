#include "serve/protocol.hpp"

#include <utility>

#include "util/error.hpp"

namespace dpho::serve {

using hpc::net::expect_type;
using hpc::net::string_field;
using hpc::net::tagged;
using hpc::net::uint_field;

namespace {

const util::JsonArray& array_field(const util::Json& message,
                                   const std::string& key) {
  if (!message.contains(key) || !message.at(key).is_array()) {
    throw util::ParseError("serve message: missing array field " + key);
  }
  return message.at(key).as_array();
}

/// Flat [x0,y0,z0,x1,...] triplet list -> Vec3s; validates every element.
std::vector<md::Vec3> decode_triplets(const util::Json& flat,
                                      const std::string& what) {
  if (!flat.is_array()) {
    throw util::ParseError("serve message: " + what + " must be an array");
  }
  const util::JsonArray& values = flat.as_array();
  if (values.empty() || values.size() % 3 != 0) {
    throw util::ValueError("serve message: " + what +
                           " length must be a positive multiple of 3, got " +
                           std::to_string(values.size()));
  }
  std::vector<md::Vec3> out(values.size() / 3);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!values[i].is_number()) {
      throw util::ParseError("serve message: " + what + " holds a non-number");
    }
    out[i / 3][i % 3] = values[i].as_number();
  }
  return out;
}

util::Json encode_triplets(const std::vector<md::Vec3>& vectors) {
  util::JsonArray flat;
  flat.reserve(vectors.size() * 3);
  for (const md::Vec3& v : vectors) {
    flat.emplace_back(v[0]);
    flat.emplace_back(v[1]);
    flat.emplace_back(v[2]);
  }
  return flat;
}

}  // namespace

std::string to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownModel: return "unknown_model";
    case ErrorCode::kTooLarge: return "too_large";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

ErrorCode error_code_from_string(const std::string& name) {
  if (name == "overloaded") return ErrorCode::kOverloaded;
  if (name == "bad_request") return ErrorCode::kBadRequest;
  if (name == "unknown_model") return ErrorCode::kUnknownModel;
  if (name == "too_large") return ErrorCode::kTooLarge;
  if (name == "internal") return ErrorCode::kInternal;
  throw util::ValueError("serve message: unknown error code " + name);
}

util::Json encode_eval_request(const EvalRequest& request) {
  util::Json message = tagged(kMsgEval, request.id);
  message["model"] = request.model;
  message["forces"] = request.want_forces;
  util::JsonArray frames;
  frames.reserve(request.frames.size());
  for (const md::Frame& frame : request.frames) {
    util::Json entry;
    entry["box"] = frame.box_length;
    entry["coords"] = encode_triplets(frame.positions);
    frames.push_back(std::move(entry));
  }
  message["frames"] = std::move(frames);
  return message;
}

EvalRequest decode_eval_request(const util::Json& message) {
  expect_type(message, kMsgEval);
  EvalRequest request;
  request.id = uint_field(message, "id");
  request.model = string_field(message, "model");
  if (message.contains("forces")) {
    if (!message.at("forces").is_bool()) {
      throw util::ParseError("serve message: forces must be a bool");
    }
    request.want_forces = message.at("forces").as_bool();
  }
  const util::JsonArray& frames = array_field(message, "frames");
  if (frames.empty()) {
    throw util::ValueError("serve message: eval request holds no frames");
  }
  if (frames.size() > kMaxBatchFrames) {
    throw util::ValueError("serve message: batch of " +
                           std::to_string(frames.size()) + " frames exceeds " +
                           std::to_string(kMaxBatchFrames));
  }
  request.frames.reserve(frames.size());
  for (const util::Json& entry : frames) {
    if (!entry.is_object()) {
      throw util::ParseError("serve message: frame must be an object");
    }
    md::Frame frame;
    if (!entry.contains("box") || !entry.at("box").is_number()) {
      throw util::ParseError("serve message: frame missing numeric box");
    }
    frame.box_length = entry.at("box").as_number();
    if (frame.box_length <= 0.0) {
      throw util::ValueError("serve message: frame box must be positive");
    }
    frame.positions = decode_triplets(entry.at("coords"), "coords");
    request.frames.push_back(std::move(frame));
  }
  return request;
}

util::Json encode_eval_reply(const EvalReply& reply) {
  util::Json message = tagged(kMsgResult, reply.id);
  message["model"] = reply.model;
  util::JsonArray energies;
  energies.reserve(reply.energies.size());
  for (const double energy : reply.energies) energies.emplace_back(energy);
  message["energies"] = std::move(energies);
  if (!reply.forces.empty()) {
    util::JsonArray forces;
    forces.reserve(reply.forces.size());
    for (const std::vector<double>& frame_forces : reply.forces) {
      util::JsonArray flat;
      flat.reserve(frame_forces.size());
      for (const double f : frame_forces) flat.emplace_back(f);
      forces.push_back(std::move(flat));
    }
    message["forces"] = std::move(forces);
  }
  return message;
}

EvalReply decode_eval_reply(const util::Json& message) {
  expect_type(message, kMsgResult);
  EvalReply reply;
  reply.id = uint_field(message, "id");
  reply.model = string_field(message, "model");
  for (const util::Json& energy : array_field(message, "energies")) {
    if (!energy.is_number()) {
      throw util::ParseError("serve message: energies holds a non-number");
    }
    reply.energies.push_back(energy.as_number());
  }
  if (message.contains("forces")) {
    const util::JsonArray& frames = array_field(message, "forces");
    if (frames.size() != reply.energies.size()) {
      throw util::ValueError("serve message: forces/energies length mismatch");
    }
    reply.forces.reserve(frames.size());
    for (const util::Json& flat : frames) {
      if (!flat.is_array()) {
        throw util::ParseError("serve message: per-frame forces must be an array");
      }
      std::vector<double> frame_forces;
      frame_forces.reserve(flat.as_array().size());
      for (const util::Json& f : flat.as_array()) {
        if (!f.is_number()) {
          throw util::ParseError("serve message: forces holds a non-number");
        }
        frame_forces.push_back(f.as_number());
      }
      if (frame_forces.empty() || frame_forces.size() % 3 != 0) {
        throw util::ValueError(
            "serve message: per-frame forces length must be a positive"
            " multiple of 3");
      }
      reply.forces.push_back(std::move(frame_forces));
    }
  }
  return reply;
}

util::Json encode_error(const ErrorReply& error) {
  return hpc::net::encode_error({error.id, to_string(error.code), error.message});
}

ErrorReply decode_error(const util::Json& message) {
  hpc::net::ErrorEnvelope error = hpc::net::decode_error(message);
  return {error.id, error_code_from_string(error.code), std::move(error.message)};
}

util::Json encode_catalog_request(std::uint64_t id) {
  return tagged(kMsgCatalog, id);
}

util::Json encode_catalog_reply(std::uint64_t id,
                                const std::vector<CatalogModel>& models) {
  util::Json message = tagged(kMsgCatalog, id);
  util::JsonArray rows;
  rows.reserve(models.size());
  for (const CatalogModel& model : models) {
    util::Json row;
    row["id"] = model.id;
    row["rank"] = model.rank;
    row["atoms"] = model.num_atoms;
    row["spec"] = model.spec;
    util::Json objectives;
    for (const auto& [name, value] : model.objectives) objectives[name] = value;
    if (!model.objectives.empty()) row["objectives"] = objectives;
    rows.push_back(std::move(row));
  }
  message["models"] = std::move(rows);
  return message;
}

std::vector<CatalogModel> decode_catalog_reply(const util::Json& message) {
  expect_type(message, kMsgCatalog);
  std::vector<CatalogModel> models;
  for (const util::Json& row : array_field(message, "models")) {
    if (!row.is_object()) {
      throw util::ParseError("serve message: catalog row must be an object");
    }
    CatalogModel model;
    model.id = string_field(row, "id");
    model.rank = static_cast<int>(uint_field(row, "rank"));
    model.num_atoms = static_cast<std::size_t>(uint_field(row, "atoms"));
    model.spec = row.string_or("spec", "");
    if (row.contains("objectives")) {
      if (!row.at("objectives").is_object()) {
        throw util::ParseError("serve message: objectives must be an object");
      }
      for (const auto& [name, value] : row.at("objectives").as_object()) {
        if (!value.is_number()) {
          throw util::ParseError("serve message: objective " + name +
                                 " is not a number");
        }
        model.objectives.emplace_back(name, value.as_number());
      }
    }
    models.push_back(std::move(model));
  }
  return models;
}

}  // namespace dpho::serve
