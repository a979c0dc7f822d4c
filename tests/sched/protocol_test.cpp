// sched protocol codec: round trips are exact (seeds survive as full 64-bit
// values), validation guards every field that becomes a path component or an
// engine parameter, and hostile input -- truncation, bit flips, structural
// garbage -- always surfaces as a typed util error, never a crash or a
// silently out-of-contract decode.
#include "sched/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"

namespace dpho::sched {
namespace {

/// Copy of `json` with one key dropped (util::JsonObject has no erase).
util::Json without(const util::Json& json, const std::string& key) {
  util::Json out;
  for (const auto& [k, v] : json.as_object()) {
    if (k != key) out[k] = v;
  }
  return out;
}

RunSpec sample_spec() {
  RunSpec spec;
  spec.name = "tenant-a_1";
  spec.seed = 0xDEADBEEFCAFEBABEull;  // exercises the full uint64 range
  spec.population_size = 12;
  spec.num_workers = 4;
  spec.total_evaluations = 48;
  spec.weight = 3;
  spec.max_in_flight = 2;
  spec.checkpoint_every = 5;
  spec.include_runtime_objective = true;
  return spec;
}

RunStatus sample_status() {
  RunStatus status;
  status.name = "tenant-a_1";
  status.phase = RunPhase::kActive;
  status.seed = 0xDEADBEEFCAFEBABEull;
  status.completions = 7;
  status.births = 10;
  status.budget = 48;
  status.queued = 1;
  status.outstanding = 2;
  status.now_minutes = 123.5;
  return status;
}

TEST(SchedProtocol, RunSpecRoundTripIsExact) {
  const RunSpec spec = sample_spec();
  // Through the full wire path: encode -> compact dump -> parse -> decode.
  const RunSpec back =
      run_spec_from_json(util::Json::parse(run_spec_to_json(spec).dump()));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.population_size, spec.population_size);
  EXPECT_EQ(back.num_workers, spec.num_workers);
  EXPECT_EQ(back.total_evaluations, spec.total_evaluations);
  EXPECT_EQ(back.weight, spec.weight);
  EXPECT_EQ(back.max_in_flight, spec.max_in_flight);
  EXPECT_EQ(back.checkpoint_every, spec.checkpoint_every);
  EXPECT_TRUE(back.include_runtime_objective);
}

TEST(SchedProtocol, RunSpecOptionalFieldsDefault) {
  util::Json wire = run_spec_to_json(sample_spec());
  wire = without(wire, "weight");
  wire = without(wire, "max_in_flight");
  wire = without(wire, "checkpoint_every");
  const RunSpec back = run_spec_from_json(wire);
  EXPECT_EQ(back.weight, 1u);
  EXPECT_EQ(back.max_in_flight, 0u);
  EXPECT_EQ(back.checkpoint_every, 1u);
}

TEST(SchedProtocol, RunStatusRoundTripIsExact) {
  const RunStatus status = sample_status();
  const RunStatus back =
      run_status_from_json(util::Json::parse(run_status_to_json(status).dump()));
  EXPECT_EQ(back.name, status.name);
  EXPECT_EQ(back.phase, status.phase);
  EXPECT_EQ(back.seed, status.seed);
  EXPECT_EQ(back.completions, status.completions);
  EXPECT_EQ(back.births, status.births);
  EXPECT_EQ(back.budget, status.budget);
  EXPECT_EQ(back.queued, status.queued);
  EXPECT_EQ(back.outstanding, status.outstanding);
  EXPECT_DOUBLE_EQ(back.now_minutes, status.now_minutes);
}

TEST(SchedProtocol, RequestAndReplyRoundTrips) {
  SubmitRequest submit;
  submit.id = 42;
  submit.spec = sample_spec();
  const SubmitRequest submit_back = decode_submit_request(
      util::Json::parse(encode_submit_request(submit).dump()));
  EXPECT_EQ(submit_back.id, 42u);
  EXPECT_EQ(submit_back.spec.name, submit.spec.name);
  EXPECT_EQ(submit_back.spec.seed, submit.spec.seed);

  const StatusRequest status_back = decode_status_request(util::Json::parse(
      encode_status_request(StatusRequest{7, "tenant-a_1", true}).dump()));
  EXPECT_EQ(status_back.id, 7u);
  EXPECT_EQ(status_back.run, "tenant-a_1");
  EXPECT_TRUE(status_back.want_record);

  const CancelRequest cancel_back = decode_cancel_request(
      util::Json::parse(encode_cancel_request(CancelRequest{8, "x"}).dump()));
  EXPECT_EQ(cancel_back.id, 8u);
  EXPECT_EQ(cancel_back.run, "x");

  const ListRequest list_back = decode_list_request(
      util::Json::parse(encode_list_request(ListRequest{9}).dump()));
  EXPECT_EQ(list_back.id, 9u);

  ResultReply result;
  result.id = 7;
  result.body = util::Json();
  result.body["run"] = run_status_to_json(sample_status());
  const ResultReply result_back = decode_result_reply(
      util::Json::parse(encode_result_reply(result).dump()));
  EXPECT_EQ(result_back.id, 7u);
  EXPECT_EQ(run_status_from_json(result_back.body.at("run")).completions, 7u);
}

TEST(SchedProtocol, ErrorRoundTripAndCodeStrings) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownRun, ErrorCode::kDuplicateRun,
        ErrorCode::kTooManyRuns, ErrorCode::kNotFinished, ErrorCode::kInternal}) {
    const ErrorReply error{17, code, "details"};
    const ErrorReply back =
        decode_error(util::Json::parse(encode_error(error).dump()));
    EXPECT_EQ(back.id, 17u);
    EXPECT_EQ(back.code, code);
    EXPECT_EQ(back.message, "details");
    EXPECT_EQ(error_code_from_string(to_string(code)), code);
  }
  EXPECT_THROW(error_code_from_string("nope"), util::ValueError);
}

TEST(SchedProtocol, PhaseStringsRoundTrip) {
  for (const RunPhase phase : {RunPhase::kActive, RunPhase::kDone,
                               RunPhase::kCancelled, RunPhase::kFailed}) {
    EXPECT_EQ(run_phase_from_string(to_string(phase)), phase);
  }
  EXPECT_THROW(run_phase_from_string("paused"), util::ValueError);
}

TEST(SchedProtocol, RunNameValidationGuardsThePathComponent) {
  EXPECT_NO_THROW(validate_run_name("abc-DEF_09"));
  EXPECT_THROW(validate_run_name(""), util::ValueError);
  EXPECT_THROW(validate_run_name(std::string(kMaxRunName + 1, 'a')),
               util::ValueError);
  EXPECT_NO_THROW(validate_run_name(std::string(kMaxRunName, 'a')));
  // Anything that could escape or alias inside state_dir/runs/.
  for (const char* hostile : {"../evil", "a/b", "a.b", "a b", "a\tb", "a\nb",
                              ".", "..", "caf\xc3\xa9"}) {
    EXPECT_THROW(validate_run_name(hostile), util::ValueError) << hostile;
  }
}

TEST(SchedProtocol, RunSpecValidationRejectsOutOfContractValues) {
  auto mutate = [](auto&& fn) {
    RunSpec spec = sample_spec();
    fn(spec);
    return spec;
  };
  EXPECT_NO_THROW(validate_run_spec(sample_spec()));
  EXPECT_THROW(validate_run_spec(mutate([](RunSpec& s) { s.name = "e/vil"; })),
               util::ValueError);
  EXPECT_THROW(
      validate_run_spec(mutate([](RunSpec& s) { s.population_size = 0; })),
      util::ValueError);
  EXPECT_THROW(validate_run_spec(mutate([](RunSpec& s) { s.num_workers = 0; })),
               util::ValueError);
  EXPECT_THROW(validate_run_spec(mutate([](RunSpec& s) { s.weight = 0; })),
               util::ValueError);
  // The budget must cover the initial wave (one birth per worker).
  EXPECT_THROW(validate_run_spec(mutate([](RunSpec& s) {
                 s.total_evaluations = s.num_workers - 1;
               })),
               util::ValueError);
}

TEST(SchedProtocol, DecoderRejectsStructuralGarbage) {
  const util::Json valid =
      encode_submit_request(SubmitRequest{1, sample_spec()});
  EXPECT_THROW(message_type(util::Json::parse("[]")), util::ParseError);
  EXPECT_THROW(message_type(util::Json::parse("{\"x\":1}")), util::ParseError);
  EXPECT_THROW(decode_submit_request(util::Json::parse("{\"t\":\"status\"}")),
               util::ParseError);

  auto mutate = [&](auto&& fn) {
    util::Json copy = valid;
    fn(copy);
    return copy;
  };
  EXPECT_THROW(decode_submit_request(without(valid, "spec")),
               util::ParseError);
  EXPECT_THROW(decode_submit_request(mutate([](util::Json& m) {
                 m["spec"]["seed"] = "xyzt";  // not hex
               })),
               util::ParseError);
  EXPECT_THROW(decode_submit_request(mutate([](util::Json& m) {
                 m["spec"]["name"] = "../evil";
               })),
               util::ValueError);
  EXPECT_THROW(decode_submit_request(mutate([](util::Json& m) {
                 m["spec"]["population_size"] = -4.0;
               })),
               util::ValueError);
  EXPECT_THROW(decode_submit_request(mutate([](util::Json& m) {
                 m["id"] = -1.0;
               })),
               util::ValueError);
  // Ids and counts must be wire-exact integers: casting 1e30 is undefined.
  for (const double bad : {1e30, 0x1p53, 2.5}) {
    EXPECT_THROW(decode_submit_request(mutate([&](util::Json& m) { m["id"] = bad; })),
                 util::ValueError);
    EXPECT_THROW(decode_submit_request(mutate([&](util::Json& m) {
                   m["spec"]["population_size"] = bad;
                 })),
                 util::ValueError);
  }
  // A failed status must carry its error; an active one must not need it.
  util::Json failed = run_status_to_json(sample_status());
  failed["phase"] = to_string(RunPhase::kFailed);
  failed = without(failed, "error");
  EXPECT_THROW(run_status_from_json(failed), util::ValueError);
  util::Json negative_clock = run_status_to_json(sample_status());
  negative_clock["now_minutes"] = -1.0;
  EXPECT_THROW(run_status_from_json(negative_clock), util::ValueError);
}

TEST(SchedProtocol, FuzzTruncationNeverCrashes) {
  const std::string wire =
      encode_submit_request(SubmitRequest{1, sample_spec()}).dump();
  std::size_t rejected = 0;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    try {
      decode_submit_request(util::Json::parse(wire.substr(0, cut)));
      // A strict prefix of a JSON document never parses as a complete one.
      ADD_FAILURE() << "truncation at " << cut << " decoded successfully";
    } catch (const util::Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, wire.size());
}

TEST(SchedProtocol, FuzzBitFlipsAreRejectedOrStayInContract) {
  const std::string wire =
      encode_submit_request(SubmitRequest{1, sample_spec()}).dump();
  std::size_t rejected = 0;
  std::size_t survived = 0;
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (const int bit : {0, 3, 6}) {
      std::string mutated = wire;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      try {
        const SubmitRequest request =
            decode_submit_request(util::Json::parse(mutated));
        // A flip can land in a digit or name character and stay legal; the
        // decoder's invariants must hold on anything it accepts.
        EXPECT_NO_THROW(validate_run_spec(request.spec));
        ++survived;
      } catch (const util::Error&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  // Sanity: the loop exercised every byte.
  EXPECT_EQ(rejected + survived, wire.size() * 3);
}

TEST(SchedProtocol, ReplyFuzzTruncationNeverCrashes) {
  ResultReply reply;
  reply.id = 5;
  reply.body = util::Json();
  reply.body["run"] = run_status_to_json(sample_status());
  const std::string wire = encode_result_reply(reply).dump();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_THROW(decode_result_reply(util::Json::parse(wire.substr(0, cut))),
                 util::Error);
  }
  const std::string error_wire =
      encode_error(ErrorReply{3, ErrorCode::kUnknownRun, "gone"}).dump();
  for (std::size_t cut = 0; cut < error_wire.size(); ++cut) {
    EXPECT_THROW(decode_error(util::Json::parse(error_wire.substr(0, cut))),
                 util::Error);
  }
}

}  // namespace
}  // namespace dpho::sched
