#include "dp/archive.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

#include "frame_harness.hpp"

namespace dpho::dp {
namespace {

using test_harness::random_frame;
using test_harness::random_types;
using test_harness::small_config;

DeepPotModel tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  return DeepPotModel(ModelSpec::from_train_input(small_config(nn::Activation::kTanh)),
                      random_types(rng, 8), -1.5, seed);
}

ModelArchive three_model_archive(const std::filesystem::path& dir) {
  ModelArchive archive = ModelArchive::create(dir);
  archive.add("m0", tiny_model(1), {{"rmse_e_val", 0.01}, {"rmse_f_val", 0.30}}, 0);
  archive.add("m1", tiny_model(2), {{"rmse_e_val", 0.02}, {"rmse_f_val", 0.10}}, 0);
  archive.add("m2", tiny_model(3), {{"rmse_e_val", 0.05}, {"rmse_f_val", 0.50}}, 1);
  return archive;
}

TEST(ModelArchive, CreateAddOpenRoundTrip) {
  util::TempDir dir;
  three_model_archive(dir.path() / "archive");
  const ModelArchive archive = ModelArchive::open(dir.path() / "archive");
  ASSERT_EQ(archive.size(), 3u);
  EXPECT_EQ(archive.entry(0).id, "m0");
  EXPECT_EQ(archive.entry(1).id, "m1");
  EXPECT_EQ(archive.at("m2").rank, 1);
  EXPECT_DOUBLE_EQ(archive.at("m1").objective("rmse_f_val"), 0.10);
  EXPECT_EQ(archive.at("m0").num_atoms, 8u);
  EXPECT_EQ(archive.at("m0").spec.descriptor.neuron,
            (std::vector<std::size_t>{4, 6}));
}

TEST(ModelArchive, LoadedPotentialMatchesOriginalModel) {
  util::TempDir dir;
  DeepPotModel model = tiny_model(7);
  util::Rng rng(8);
  const md::Frame frame = random_frame(rng);
  const md::ForceEnergy direct = Potential::borrow(model).evaluate(frame);
  {
    ModelArchive archive = ModelArchive::create(dir.path() / "archive");
    archive.add("best", model, {{"rmse_f_val", 0.2}});
  }
  const ModelArchive archive = ModelArchive::open(dir.path() / "archive");
  const md::ForceEnergy via = archive.load("best").evaluate(frame);
  EXPECT_EQ(via.energy, direct.energy);
  for (std::size_t i = 0; i < via.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_EQ(via.forces[i][k], direct.forces[i][k]);
  }
}

TEST(ModelArchive, SelectorForms) {
  util::TempDir dir;
  const ModelArchive archive = three_model_archive(dir.path() / "a");
  EXPECT_EQ(archive.select("all"), (std::vector<std::string>{"m0", "m1", "m2"}));
  EXPECT_EQ(archive.select("rank=0"), (std::vector<std::string>{"m0", "m1"}));
  EXPECT_EQ(archive.select("rmse_f_val<=0.3"),
            (std::vector<std::string>{"m0", "m1"}));
  EXPECT_EQ(archive.select("rmse_f_val<0.3"), (std::vector<std::string>{"m1"}));
  EXPECT_EQ(archive.select("rmse_e_val>=0.02"),
            (std::vector<std::string>{"m1", "m2"}));
  EXPECT_EQ(archive.select("0,2"), (std::vector<std::string>{"m0", "m2"}));
  EXPECT_EQ(archive.select("m1,0"), (std::vector<std::string>{"m1", "m0"}));
}

TEST(ModelArchive, SelectorErrors) {
  util::TempDir dir;
  const ModelArchive archive = three_model_archive(dir.path() / "a");
  EXPECT_THROW(archive.select("rmse_f_val<0.01"), util::ValueError);  // empty
  EXPECT_THROW(archive.select("nope"), util::ValueError);             // unknown id
  EXPECT_THROW(archive.select("9"), util::ValueError);                // bad index
  EXPECT_THROW(archive.select("unknown_obj<1"), util::ValueError);
  EXPECT_THROW(archive.select("rmse_f_val<abc"), util::ValueError);
}

TEST(ModelArchive, RejectsDuplicateAndInvalidIds) {
  util::TempDir dir;
  ModelArchive archive = ModelArchive::create(dir.path() / "a");
  archive.add("m0", tiny_model(1), {});
  EXPECT_THROW(archive.add("m0", tiny_model(2), {}), util::ValueError);
  EXPECT_THROW(archive.add("bad/../id", tiny_model(2), {}), util::ValueError);
  EXPECT_THROW(archive.add("", tiny_model(2), {}), util::ValueError);
}

TEST(ModelArchive, OpenRejectsMissingOrMalformedCatalog) {
  util::TempDir dir;
  EXPECT_THROW(ModelArchive::open(dir.path() / "missing"), util::IoError);
  util::write_file(dir.path() / "bad" / "archive.json", "{\"schema\": \"nope\"}");
  EXPECT_THROW(ModelArchive::open(dir.path() / "bad"), util::ValueError);
  util::write_file(dir.path() / "torn" / "archive.json", "{\"schema\": ");
  EXPECT_THROW(ModelArchive::open(dir.path() / "torn"), util::ParseError);
}

TEST(ModelArchive, CreateRefusesExistingCatalog) {
  util::TempDir dir;
  ModelArchive::create(dir.path() / "a");
  EXPECT_THROW(ModelArchive::create(dir.path() / "a"), util::ValueError);
}

TEST(ModelArchive, UnknownModelLoadThrows) {
  util::TempDir dir;
  const ModelArchive archive = three_model_archive(dir.path() / "a");
  EXPECT_THROW(archive.load("ghost"), util::ValueError);
}

}  // namespace
}  // namespace dpho::dp
