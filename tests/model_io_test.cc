// Tests for the hardened model persistence path: Save/Load round-trips
// preserve predictions exactly, v1 files written by earlier builds keep
// loading, and truncated, corrupt, or version-mismatched model files
// fail with descriptive runtime_errors instead of undefined reads or
// giant allocations.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/rpm.h"
#include "ts/generators.h"

namespace rpm {
namespace {

const core::RpmClassifier& TrainedModel() {
  static const core::RpmClassifier* model = [] {
    core::RpmOptions options;
    options.search = core::ParameterSearch::kFixed;
    options.fixed_sax.window = 30;
    options.fixed_sax.paa_size = 4;
    options.fixed_sax.alphabet = 4;
    auto* clf = new core::RpmClassifier(options);
    clf->Train(ts::MakeGunPoint(10, 4, 120, 7).train);
    return clf;
  }();
  return *model;
}

std::string SavedText() {
  std::ostringstream out;
  TrainedModel().Save(out);
  return out.str();
}

// Load must throw a runtime_error whose message contains `expect`.
void ExpectLoadFails(const std::string& text, const std::string& expect) {
  std::istringstream in(text);
  try {
    core::RpmClassifier::Load(in);
    FAIL() << "Load succeeded on malformed input (wanted '" << expect
           << "')";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ModelIo, RoundTripPreservesPredictionsAndMetadata) {
  const ts::DatasetSplit split = ts::MakeGunPoint(10, 10, 120, 7);
  std::stringstream buffer;
  TrainedModel().Save(buffer);
  const core::RpmClassifier loaded = core::RpmClassifier::Load(buffer);

  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.patterns().size(), TrainedModel().patterns().size());
  EXPECT_EQ(loaded.sax_by_class().size(),
            TrainedModel().sax_by_class().size());
  EXPECT_EQ(loaded.ClassifyAll(split.test),
            TrainedModel().ClassifyAll(split.test));
}

TEST(ModelIo, FileRoundTripThroughSaveToFile) {
  const std::string path = testing::TempDir() + "model_io_roundtrip.rpm";
  TrainedModel().SaveToFile(path);
  const core::RpmClassifier loaded =
      core::RpmClassifier::LoadFromFile(path);
  const ts::DatasetSplit split = ts::MakeGunPoint(10, 10, 120, 7);
  EXPECT_EQ(loaded.ClassifyAll(split.test),
            TrainedModel().ClassifyAll(split.test));
}

// tests/data/model_v1_cbf.rpm: a v1 model written by an earlier build
// (the last one with an approximate-matching mode), trained as
// FixtureSplit / FixtureOptions below. kFixturePredictions are that
// build's predictions on the fixture's test split, two of them wrong.
ts::DatasetSplit FixtureSplit() { return ts::MakeCbf(10, 10, 128, 778); }

core::RpmOptions FixtureOptions() {
  core::RpmOptions options;
  options.search = core::ParameterSearch::kFixed;
  options.fixed_sax.window = 32;
  options.fixed_sax.paa_size = 5;
  options.fixed_sax.alphabet = 4;
  return options;
}

constexpr char kFixturePredictions[] = "111311113122222222223333333333";

std::string FixtureText() {
  const std::string path =
      std::string(RPM_TEST_DATA_DIR) + "/model_v1_cbf.rpm";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ModelIo, EarlierBuildModelLoadsAndPredictsIdentically) {
  std::istringstream in(FixtureText());
  const core::RpmClassifier loaded = core::RpmClassifier::Load(in);
  std::string predicted;
  for (const int label : loaded.ClassifyAll(FixtureSplit().test)) {
    predicted += std::to_string(label);
  }
  EXPECT_EQ(predicted, kFixturePredictions);
}

TEST(ModelIo, ExactModelSavesTheSameV1Bytes) {
  // The approximate-matching slots of the flags line stay "0 10", so an
  // exact model trained today serializes byte for byte as before.
  core::RpmClassifier clf(FixtureOptions());
  clf.Train(FixtureSplit().train);
  std::ostringstream out;
  clf.Save(out);
  EXPECT_EQ(out.str(), FixtureText());
  EXPECT_NE(out.str().find("\nflags 0 0 10 "), std::string::npos);
}

TEST(ModelIo, ApproximateModelIsRefused) {
  // A model trained with approximate matching must not be served with
  // exact matching instead: its features would silently change.
  std::string text = FixtureText();
  const std::size_t pos = text.find("\nflags 0 0 10 ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 14, "\nflags 0 1 10 ");
  ExpectLoadFails(text, "flags field 'approximate' is 1");
}

TEST(ModelIo, EmptyStreamFails) {
  ExpectLoadFails("", "empty or unreadable");
}

TEST(ModelIo, BadMagicFails) {
  ExpectLoadFails("NOT-A-MODEL v1\nwhatever", "bad magic");
}

TEST(ModelIo, WrongFormatVersionFails) {
  std::string text = SavedText();
  const std::size_t pos = text.find("v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "v9");
  ExpectLoadFails(text, "unsupported model format version 'v9'");
}

TEST(ModelIo, TruncationAtEverySectionFails) {
  const std::string text = SavedText();
  // Cutting the file at any fraction must throw, never crash or return a
  // half-initialized model.
  for (const double fraction : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const std::string truncated =
        text.substr(0, std::size_t(double(text.size()) * fraction));
    std::istringstream in(truncated);
    EXPECT_THROW(core::RpmClassifier::Load(in), std::runtime_error)
        << "fraction " << fraction;
  }
}

TEST(ModelIo, CorruptPatternCountFails) {
  std::string text = SavedText();
  const std::size_t pos = text.find("patterns ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = text.find('\n', pos);
  text.replace(pos, end - pos, "patterns 99999999999");
  ExpectLoadFails(text, "corrupt pattern count");
}

TEST(ModelIo, CorruptPatternLengthFails) {
  // Rebuild the patterns section with a huge per-pattern length; Load
  // must reject it before attempting the allocation.
  std::string text = SavedText();
  const std::size_t pos = text.find("patterns ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t line_end = text.find('\n', pos);
  ASSERT_NE(line_end, std::string::npos);
  // Header says >= 1 pattern; replace the first pattern line's length
  // field (third token) with a bogus value.
  const std::size_t p0 = line_end + 1;
  std::istringstream first_line(text.substr(p0, text.find('\n', p0) - p0));
  std::string label;
  std::string freq;
  std::string len;
  ASSERT_TRUE(first_line >> label >> freq >> len);
  const std::string prefix = label + " " + freq + " ";
  ASSERT_EQ(text.compare(p0, prefix.size(), prefix), 0);
  text.replace(p0 + prefix.size(), len.size(), "88888888888888");
  ExpectLoadFails(text, "corrupt pattern length");
}

TEST(ModelIo, GarbageSaxSectionFails) {
  std::string text = SavedText();
  const std::size_t pos = text.find("sax ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = text.find('\n', pos);
  text.replace(pos, end - pos, "sax banana");
  ExpectLoadFails(text, "bad sax header");
}

TEST(ModelIo, MissingFileFailsWithPath) {
  try {
    core::RpmClassifier::LoadFromFile("/no/such/model.rpm");
    FAIL() << "LoadFromFile succeeded on a missing file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/model.rpm"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rpm
