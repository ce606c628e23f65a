// Unit tests for the time-series core: Dataset, z-normalization,
// resampling, rotation, and UCR IO.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "ts/resample.h"
#include "ts/rng.h"
#include "ts/rotation.h"
#include "ts/series.h"
#include "ts/ucr_io.h"
#include "ts/znorm.h"

namespace rpm::ts {
namespace {

TEST(Dataset, ClassAccessors) {
  Dataset d;
  d.Add(2, {1.0, 2.0});
  d.Add(1, {3.0, 4.0, 5.0});
  d.Add(2, {6.0});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.ClassLabels(), (std::vector<int>{1, 2}));
  EXPECT_EQ(d.NumClasses(), 2u);
  EXPECT_EQ(d.CountOfClass(2), 2u);
  EXPECT_EQ(d.IndicesOfClass(2), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(d.InstancesOfClass(1).size(), 1u);
  EXPECT_EQ(d.MaxLength(), 3u);
  EXPECT_EQ(d.MinLength(), 1u);
  const auto hist = d.ClassHistogram();
  EXPECT_EQ(hist.at(1), 1u);
  EXPECT_EQ(hist.at(2), 2u);
}

TEST(Dataset, EmptyDataset) {
  Dataset d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.MaxLength(), 0u);
  EXPECT_EQ(d.MinLength(), 0u);
  EXPECT_TRUE(d.ClassLabels().empty());
}

TEST(ZNorm, MeanAndStdDev) {
  const Series s = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(s), 2.5);
  EXPECT_NEAR(StdDev(s), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(Mean(Series{}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev(Series{}), 0.0);
}

TEST(ZNorm, NormalizesToZeroMeanUnitVariance) {
  Series s = {3.0, 7.0, 1.0, 9.0, 5.0};
  ZNormalizeInPlace(s);
  EXPECT_NEAR(Mean(s), 0.0, 1e-12);
  EXPECT_NEAR(StdDev(s), 1.0, 1e-12);
}

TEST(ZNorm, FlatSeriesIsOnlyCentered) {
  Series s = {4.0, 4.0, 4.0};
  ZNormalizeInPlace(s);
  for (double v : s) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ZNorm, DatasetNormalization) {
  Dataset d;
  d.Add(1, {0.0, 10.0, 20.0});
  d.Add(2, {5.0, 5.0, 5.0});
  ZNormalizeDataset(d);
  EXPECT_NEAR(Mean(d[0].values), 0.0, 1e-12);
  EXPECT_NEAR(StdDev(d[0].values), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(d[1].values[0], 0.0);
}

TEST(Resample, IdentityWhenSameLength) {
  const Series s = {1.0, 2.0, 3.0, 4.0};
  const Series r = ResampleLinear(s, 4);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(r[i], s[i], 1e-12);
}

TEST(Resample, EndpointsPreserved) {
  const Series s = {2.0, -1.0, 5.0, 0.5, 3.0};
  for (std::size_t target : {2u, 3u, 7u, 19u}) {
    const Series r = ResampleLinear(s, target);
    ASSERT_EQ(r.size(), target);
    EXPECT_NEAR(r.front(), s.front(), 1e-12);
    EXPECT_NEAR(r.back(), s.back(), 1e-12);
  }
}

TEST(Resample, LinearRampStaysLinear) {
  Series ramp(10);
  for (std::size_t i = 0; i < 10; ++i) ramp[i] = static_cast<double>(i);
  const Series r = ResampleLinear(ramp, 19);
  for (std::size_t i = 0; i < 19; ++i) {
    EXPECT_NEAR(r[i], static_cast<double>(i) * 9.0 / 18.0, 1e-9);
  }
}

TEST(Resample, DegenerateInputs) {
  EXPECT_EQ(ResampleLinear(Series{}, 5), Series(5, 0.0));
  EXPECT_EQ(ResampleLinear(Series{3.0}, 4), Series(4, 3.0));
  EXPECT_TRUE(ResampleLinear(Series{1.0, 2.0}, 0).empty());
  const Series one = ResampleLinear(Series{1.0, 2.0, 3.0}, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 1.0);
}

TEST(Rotation, RotateAtSwapsHalves) {
  const Series s = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(RotateAt(s, 2), (Series{3.0, 4.0, 5.0, 1.0, 2.0}));
  EXPECT_EQ(RotateAt(s, 0), s);
  EXPECT_EQ(RotateAt(s, 5), s);  // modulo wrap
  EXPECT_EQ(RotateAt(s, 7), RotateAt(s, 2));
}

TEST(Rotation, MidpointRotationIsInvolutionForEvenLength) {
  const Series s = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(RotateAtMidpoint(RotateAtMidpoint(s)), s);
}

TEST(Rotation, RandomRotatePreservesMultisetAndLabels) {
  Dataset d;
  d.Add(1, {1.0, 2.0, 3.0, 4.0});
  d.Add(2, {9.0, 8.0, 7.0});
  Rng rng(5);
  const Dataset rotated = RandomlyRotate(d, rng);
  ASSERT_EQ(rotated.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rotated[i].label, d[i].label);
    Series a = d[i].values;
    Series b = rotated[i].values;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(UcrIo, ParseBasic) {
  const Dataset d = ParseUcr("1,0.5,1.5,2.5\n2 1.0 2.0 3.0\n");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].label, 1);
  EXPECT_EQ(d[0].values, (Series{0.5, 1.5, 2.5}));
  EXPECT_EQ(d[1].label, 2);
}

TEST(UcrIo, ParseScientificLabels) {
  const Dataset d = ParseUcr("1.0000000e+00,2.0,3.0\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].label, 1);
}

TEST(UcrIo, MixedSeparatorsAndCrlf) {
  // Real archive files mix commas, spaces, and tabs — sometimes within
  // one line — and Windows-edited copies carry CRLF endings. All of it
  // must parse to the same instances.
  const Dataset d =
      ParseUcr("1,0.5 1.5\t2.5\r\n2\t1.0,2.0 3.0\r\n-1 ,4.0,\t5.0, 6.0\n");
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].label, 1);
  EXPECT_EQ(d[0].values, (Series{0.5, 1.5, 2.5}));
  EXPECT_EQ(d[1].label, 2);
  EXPECT_EQ(d[1].values, (Series{1.0, 2.0, 3.0}));
  EXPECT_EQ(d[2].label, -1);
  EXPECT_EQ(d[2].values, (Series{4.0, 5.0, 6.0}));
  // Float labels round to nearest (the documented contract), including
  // when negative.
  EXPECT_EQ(ParseUcr("-1.2e0,1.0\n")[0].label, -1);
  EXPECT_EQ(ParseUcr("2.7,1.0\n")[0].label, 3);
}

TEST(UcrIo, SkipsBlankLinesAndRejectsGarbage) {
  const Dataset d = ParseUcr("\n1,2,3\n\n");
  EXPECT_EQ(d.size(), 1u);
  EXPECT_THROW(ParseUcr("1,abc,3\n"), UcrFormatError);
  EXPECT_THROW(ParseUcr("1\n"), UcrFormatError);
}

// The non-finite contract (docs/DATASETS.md): every loaded value is
// finite and every label an int32. Returns ParseUcr's error message, or
// "" when the text loads.
std::string UcrError(const std::string& text) {
  try {
    ParseUcr(text);
  } catch (const UcrFormatError& e) {
    return e.what();
  }
  return "";
}

TEST(UcrIo, TrailingNanPaddingIsTrimmed) {
  // UCR-2018 pads variable-length series with NaN fields.
  const Dataset d = ParseUcr("1,0.5,0.7,NaN,NaN\n2,1.0,2.0,3.0\n");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].values, (Series{0.5, 0.7}));
  EXPECT_EQ(d[1].values, (Series{1.0, 2.0, 3.0}));
  // Any spelling strtod reads as NaN, after any separators.
  EXPECT_EQ(ParseUcr("3 1.5 nan\t-nan, NAN\r\n")[0].values, (Series{1.5}));
}

TEST(UcrIo, AllNanValuesLineIsRejected) {
  const std::string what = UcrError("1,2\n4,NaN,NaN\n");
  EXPECT_NE(what.find("line 2: expected a label plus at least one value"),
            std::string::npos)
      << what;
}

TEST(UcrIo, InteriorNonFiniteValuesAreRejected) {
  // Fields are numbered from 1, the label being field 1.
  std::string what = UcrError("1,nan,2,3\n");
  EXPECT_NE(what.find("line 1, field 2"), std::string::npos) << what;
  // Trailing padding does not excuse a NaN before it.
  what = UcrError("1,2,3\n2,0.5,NaN,0.7,NaN\n");
  EXPECT_NE(what.find("line 2, field 3"), std::string::npos) << what;
  // Infinities anywhere, including strtod's overflow of 1e999.
  EXPECT_NE(UcrError("1,2,inf\n").find("line 1, field 3"), std::string::npos);
  EXPECT_NE(UcrError("1,-inf,2\n").find("line 1, field 2"), std::string::npos);
  EXPECT_NE(UcrError("1,2,1e999,3\n").find("line 1, field 3"),
            std::string::npos);
  EXPECT_NE(UcrError("1,2,3,1e999\n").find("line 1, field 4"),
            std::string::npos);
}

TEST(UcrIo, LabelsMustBeFiniteInt32AfterRounding) {
  EXPECT_NE(UcrError("nan,1,2\n").find("line 1: label"), std::string::npos);
  EXPECT_NE(UcrError("1,2\n-inf,1,2\n").find("line 2: label"),
            std::string::npos);
  EXPECT_NE(UcrError("1e12,1,2\n").find("line 1: label"), std::string::npos);
  EXPECT_NE(UcrError("1e999,1\n").find("line 1: label"), std::string::npos);
  // Just past either end of int32 once rounded (halves away from zero).
  EXPECT_NE(UcrError("2147483647.5,1\n").find("line 1: label"),
            std::string::npos);
  EXPECT_NE(UcrError("-2147483648.5,1\n").find("line 1: label"),
            std::string::npos);
  // The extremes themselves load.
  EXPECT_EQ(ParseUcr("2147483647,1\n")[0].label, 2147483647);
  EXPECT_EQ(ParseUcr("-2147483648.4,1\n")[0].label,
            std::numeric_limits<int>::min());
}

TEST(UcrIo, RoundTripThroughFile) {
  Dataset d;
  d.Add(3, {1.25, -2.5, 0.0});
  d.Add(1, {4.0, 5.0, 6.0});
  const std::string path =
      (std::filesystem::temp_directory_path() / "rpm_ucr_io_test.csv")
          .string();
  SaveUcrFile(d, path);
  const Dataset back = LoadUcrFile(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back[i].label, d[i].label);
    ASSERT_EQ(back[i].values.size(), d[i].values.size());
    for (std::size_t j = 0; j < d[i].values.size(); ++j) {
      EXPECT_NEAR(back[i].values[j], d[i].values[j], 1e-9);
    }
  }
}

TEST(UcrIo, LoadMissingFileThrows) {
  EXPECT_THROW(LoadUcrFile("/nonexistent/rpm_test_file.csv"),
               UcrFormatError);
}

TEST(Rng, DeterministicAndForkIndependent) {
  Rng a(11);
  Rng b(11);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
  Rng parent(3);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Uniform(), child.Uniform());
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(1);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(2, 4);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 4);
    saw_lo |= (v == 2);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace rpm::ts
