// Symbolic Aggregate approXimation (Lin et al. 2007), the discretization
// substrate of RPM's Step 1 (Section 3.2.1), SAX-VSM and Fast Shapelets:
// PAA dimensionality reduction followed by symbol mapping against
// equiprobable Gaussian breakpoints, applied over a sliding window with
// numerosity reduction. DiscretizeSlidingWindow is the one sliding-window
// discretizer: candidate mining (in parameter selection and in the final
// training) and the SAX-VSM and bag-of-patterns baselines all call it.

#ifndef RPM_SAX_SAX_H_
#define RPM_SAX_SAX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "ts/series.h"

namespace rpm::sax {

/// Minimum / maximum supported alphabet size.
inline constexpr int kMinAlphabet = 2;
inline constexpr int kMaxAlphabet = 26;

/// The alphabet-1 breakpoints dividing N(0,1) into `alphabet` equiprobable
/// regions. Throws std::invalid_argument outside [kMinAlphabet, kMaxAlphabet].
const std::vector<double>& GaussianBreakpoints(int alphabet);

/// Piecewise Aggregate Approximation of `points`-long inputs to
/// `segments` values: the mean of `segments` equal-width chunks. Lengths
/// not divisible by `segments` get fractional (weighted) chunk
/// boundaries, so every input point contributes; with `segments >=
/// points` each output takes the covering input point instead.
///
/// The plan holds each segment's covering points and overlap weights,
/// built once per shape and then applied to any number of windows.
/// Apply gives each segment the additions of the direct fractional loop
/// (every point adds `value * overlap` to each segment it covers, in
/// point order) in the same order, so a segment's sum, its weight and
/// their quotient are the same bits; `Paa`, `SaxWord` and
/// `DiscretizeSlidingWindow` all reduce through it.
class PaaPlan {
 public:
  PaaPlan(std::size_t points, std::size_t segments);

  std::size_t points() const { return points_; }
  std::size_t segments() const { return segments_; }

  /// Writes the PAA of `values[0, points())` to `out[0, segments())`.
  void Apply(const double* values, double* out) const;

 private:
  struct Term {
    std::size_t point = 0;
    double overlap = 0.0;
  };

  std::size_t points_ = 0;
  std::size_t segments_ = 0;
  bool upsample_ = false;               // segments >= points: copy points
  std::vector<std::size_t> begin_;      // segment s: terms_[begin_[s], begin_[s+1])
  std::vector<Term> terms_;             // covering points, ascending per segment
  std::vector<double> weight_;          // per segment: summed overlap
};

/// PAA of one series through a PaaPlan; a zero vector when `values` is
/// empty.
ts::Series Paa(ts::SeriesView values, std::size_t segments);

/// Maps one value to its SAX symbol ('a' + region index).
char Symbol(double value, int alphabet);

/// Discretizes an (already z-normalized) subsequence to a `paa_size`-letter
/// SAX word over `alphabet` symbols.
std::string SaxWord(ts::SeriesView znormed, std::size_t paa_size,
                    int alphabet);

/// One sliding-window token: the SAX word plus the window's start offset
/// in the source series (the paper keeps offsets through grammar
/// induction to map rules back to raw subsequences).
struct SaxRecord {
  std::string word;
  std::size_t offset = 0;

  bool operator==(const SaxRecord&) const = default;
};

/// Discretization parameters (the SAXParams vector of Algorithm 1/3).
struct SaxOptions {
  std::size_t window = 30;   ///< sliding window length (points)
  std::size_t paa_size = 6;  ///< number of PAA segments per window
  int alphabet = 4;          ///< SAX alphabet size
  /// Record only the first of consecutive identical words (Section 3.2.1);
  /// this is what enables variable-length patterns downstream.
  bool numerosity_reduction = true;
  /// Z-normalize each window before discretization (standard SAX).
  bool znormalize = true;
};

/// Extracts every window of `options.window` points from `series`,
/// discretizes each, and applies numerosity reduction. Returns an empty
/// vector when the series is shorter than the window.
///
/// One window at a time into buffers made once per call (the window,
/// its PAA, the word), so memory stays O(window) beyond the records and
/// no window allocates.
std::vector<SaxRecord> DiscretizeSlidingWindow(ts::SeriesView series,
                                               const SaxOptions& options);

/// Classic SAX MINDIST lower bound between two equal-length words, scaled
/// for original subsequence length `n` (the words must come from the same
/// paa_size/alphabet). Used by the Fast Shapelets baseline.
double MinDist(const std::string& a, const std::string& b, int alphabet,
               std::size_t n);

}  // namespace rpm::sax

#endif  // RPM_SAX_SAX_H_
