// SAX parameter selection (Section 4): per-class search for the
// (window, paa, alphabet) triple maximizing the class's F-measure under
// repeated train/validation splits with an inner cross-validation
// (Algorithm 3). Two engines: exhaustive grid (Section 4.1) and DIRECT
// (Section 4.2, the paper's default), both sharing one memo of combo
// evaluations — one evaluation yields every class's F-measure at once.

#ifndef RPM_CORE_PARAMETER_SELECTION_H_
#define RPM_CORE_PARAMETER_SELECTION_H_

#include <map>

#include "core/options.h"
#include "sax/sax.h"
#include "ts/series.h"

namespace rpm::core {

/// Integer search box for the three SAX dimensions.
struct SaxParamRange {
  int window_lo = 8;
  int window_hi = 60;
  int paa_lo = 2;
  int paa_hi = 9;
  int alphabet_lo = 3;
  int alphabet_hi = 9;
};

/// Range scaled to the dataset: window spans roughly 1/8 to 3/5 of the
/// shortest training instance.
SaxParamRange DefaultRange(const ts::Dataset& train);

/// Result of the search: per-class SAX options plus the number of distinct
/// combinations evaluated (R in Section 5.3).
struct ParameterSelectionResult {
  std::map<int, sax::SaxOptions> sax_by_class;
  std::size_t combos_evaluated = 0;
};

/// Average per-class F-measure of one combo over `options.param_splits`
/// stratified splits (Algorithm 3 inner loop). An empty candidate pool
/// scores 0 for every class (the pruning rule of Section 4.1).
std::map<int, double> EvaluateSaxCombo(const ts::Dataset& train,
                                       const sax::SaxOptions& sax,
                                       const RpmOptions& options);

/// Algorithm 3 with the engine picked by `options.search` (kFixed returns
/// `options.fixed_sax` for every class without evaluating anything).
ParameterSelectionResult SelectSaxParameters(const ts::Dataset& train,
                                             const RpmOptions& options);

}  // namespace rpm::core

#endif  // RPM_CORE_PARAMETER_SELECTION_H_
