// Extension comparison bench (beyond the paper's tables; see DESIGN.md):
//   A. final classifier over the pattern features: SVM vs k-NN vs NB
//   B. Sequitur vs Re-Pair grammar backends (accuracy + candidates)
//   C. Shapelet Transform vs RPM (the closest related-work method),
//      C2. the original shapelet tree (Ye & Keogh) vs Fast Shapelets
//   D. multi-class medical alarm-type classification
//   E. BOP vs SAX-VSM (tf*idf ablation)
//   F. rule-density discords vs HOT SAX

#include <chrono>
#include <cstdio>

#include "baselines/bag_of_patterns.h"
#include "baselines/shapelet_transform.h"
#include "baselines/shapelet_tree.h"
#include "core/rpm.h"
#include "grammar/hotsax.h"
#include "grammar/inspect.h"
#include "harness.h"
#include "sax/sax.h"
#include "ts/generators.h"
#include "ts/rng.h"

namespace {

double Seconds(const std::chrono::steady_clock::time_point& a,
               const std::chrono::steady_clock::time_point& b) {
  return std::chrono::duration<double>(b - a).count();
}

rpm::core::RpmOptions Fixed(std::size_t window) {
  rpm::core::RpmOptions opt;
  opt.search = rpm::core::ParameterSearch::kFixed;
  opt.fixed_sax.window = window;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  return opt;
}

}  // namespace

int main() {
  using namespace rpm;
  const ts::DatasetSplit gun = ts::MakeGunPoint(12, 40, 150, 777);
  const ts::DatasetSplit cbf = ts::MakeCbf(10, 30, 128, 778);

  std::printf("A. Final classifier over pattern features (GunPoint/CBF)\n");
  for (const auto* split : {&gun, &cbf}) {
    for (auto [kind, name] :
         {std::pair{ml::FeatureClassifierKind::kSvm, "SVM"},
          std::pair{ml::FeatureClassifierKind::kKnn, "1-NN"},
          std::pair{ml::FeatureClassifierKind::kNaiveBayes, "NB"}}) {
      core::RpmOptions opt = Fixed(split->train.MinLength() / 4);
      opt.final_classifier = kind;
      core::RpmClassifier clf(opt);
      clf.Train(split->train);
      std::printf("  %-14s %-5s err=%.4f\n", split->name.c_str(), name,
                  clf.Evaluate(split->test));
    }
  }

  std::printf("\nB. Grammar backend: Sequitur vs Re-Pair\n");
  for (const auto* split : {&gun, &cbf}) {
    for (auto [gi, name] :
         {std::pair{grammar::GiAlgorithm::kSequitur, "Sequitur"},
          std::pair{grammar::GiAlgorithm::kRePair, "Re-Pair"}}) {
      core::RpmOptions opt = Fixed(split->train.MinLength() / 4);
      opt.gi_algorithm = gi;
      const auto t0 = std::chrono::steady_clock::now();
      core::RpmClassifier clf(opt);
      clf.Train(split->train);
      const double err = clf.Evaluate(split->test);
      const auto t1 = std::chrono::steady_clock::now();
      std::printf("  %-14s %-9s err=%.4f k=%zu t=%.3fs\n",
                  split->name.c_str(), name, err, clf.patterns().size(),
                  Seconds(t0, t1));
    }
  }

  std::printf("\nC. Shapelet Transform vs RPM\n");
  for (const auto* split : {&gun, &cbf}) {
    baselines::ShapeletTransform st;
    const auto t0 = std::chrono::steady_clock::now();
    st.Train(split->train);
    const double st_err = st.Evaluate(split->test);
    const auto t1 = std::chrono::steady_clock::now();
    core::RpmClassifier clf(Fixed(split->train.MinLength() / 4));
    clf.Train(split->train);
    const double rpm_err = clf.Evaluate(split->test);
    const auto t2 = std::chrono::steady_clock::now();
    std::printf("  %-14s ST  err=%.4f t=%.3fs | RPM err=%.4f t=%.3fs\n",
                split->name.c_str(), st_err, Seconds(t0, t1), rpm_err,
                Seconds(t1, t2));
  }

  std::printf("\nC2. Original shapelet tree (Ye & Keogh) vs Fast "
              "Shapelets-style descendants\n");
  for (const auto* split : {&gun, &cbf}) {
    baselines::ShapeletTree yk;
    const auto t0 = std::chrono::steady_clock::now();
    yk.Train(split->train);
    const double yk_err = yk.Evaluate(split->test);
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("  %-14s YK-Tree err=%.4f t=%.3fs nodes=%zu\n",
                split->name.c_str(), yk_err, Seconds(t0, t1),
                yk.num_shapelet_nodes());
  }

  std::printf("\nD. Medical alarm-type classification (4 classes)\n");
  const ts::DatasetSplit types = ts::MakeAbpAlarmTypes(10, 25, 240, 779);
  {
    core::RpmOptions opt = Fixed(60);
    opt.fixed_sax.paa_size = 6;
    core::RpmClassifier clf(opt);
    clf.Train(types.train);
    std::printf("  RPM err=%.4f (%zu patterns; chance err 0.75)\n",
                clf.Evaluate(types.test), clf.patterns().size());
  }

  std::printf("\nE. BOP vs SAX-VSM (tf*idf ablation, shared SAX params)\n");
  for (const auto* split : {&gun, &cbf}) {
    baselines::BagOfPatternsOptions bop_opt;
    bop_opt.sax.window = split->train.MinLength() / 4;
    bop_opt.sax.paa_size = 4;
    bop_opt.sax.alphabet = 4;
    baselines::BagOfPatterns bop(bop_opt);
    bop.Train(split->train);
    baselines::SaxVsmOptions vsm_opt;
    vsm_opt.optimize = false;
    vsm_opt.sax = bop_opt.sax;
    baselines::SaxVsm vsm(vsm_opt);
    vsm.Train(split->train);
    std::printf("  %-14s BOP err=%.4f | SAX-VSM err=%.4f\n",
                split->name.c_str(), bop.Evaluate(split->test),
                vsm.Evaluate(split->test));
  }

  std::printf("\nF. Discords: rule-density (GrammarViz-style) vs HOT SAX\n");
  {
    // Periodic series with one corrupted cycle; both methods should land
    // on it, HOT SAX being exact and rule-density approximate-but-fast.
    ts::Rng rng(4242);
    ts::Series s(600);
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 50.0) +
             rng.Gaussian(0.0, 0.03);
    }
    for (std::size_t i = 300; i < 350; ++i) {
      s[i] = rng.Gaussian(0.0, 0.8);
    }
    sax::SaxOptions sax_opt;
    sax_opt.window = 50;
    sax_opt.paa_size = 4;
    sax_opt.alphabet = 4;
    const auto t0 = std::chrono::steady_clock::now();
    const auto records = sax::DiscretizeSlidingWindow(s, sax_opt);
    const auto motifs = grammar::FindMotifCandidates(
        records, sax_opt.window, s.size(), {}, true);
    const auto density_discords =
        grammar::FindDiscords(motifs, s.size(), 50, 1);
    const auto t1 = std::chrono::steady_clock::now();
    grammar::HotSaxOptions hs;
    hs.discord_length = 50;
    const auto hotsax_discords = grammar::FindHotSaxDiscords(s, hs);
    const auto t2 = std::chrono::steady_clock::now();
    std::printf("  planted anomaly at [300,350)\n");
    if (!density_discords.empty()) {
      std::printf("  rule-density: [%zu,%zu) in %.3fs\n",
                  density_discords[0].start,
                  density_discords[0].start + density_discords[0].length,
                  Seconds(t0, t1));
    }
    if (!hotsax_discords.empty()) {
      std::printf("  HOT SAX:      [%zu,%zu) nn=%.3f in %.3fs\n",
                  hotsax_discords[0].start,
                  hotsax_discords[0].start + hotsax_discords[0].length,
                  hotsax_discords[0].nn_distance, Seconds(t1, t2));
    }
  }
  return 0;
}
