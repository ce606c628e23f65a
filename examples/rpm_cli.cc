// Command-line front end for the library: train, evaluate, persist and
// reuse RPM models on UCR-format data, or run any of the baselines for a
// side-by-side comparison.
//
// Usage:
//   rpm_cli train    TRAIN.csv MODEL [options]
//   rpm_cli classify MODEL TEST.csv            # prints one label per line
//   rpm_cli evaluate TRAIN.csv TEST.csv [options]
//   rpm_cli patterns MODEL                     # dump patterns as CSV
//   rpm_cli info DATA.csv                      # dataset statistics
//
// Options (train/evaluate):
//   --method NAME      RPM (default), NN-ED, NN-DTWB, SAX-VSM, FS, LS,
//                      ST, YK-Tree, Logical
//   --search MODE      direct (default) | grid | fixed
//   --window N --paa N --alphabet N    SAX parameters for --search fixed
//   --gamma F          minimum cluster fraction (default 0.2)
//   --tau F            similarity-threshold percentile (default 30)
//   --classifier NAME  svm (default) | knn | nb
//   --gi NAME          sequitur (default) | repair
//   --rotation-invariant
//   --budget N         DIRECT evaluation budget (default 24)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "baselines/fast_shapelets.h"
#include "baselines/learning_shapelets.h"
#include "baselines/nn_dtw.h"
#include "baselines/nn_euclidean.h"
#include "baselines/rpm_adapter.h"
#include "baselines/logical_shapelets.h"
#include "baselines/sax_vsm.h"
#include "baselines/shapelet_transform.h"
#include "baselines/shapelet_tree.h"
#include "core/rpm.h"
#include "ts/ucr_io.h"

namespace {

struct CliOptions {
  std::string method = "RPM";
  rpm::core::RpmOptions rpm;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: rpm_cli train TRAIN.csv MODEL [options]\n"
               "       rpm_cli classify MODEL TEST.csv\n"
               "       rpm_cli evaluate TRAIN.csv TEST.csv [options]\n"
               "run with no arguments for the option list in the header\n");
  std::exit(2);
}

CliOptions ParseOptions(int argc, char** argv, int first) {
  CliOptions cli;
  auto need = [&](int i) -> const char* {
    if (i + 1 >= argc) Usage();
    return argv[i + 1];
  };
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--method") {
      cli.method = need(i++);
    } else if (arg == "--search") {
      const std::string mode = need(i++);
      if (mode == "direct") {
        cli.rpm.search = rpm::core::ParameterSearch::kDirect;
      } else if (mode == "grid") {
        cli.rpm.search = rpm::core::ParameterSearch::kGrid;
      } else if (mode == "fixed") {
        cli.rpm.search = rpm::core::ParameterSearch::kFixed;
      } else {
        Usage();
      }
    } else if (arg == "--window") {
      cli.rpm.fixed_sax.window =
          static_cast<std::size_t>(std::atoi(need(i++)));
    } else if (arg == "--paa") {
      cli.rpm.fixed_sax.paa_size =
          static_cast<std::size_t>(std::atoi(need(i++)));
    } else if (arg == "--alphabet") {
      cli.rpm.fixed_sax.alphabet = std::atoi(need(i++));
    } else if (arg == "--gamma") {
      cli.rpm.gamma = std::atof(need(i++));
    } else if (arg == "--tau") {
      cli.rpm.tau_percentile = std::atof(need(i++));
    } else if (arg == "--budget") {
      cli.rpm.direct_max_evaluations =
          static_cast<std::size_t>(std::atoi(need(i++)));
    } else if (arg == "--classifier") {
      const std::string kind = need(i++);
      if (kind == "svm") {
        cli.rpm.final_classifier = rpm::ml::FeatureClassifierKind::kSvm;
      } else if (kind == "knn") {
        cli.rpm.final_classifier = rpm::ml::FeatureClassifierKind::kKnn;
      } else if (kind == "nb") {
        cli.rpm.final_classifier =
            rpm::ml::FeatureClassifierKind::kNaiveBayes;
      } else {
        Usage();
      }
    } else if (arg == "--gi") {
      const std::string gi = need(i++);
      if (gi == "sequitur") {
        cli.rpm.gi_algorithm = rpm::grammar::GiAlgorithm::kSequitur;
      } else if (gi == "repair") {
        cli.rpm.gi_algorithm = rpm::grammar::GiAlgorithm::kRePair;
      } else {
        Usage();
      }
    } else if (arg == "--rotation-invariant") {
      cli.rpm.rotation_invariant = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      Usage();
    }
  }
  return cli;
}

std::unique_ptr<rpm::baselines::Classifier> MakeClassifier(
    const CliOptions& cli) {
  using namespace rpm::baselines;
  if (cli.method == "RPM") return std::make_unique<RpmAdapter>(cli.rpm);
  if (cli.method == "NN-ED") return std::make_unique<NnEuclidean>();
  if (cli.method == "NN-DTWB") return std::make_unique<NnDtwBestWindow>();
  if (cli.method == "SAX-VSM") return std::make_unique<SaxVsm>();
  if (cli.method == "FS") return std::make_unique<FastShapelets>();
  if (cli.method == "LS") return std::make_unique<LearningShapelets>();
  if (cli.method == "ST") return std::make_unique<ShapeletTransform>();
  if (cli.method == "YK-Tree") return std::make_unique<ShapeletTree>();
  if (cli.method == "Logical") return std::make_unique<LogicalShapelets>();
  std::fprintf(stderr, "unknown method '%s'\n", cli.method.c_str());
  Usage();
}

int CmdInfo(int argc, char** argv) {
  if (argc < 3) Usage();
  const rpm::ts::Dataset data = rpm::ts::LoadUcrFile(argv[2]);
  std::printf("%s: %zu instances, %zu classes, lengths %zu..%zu\n",
              argv[2], data.size(), data.NumClasses(), data.MinLength(),
              data.MaxLength());
  for (const auto& [label, count] : data.ClassHistogram()) {
    std::printf("  class %d: %zu instances (%.1f%%)\n", label, count,
                100.0 * static_cast<double>(count) /
                    static_cast<double>(data.size()));
  }
  return 0;
}

int CmdPatterns(int argc, char** argv) {
  if (argc < 3) Usage();
  const rpm::core::RpmClassifier clf =
      rpm::core::RpmClassifier::LoadFromFile(argv[2]);
  for (const auto& p : clf.patterns()) {
    std::printf("%d,%zu", p.class_label, p.frequency);
    for (double v : p.values) std::printf(",%.6f", v);
    std::printf("\n");
  }
  return 0;
}

int CmdTrain(int argc, char** argv) {
  if (argc < 4) Usage();
  const CliOptions cli = ParseOptions(argc, argv, 4);
  const rpm::ts::Dataset train = rpm::ts::LoadUcrFile(argv[2]);
  rpm::core::RpmClassifier clf(cli.rpm);
  clf.Train(train);
  clf.SaveToFile(argv[3]);
  std::printf("trained on %zu instances; %zu patterns; model -> %s\n",
              train.size(), clf.patterns().size(), argv[3]);
  return 0;
}

int CmdClassify(int argc, char** argv) {
  if (argc < 4) Usage();
  const rpm::core::RpmClassifier clf =
      rpm::core::RpmClassifier::LoadFromFile(argv[2]);
  const rpm::ts::Dataset test = rpm::ts::LoadUcrFile(argv[3]);
  // Route the whole set through the batched path: pattern contexts are
  // built once and shared, instead of being rebuilt per instance.
  for (const int label : clf.ClassifyAll(test)) {
    std::printf("%d\n", label);
  }
  return 0;
}

int CmdEvaluate(int argc, char** argv) {
  if (argc < 4) Usage();
  const CliOptions cli = ParseOptions(argc, argv, 4);
  const rpm::ts::Dataset train = rpm::ts::LoadUcrFile(argv[2]);
  const rpm::ts::Dataset test = rpm::ts::LoadUcrFile(argv[3]);
  auto clf = MakeClassifier(cli);
  clf->Train(train);
  const double error = clf->Evaluate(test);
  std::printf("%s error rate: %.4f (accuracy %.4f, %zu test instances)\n",
              clf->Name().c_str(), error, 1.0 - error, test.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "train") return CmdTrain(argc, argv);
    if (cmd == "classify") return CmdClassify(argc, argv);
    if (cmd == "evaluate") return CmdEvaluate(argc, argv);
    if (cmd == "patterns") return CmdPatterns(argc, argv);
    if (cmd == "info") return CmdInfo(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  Usage();
}
