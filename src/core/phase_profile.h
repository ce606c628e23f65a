// Opt-in wall-clock accounting for the training-path phases (used by
// bench/table2_runtime --profile). Disabled it is two relaxed atomic
// loads per instrumented scope, so the pipeline keeps its normal cost;
// enabled, each scope adds its elapsed nanoseconds to a global
// per-phase counter with fetch_add, so instrumented code is free to run
// inside ParallelFor workers.
//
// Each scope is also a trace span: when the process tracer
// (obs/trace.h) is enabled, the scope's timestamps are forwarded to
// Tracer::MaybeRecord under the span name "train.<phase>" — the same
// clock reads serve both accountings, and span sampling applies as
// usual. This is how training phases appear next to serve/stream spans
// in the TRACE view.
//
// Phases are not disjoint: parameter selection (kSelection) internally
// re-runs discretization, grammar inference, and clustering for every
// combo x split it probes, and those nested scopes accrue into their own
// counters as well. Readers should treat kSelection as the end-to-end
// stage-0 time and the other counters as "total time spent in that kind
// of work anywhere in training". With num_threads > 1 a counter sums
// busy time across the pool's threads, so a phase nested in selection
// can exceed selection's own wall time.

#ifndef RPM_CORE_PHASE_PROFILE_H_
#define RPM_CORE_PHASE_PROFILE_H_

#include <array>
#include <chrono>
#include <cstddef>

#include "obs/trace.h"

namespace rpm::core {

class PhaseProfile {
 public:
  enum Phase : std::size_t {
    kDiscretization = 0,  // SAX sliding-window discretization
    kGrammar,             // Sequitur/Re-Pair inference + motif extraction
    kClustering,          // iterative 2-way splitting incl. the matrix
    kSelection,           // stage 0: DIRECT SAX parameter selection
    kTransform,           // pattern-to-feature transform (best-match scans)
    kSvm,                 // feature-classifier fits: selection CV + final
                          // fit (a k-NN or naive-Bayes final classifier
                          // is charged here too)
    kDistinct,            // similar-candidate removal (tau threshold + tests)
    kShapelets,           // shapelet-baseline candidate scans (ST/FS eval)
    kNumPhases,
  };

  /// Enables or disables accumulation (process-wide). Off by default.
  static void Enable(bool on);
  static bool enabled();

  /// Zeroes every per-phase counter.
  static void Reset();

  /// Adds `seconds` to a phase counter. No-op while disabled.
  static void Add(Phase phase, double seconds);

  /// Accumulated seconds per phase, indexed by Phase.
  static std::array<double, kNumPhases> Totals();

  /// Human-readable phase name ("discretization", ...).
  static const char* Name(Phase phase);

  /// Trace span name ("train.discretization", ...); a static string.
  static const char* SpanName(Phase phase);
};

/// RAII scope that charges its lifetime to a phase and emits a trace
/// span. The clock is only read when profiling or tracing is enabled at
/// construction time.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(PhaseProfile::Phase phase)
      : phase_(phase),
        armed_(PhaseProfile::enabled() || obs::Tracer::Default().enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhaseTimer() {
    if (armed_) {
      const auto end = std::chrono::steady_clock::now();
      PhaseProfile::Add(
          phase_, std::chrono::duration<double>(end - start_).count());
      obs::Tracer::Default().MaybeRecord(PhaseProfile::SpanName(phase_),
                                         start_, end);
    }
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  PhaseProfile::Phase phase_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rpm::core

#endif  // RPM_CORE_PHASE_PROFILE_H_
