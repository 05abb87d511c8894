//===- e2ebench/Bench.h - Shared harness definitions -------------*- C++ -*-===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run configuration the command line
/// gives, the result it reports, and the small statistics and process
/// helpers (percentiles, peak resident set, line counting).
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_BENCH_H
#define E2EBENCH_BENCH_H

#include "Spans.h"

#include "cfront/CParser.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringInterner.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qb {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for run artifacts (span traces, sockets); inside the
  /// checkout.
  std::string OutDir;
  /// Directory holding the benchmark's committed data files.
  std::string DataDir;
  /// The repository's example programs (editor_session's lambda checks).
  std::string ExamplesDir;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// One line per failed check, printed to stderr.
  std::vector<std::string> Failures;

  /// Reports metric \p Name; its unit comes from qualbench.cpp's lists.
  void add(const std::string &Name, double Value) { Metrics[Name] = Value; }
  /// Counts one failed operation and remembers why.
  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(std::move(Why));
  }
};

/// The front-end state one analyzed program owns: what qualcc keeps alive
/// from parsing through inference.
struct FrontEnd {
  quals::SourceManager SM;
  quals::DiagnosticEngine Diags{SM};
  quals::cfront::CAstContext Ast;
  quals::cfront::CTypeContext Types;
  quals::StringInterner Idents;
  quals::cfront::TranslationUnit TU;
};

RunResult runWholeProgram(const RunConfig &Config);
RunResult runSeparateCompilation(const RunConfig &Config);
RunResult runEditorSession(const RunConfig &Config);

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Share of a traced run (--trace 1) measured untraced first; the traced
/// segment takes the rest.
constexpr double kUntracedShare = 2.0 / 3;

/// Nearest-rank percentile of \p Values (0 < P <= 100); 0 when empty.
double percentile(std::vector<double> Values, double P);
double median(std::vector<double> Values);
double sum(const std::vector<double> &Values);

/// Returns as much freed heap to the OS as possible and resets the
/// process's peak resident set to the current one, so peakRssMb() then
/// reports the peak of what follows.
void resetPeakRss();
/// Peak resident set since the last resetPeakRss(), in MiB.
double peakRssMb();

/// Newline count of \p Source (the line count qualgen reports).
unsigned countLines(const std::string &Source);

/// Per-layer self times of the traced segment, reported per pass, plus
/// the `unattributed_ms` remainder against \p WallMs (also per pass).
/// Adds `<layer>.self_ms` for every layer (cfront, constinf, qual, link,
/// serve, harness), `wall_ms` and `unattributed_ms` to \p R.
void addLayerAccounting(RunResult &R, const LayerTotals &T, double WallMs,
                        double Passes);

} // namespace qb

#endif // E2EBENCH_BENCH_H
