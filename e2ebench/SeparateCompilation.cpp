//===- e2ebench/SeparateCompilation.cpp - The separate_compilation workload ===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
//
// A 16-TU `qualgen --tus` split of a ~30k-line program, built the way
// `qualcc --emit-summary-dir` and `quallink` build it, single-threaded:
// each TU is summarized (front end, SummaryMode inference, buildSummary,
// serializeSummary), then every summary is loaded (deserializeSummary) and
// the set is linked (linkSummaries). One pass is one such build.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"
#include "link/Linker.h"
#include "link/Qsum.h"
#include "link/SummaryBuilder.h"
#include "support/Hash.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

namespace qb {
namespace {

constexpr unsigned kTus = 16;
constexpr unsigned kLines = 30000;

struct Tu {
  std::string Name;
  std::string Source;
  unsigned Lines = 0;
};

/// A classified position in link order.
using Pos = std::tuple<std::string, int, unsigned, bool, PosClass>;

uint64_t hashPositions(const std::vector<Pos> &Positions) {
  HashBuilder H;
  for (const Pos &P : Positions)
    H.add(std::get<0>(P))
        .add(static_cast<uint64_t>(std::get<1>(P) + 1))
        .add(static_cast<uint64_t>(std::get<2>(P)))
        .add(std::get<3>(P))
        .add(static_cast<uint64_t>(std::get<4>(P)));
  return H.digest();
}

bool linkOrder(const Pos &A, const Pos &B) {
  // Function, then parameter with the result last, then depth.
  auto Key = [](const Pos &P) {
    int Param = std::get<1>(P);
    return std::make_tuple(std::get<0>(P), Param < 0 ? INT32_MAX : Param,
                           std::get<2>(P));
  };
  return Key(A) < Key(B);
}

struct Build {
  bool Ok = false;
  std::string Error;
  double Ms = 0;
  size_t SummaryBytes = 0;
  uint64_t SummaryHash = 0;
  uint64_t PositionsHash = 0;
  unsigned Vars = 0, Constraints = 0;         ///< Summed over TU systems.
  unsigned LinkVars = 0, LinkConstraints = 0; ///< The merged system.
  uint64_t EdgeVisits = 0; ///< TU solves plus the global solve.
  std::vector<Pos> Positions; ///< First build only.
};

/// Summarizes one TU into its serialized .qsum bytes.
std::string summarize(const Tu &T, uint32_t Op, Build &B) {
  Span Stage("summarize", "harness", Op);
  auto U = std::make_unique<FrontEnd>();
  bool Ok;
  {
    Span S("cfront.parse", "cfront", Op);
    Ok = parseCSource(U->SM, T.Name, T.Source, U->Ast, U->Types, U->Idents,
                      U->Diags, U->TU);
  }
  if (Ok) {
    Span S("cfront.sema", "cfront", Op);
    CSema Sema(U->Ast, U->Types, U->Idents, U->Diags);
    Ok = Sema.analyze(U->TU);
  }
  if (!Ok) {
    B.Error = T.Name + ": front end failed: " + U->Diags.renderAll();
    return "";
  }
  ConstInference::Options Opts;
  Opts.Polymorphic = false;
  Opts.SummaryMode = true;
  auto Inf = std::make_unique<ConstInference>(U->TU, U->Diags, Opts);
  {
    Span S("constinf.run", "constinf", Op);
    Ok = Inf->run();
    SolverStats Stats;
    {
      Span Q("qual.stats", "qual", Op);
      Stats = Inf->solverStats();
    }
    S.addMeasuredChild("qual.solve", "qual", Stats.SolveSeconds);
    B.EdgeVisits += Stats.EdgeVisits;
  }
  if (!Ok) {
    B.Error = T.Name + ": const errors: " + U->Diags.renderAll();
    return "";
  }
  B.Vars += Inf->numQualVars();
  B.Constraints += Inf->numConstraints();
  std::string Bytes;
  {
    Span S("link.build", "link", Op);
    link::TuSummary Summary =
        link::buildSummary(*Inf, U->SM, T.Name, hashString(T.Source),
                           link::summaryConfigHash());
    Span W("link.serialize", "link", Op);
    Bytes = link::serializeSummary(Summary);
  }
  {
    Span S("constinf.teardown", "constinf", Op);
    Inf.reset();
  }
  Span S("cfront.teardown", "cfront", Op);
  U.reset();
  return Bytes;
}

Build build(const std::vector<Tu> &Tus, uint32_t Op, bool KeepPositions) {
  Build B;
  uint64_t T0 = nowNs();
  Span Whole("build", "harness", Op);
  std::vector<std::string> Qsums;
  for (const Tu &T : Tus) {
    Qsums.push_back(summarize(T, Op, B));
    if (!B.Error.empty())
      return B;
  }
  std::vector<link::TuSummary> Summaries(Qsums.size());
  for (size_t I = 0; I != Qsums.size(); ++I) {
    Span S("link.load", "link", Op);
    std::string Error;
    if (!link::deserializeSummary(
            reinterpret_cast<const uint8_t *>(Qsums[I].data()),
            Qsums[I].size(), Summaries[I], Error)) {
      B.Error = Tus[I].Name + ": summary does not load: " + Error;
      return B;
    }
  }
  link::LinkResult L;
  {
    Span S("link.link", "link", Op);
    L = link::linkSummaries(Summaries, link::LinkOptions());
  }
  {
    Span S("link.teardown", "link", Op);
    Summaries.clear();
    Summaries.shrink_to_fit();
  }
  B.Ms = (nowNs() - T0) / 1e6;

  if (!L.LoadOk || !L.LinkOk || !L.SolveOk || !L.Diagnostics.empty()) {
    B.Error = "link failed: " +
              (L.Diagnostics.empty() ? std::string("(no diagnostic)")
                                     : L.Diagnostics.front());
    return B;
  }
  HashBuilder SH;
  for (const std::string &Q : Qsums) {
    B.SummaryBytes += Q.size();
    SH.add(std::string_view(Q));
  }
  std::vector<Pos> Positions;
  for (const link::LinkedPos &P : L.Positions)
    Positions.emplace_back(P.FnName, P.ParamIndex, P.Depth, P.DeclaredConst,
                           P.Class);
  std::stable_sort(Positions.begin(), Positions.end(), linkOrder);
  B.SummaryHash = SH.digest();
  B.PositionsHash = hashPositions(Positions);
  B.LinkVars = L.NumVars;
  B.LinkConstraints = L.NumConstraints;
  B.EdgeVisits += L.Stats.EdgeVisits;
  if (KeepPositions)
    B.Positions = std::move(Positions);
  {
    Span S("link.teardown", "link", Op);
    L = link::LinkResult();
    Qsums.clear();
    Qsums.shrink_to_fit();
  }
  B.Ok = true;
  return B;
}

/// Describes where \p Linked and \p Whole first disagree.
std::string firstDifference(const std::vector<Pos> &Linked,
                            const std::vector<Pos> &Whole) {
  size_t I = 0;
  while (I < Linked.size() && I < Whole.size() && Linked[I] == Whole[I])
    ++I;
  auto show = [I](const std::vector<Pos> &V) {
    if (I >= V.size())
      return std::string("(none)");
    return std::get<0>(V[I]) + " param " + std::to_string(std::get<1>(V[I])) +
           " depth " + std::to_string(std::get<2>(V[I])) + " class " +
           std::to_string(static_cast<int>(std::get<4>(V[I])));
  };
  return "position " + std::to_string(I) + " is " + show(Linked) +
         " linked, " + show(Whole) + " whole-program";
}

/// Whole-program --mono over the TUs as one program (qualcc tu_*.c): the
/// reference the linked positions must equal.
struct WholeMono {
  bool Ok = false;
  std::string Error;
  double Ms = 0;
  unsigned Constraints = 0;
  std::vector<Pos> Positions;
};

WholeMono wholeProgramMono(const std::vector<Tu> &Tus) {
  WholeMono W;
  uint64_t T0 = nowNs();
  auto U = std::make_unique<FrontEnd>();
  for (const Tu &T : Tus)
    if (!parseCSource(U->SM, T.Name, T.Source, U->Ast, U->Types, U->Idents,
                      U->Diags, U->TU)) {
      W.Error = "whole-program parse failed: " + U->Diags.renderAll();
      return W;
    }
  CSema Sema(U->Ast, U->Types, U->Idents, U->Diags);
  if (!Sema.analyze(U->TU)) {
    W.Error = "whole-program sema failed: " + U->Diags.renderAll();
    return W;
  }
  ConstInference::Options Opts;
  Opts.Polymorphic = false;
  auto Inf = std::make_unique<ConstInference>(U->TU, U->Diags, Opts);
  if (!Inf->run()) {
    W.Error = "whole-program const errors: " + U->Diags.renderAll();
    return W;
  }
  // The positions point into the AST: copy them out before teardown.
  for (const ClassifiedPos &C : Inf->classifiedPositions())
    W.Positions.emplace_back(std::string(C.Pos.Fn->getName()),
                             C.Pos.ParamIndex, C.Pos.Depth,
                             C.Pos.DeclaredConst, C.Class);
  W.Constraints = Inf->numConstraints();
  Inf.reset();
  U.reset();
  W.Ms = (nowNs() - T0) / 1e6;
  std::stable_sort(W.Positions.begin(), W.Positions.end(), linkOrder);
  W.Ok = true;
  return W;
}

} // namespace

RunResult runSeparateCompilation(const RunConfig &Config) {
  RunResult R;
  std::vector<Tu> Tus;
  std::vector<double> SetupS;
  for (int I = 0; I != kSetups; ++I) {
    uint64_t T0 = nowNs();
    std::vector<synth::SynthProgram> Split = synth::generateTuSplit(
        synth::paramsForLines(Config.Seed, kLines), kTus);
    Tus.clear();
    for (unsigned J = 0; J != Split.size(); ++J)
      Tus.push_back({synth::tuFileName(J), std::move(Split[J].Source),
                     Split[J].LineCount});
    SetupS.push_back((nowNs() - T0) / 1e9);
  }
  if (Tus.size() != kTus)
    throw std::runtime_error("qualgen split produced the wrong TU count");
  uint64_t Lines = 0;
  for (const Tu &T : Tus)
    Lines += T.Lines;

  std::vector<Build> Builds;
  uint32_t Op = 0;
  auto runSegment = [&](double Seconds, std::vector<double> &PassMs) {
    uint64_t Start = nowNs();
    do {
      uint64_t T0 = nowNs();
      Builds.push_back(build(Tus, ++Op, Builds.empty()));
      PassMs.push_back((nowNs() - T0) / 1e6);
    } while ((nowNs() - Start) / 1e9 < Seconds);
  };
  std::vector<double> PassMs, TracedPassMs;
  if (!Config.Trace) {
    resetPeakRss();
    runSegment(Config.Seconds, PassMs);
  } else {
    runSegment(Config.Seconds * kUntracedShare, PassMs);
    setTracing(true);
    runSegment(Config.Seconds * (1 - kUntracedShare), TracedPassMs);
    setTracing(false);
  }
  double PeakMb = peakRssMb();

  // Checks, outside the timed region: every build's linked positions equal
  // whole-program --mono's position for position, and every build writes
  // the first one's .qsum bytes.
  std::vector<double> WholeMs;
  WholeMono Whole = wholeProgramMono(Tus);
  WholeMs.push_back(Whole.Ms);
  if (Config.Trace)
    for (int I = 0; I != 2; ++I)
      WholeMs.push_back(wholeProgramMono(Tus).Ms);
  uint64_t WholeHash = hashPositions(Whole.Positions);
  for (size_t I = 0; I != Builds.size(); ++I) {
    const Build &B = Builds[I], &First = Builds[0];
    ++R.Attempted;
    if (!B.Ok)
      R.fail(B.Error);
    else if (!Whole.Ok)
      R.fail(Whole.Error);
    else if (B.PositionsHash != WholeHash)
      R.fail("linked positions differ from whole-program --mono" +
             (I ? std::string(" (build ") + std::to_string(I) + ")"
                : ": " + firstDifference(B.Positions, Whole.Positions)));
    else if (B.SummaryHash != First.SummaryHash)
      R.fail("build " + std::to_string(I) + " wrote other .qsum bytes");
  }

  const Build &First = Builds[0];
  std::vector<double> BuildMs; // Untraced builds only.
  for (size_t I = 0; I != PassMs.size(); ++I)
    BuildMs.push_back(Builds[I].Ms);
  if (!Config.Trace) {
    R.add("setup_s", median(SetupS));
    R.add("lines_per_s", Lines / (median(BuildMs) / 1e3));
    R.add("latency_p50_ms", percentile(BuildMs, 50));
    R.add("peak_rss_mb", PeakMb);
    R.add("summary_bytes", static_cast<double>(First.SummaryBytes));
    return R;
  }

  std::vector<SpanRecord> Spans = collectSpans();
  writeChromeTrace(Config.OutDir + "/spans-separate_compilation.json", Spans);
  LayerTotals T = selfTimes(Spans);
  double Passes = static_cast<double>(TracedPassMs.size());
  double TracedMs = sum(TracedPassMs), UntracedMs = sum(PassMs);
  addLayerAccounting(R, T, TracedMs, Passes);
  R.add("cfront.parse_ms", T.InclusiveMs["cfront.parse"] / Passes);
  R.add("cfront.sema_ms", T.InclusiveMs["cfront.sema"] / Passes);
  R.add("cfront.heap_bytes_per_line",
        (T.InclusiveLiveBytes["cfront.parse"] +
         T.InclusiveLiveBytes["cfront.sema"]) /
            (Lines * Passes));
  double SolveMs = T.InclusiveMs["qual.solve"];
  R.add("constinf.gen_ms", (T.InclusiveMs["constinf.run"] - SolveMs) / Passes);
  R.add("constinf.positions", static_cast<double>(Whole.Positions.size()));
  R.add("qual.solve_ms", SolveMs / Passes);
  R.add("qual.vars", First.Vars);
  R.add("qual.constraints", First.Constraints);
  R.add("qual.edge_visits", static_cast<double>(First.EdgeVisits));
  R.add("qual.visits_per_constraint",
        static_cast<double>(First.EdgeVisits) /
            (First.Constraints + First.LinkConstraints));
  R.add("qual.heap_bytes_per_constraint",
        T.InclusiveLiveBytes["constinf.run"] / (First.Constraints * Passes));
  double SummarizeMs = T.InclusiveMs["summarize"] / Passes;
  double LoadMs = T.InclusiveMs["link.load"] / Passes;
  double LinkMs = T.InclusiveMs["link.link"] / Passes;
  R.add("link.summarize_ms", SummarizeMs);
  R.add("link.load_ms", LoadMs);
  R.add("link.link_ms", LinkMs);
  R.add("link.constraints", First.LinkConstraints);
  R.add("link.vars", First.LinkVars);
  R.add("link.blowup",
        static_cast<double>(First.LinkConstraints) / Whole.Constraints);
  R.add("link.build_over_whole",
        (UntracedMs / PassMs.size()) / median(WholeMs));
  R.add("latency_p90_ms", percentile(BuildMs, 90));
  R.add("latency_p99_ms", percentile(BuildMs, 99));
  R.add("trace_overhead",
        (TracedMs / Passes) / (UntracedMs / PassMs.size()));
  return R;
}

} // namespace qb
