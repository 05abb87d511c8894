//===- e2ebench/WholeProgram.cpp - The whole_program workload --------------===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
//
// The paper's own use: qualcc's whole-program pipeline (parse, sema,
// ConstInference::run, classify and render) on the six Table 1 stand-ins
// and one ~200k-line qualgen program, each in --mono and --poly mode,
// single-threaded. One pass analyzes all seven programs in both modes;
// the run repeats passes until its time is up.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"
#include "support/Hash.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

namespace qb {
namespace {

/// One Table 1 program's synthetic stand-in: the seeds and feature rates
/// of the repository's Table 1/2 harnesses, so the programs (and their
/// Table 2 counts) are the ones EXPERIMENTS.md reports.
struct StandIn {
  const char *Name;
  unsigned Lines;
  uint64_t Seed;
  double ConstDeclRate;
  double WriterRate;
  double LibraryCallRate;
};

const StandIn kStandIns[] = {
    {"woman-3.0a", 1496, 1001, 0.92, 0.62, 0.30},
    {"patch-2.5", 5303, 1002, 0.98, 0.62, 0.28},
    {"m4-1.4", 7741, 1003, 0.42, 0.44, 0.18},
    {"diffutils-2.7", 8741, 1004, 0.85, 0.78, 0.40},
    {"ssh-1.2.26", 18620, 1005, 0.50, 0.63, 0.32},
    {"uucp-1.04", 36913, 1006, 0.44, 0.55, 0.28},
};

/// Target size of the seeded large program.
constexpr unsigned kLargeLines = 200000;

/// A program's Table 2 row: declared, mono, poly and total positions.
struct Table2Row {
  unsigned Declared = 0, Mono = 0, Poly = 0, Total = 0;
};

struct Program {
  std::string Name;
  std::string Source;
  unsigned Lines = 0;
  std::optional<Table2Row> Expected; ///< The stand-ins' committed counts.
};

std::vector<Program> generatePrograms(uint64_t Seed) {
  std::vector<Program> Programs;
  for (const StandIn &S : kStandIns) {
    synth::SynthParams P = synth::paramsForLines(S.Seed, S.Lines);
    P.ConstDeclRate = S.ConstDeclRate;
    P.WriterRate = S.WriterRate;
    P.LibraryCallRate = S.LibraryCallRate;
    synth::SynthProgram G = synth::generateProgram(P);
    Programs.push_back({S.Name, std::move(G.Source), G.LineCount, {}});
  }
  synth::SynthProgram G =
      synth::generateProgram(synth::paramsForLines(Seed, kLargeLines));
  Programs.push_back({"qualgen-200k", std::move(G.Source), G.LineCount, {}});
  return Programs;
}

/// Reads table2_expected.txt into the stand-ins' expected counts.
void loadExpected(const std::string &Path, std::vector<Program> &Programs) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::string Line;
  unsigned Rows = 0;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name;
    Table2Row Row;
    if (!(Fields >> Name >> Row.Declared >> Row.Mono >> Row.Poly >>
          Row.Total))
      throw std::runtime_error("malformed row in " + Path + ": " + Line);
    for (Program &P : Programs)
      if (P.Name == Name) {
        P.Expected = Row;
        ++Rows;
      }
  }
  if (Rows != std::size(kStandIns))
    throw std::runtime_error(Path + " does not cover every stand-in");
}

/// A position's identity across runs and modes, and its class.
struct PosResult {
  std::string Key; ///< "fn/param/depth".
  bool Declared = false;
  PosClass Class = PosClass::Either;
};

/// What one analysis produced, kept for the checks after the timed loop.
struct Analysis {
  unsigned Program = 0;
  bool Poly = false;
  bool Ok = false;
  std::string Error;
  ConstCounts Counts;
  uint64_t OutputHash = 0; ///< Classification plus rendered prototypes.
  size_t RenderBytes = 0;
  unsigned Vars = 0, Constraints = 0;
  uint64_t EdgeVisits = 0;
  std::vector<PosResult> Positions; ///< First pass only.
};

bool possiblyConst(PosClass C) { return C != PosClass::MustNonConst; }

/// The pipeline over one program in one mode: what qualcc does, timed from
/// outside around each public call.
Analysis analyze(const Program &P, unsigned Index, bool Poly, uint32_t Op,
                 bool KeepPositions) {
  Analysis A;
  A.Program = Index;
  A.Poly = Poly;
  Span OpSpan("op", "harness", Op);
  {
    auto U = std::make_unique<FrontEnd>();
    bool FrontOk;
    {
      Span S("cfront.parse", "cfront", Op);
      FrontOk = parseCSource(U->SM, P.Name + ".c", P.Source, U->Ast,
                             U->Types, U->Idents, U->Diags, U->TU);
    }
    if (FrontOk) {
      Span S("cfront.sema", "cfront", Op);
      CSema Sema(U->Ast, U->Types, U->Idents, U->Diags);
      FrontOk = Sema.analyze(U->TU);
    }
    if (!FrontOk) {
      A.Error = "front end failed: " + U->Diags.renderAll();
    } else {
      ConstInference::Options Opts;
      Opts.Polymorphic = Poly;
      auto Inf = std::make_unique<ConstInference>(U->TU, U->Diags, Opts);
      {
        Span S("constinf.run", "constinf", Op);
        A.Ok = Inf->run();
        SolverStats Stats;
        {
          Span Q("qual.stats", "qual", Op);
          Stats = Inf->solverStats();
        }
        S.addMeasuredChild("qual.solve", "qual", Stats.SolveSeconds);
        A.EdgeVisits = Stats.EdgeVisits;
      }
      if (!A.Ok) {
        A.Error = "const errors: " + U->Diags.renderAll();
      } else {
        std::vector<ClassifiedPos> Classified;
        std::string Protos;
        {
          Span S("constinf.render", "constinf", Op);
          Classified = Inf->classifiedPositions();
          A.Counts = Inf->counts();
          Protos = Inf->renderAnnotatedPrototypes();
        }
        A.Vars = Inf->numQualVars();
        A.Constraints = Inf->numConstraints();
        HashBuilder H;
        for (const ClassifiedPos &C : Classified) {
          H.add(hashString(C.Pos.Fn->getName()));
          H.add(static_cast<uint64_t>(C.Pos.ParamIndex + 1));
          H.add(static_cast<uint64_t>(C.Pos.Depth));
          H.add(static_cast<uint64_t>(C.Pos.DeclaredConst));
          H.add(static_cast<uint64_t>(C.Class));
        }
        H.add(hashString(Protos));
        A.OutputHash = H.digest();
        A.RenderBytes = Protos.size();
        if (KeepPositions)
          for (const ClassifiedPos &C : Classified)
            A.Positions.push_back(
                {std::string(C.Pos.Fn->getName()) + "/" +
                     std::to_string(C.Pos.ParamIndex) + "/" +
                     std::to_string(C.Pos.Depth),
                 C.Pos.DeclaredConst, C.Class});
      }
      Span S("constinf.teardown", "constinf", Op);
      Inf.reset();
    }
    Span S("cfront.teardown", "cfront", Op);
    U.reset();
  }
  return A;
}

/// Checks the first pass's analyses of program \p P (both modes); returns
/// why they fail, or an empty string.
std::string checkProgram(const Program &P, const Analysis &Mono,
                         const Analysis &Poly) {
  if (!Mono.Ok || !Poly.Ok)
    return Mono.Ok ? Poly.Error : Mono.Error;
  const ConstCounts &M = Mono.Counts, &Q = Poly.Counts;
  if (!(M.Declared <= M.PossibleConst && M.PossibleConst <= Q.PossibleConst &&
        Q.PossibleConst <= Q.Total && M.Total == Q.Total &&
        M.Declared == Q.Declared))
    return "counts violate Declared <= Mono <= Poly <= Total";
  if (P.Expected &&
      (M.Declared != P.Expected->Declared ||
       M.PossibleConst != P.Expected->Mono ||
       Q.PossibleConst != P.Expected->Poly || M.Total != P.Expected->Total))
    return "Table 2 counts " + std::to_string(M.Declared) + "/" +
           std::to_string(M.PossibleConst) + "/" +
           std::to_string(Q.PossibleConst) + "/" + std::to_string(M.Total) +
           " differ from table2_expected.txt";
  std::map<std::string, PosClass> PolyClass;
  for (const PosResult &Pos : Poly.Positions)
    PolyClass[Pos.Key] = Pos.Class;
  if (PolyClass.size() != Mono.Positions.size())
    return "mono and poly classify different position sets";
  unsigned Lost = 0, Undeclared = 0;
  for (const Analysis *A : {&Mono, &Poly})
    for (const PosResult &Pos : A->Positions)
      if (Pos.Declared && Pos.Class != PosClass::MustConst)
        ++Undeclared;
  for (const PosResult &Pos : Mono.Positions) {
    auto It = PolyClass.find(Pos.Key);
    if (It == PolyClass.end())
      return "mono and poly classify different position sets";
    if (possiblyConst(Pos.Class) && !possiblyConst(It->second))
      ++Lost;
  }
  if (Lost)
    return std::to_string(Lost) +
           " positions possibly-const under mono are not under poly";
  if (Undeclared)
    return std::to_string(Undeclared) +
           " source-declared const positions are not must-const";
  return "";
}

} // namespace

RunResult runWholeProgram(const RunConfig &Config) {
  RunResult R;

  // Set-up: generate the inputs several times and report the median.
  std::vector<Program> Programs;
  std::vector<double> SetupS;
  for (int I = 0; I != kSetups; ++I) {
    uint64_t T0 = nowNs();
    Programs = generatePrograms(Config.Seed);
    SetupS.push_back((nowNs() - T0) / 1e9);
  }
  loadExpected(Config.DataDir + "/table2_expected.txt", Programs);
  uint64_t PassLines = 0;
  for (const Program &P : Programs)
    PassLines += 2 * P.Lines;

  // A pass: every program, --mono then --poly.
  std::vector<Analysis> Done;
  uint32_t Op = 0;
  auto runPass = [&](bool KeepPositions) {
    uint64_t T0 = nowNs();
    for (unsigned I = 0; I != Programs.size(); ++I)
      for (bool Poly : {false, true})
        Done.push_back(analyze(Programs[I], I, Poly, ++Op, KeepPositions));
    return (nowNs() - T0) / 1e6;
  };
  // Passes until the segment's time is up (at least one).
  auto runSegment = [&](double Seconds, std::vector<double> &PassMs) {
    uint64_t Start = nowNs();
    do {
      PassMs.push_back(runPass(Done.empty()));
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

  // Checks, outside the timed region: every analysis against the first
  // pass's output (determinism), the first pass against the paper's
  // invariants and the committed Table 2 counts.
  const size_t PerPass = 2 * Programs.size();
  std::vector<std::string> Why(Done.size());
  for (size_t I = 0; I != Programs.size(); ++I)
    Why[2 * I] = Why[2 * I + 1] =
        checkProgram(Programs[I], Done[2 * I], Done[2 * I + 1]);
  for (size_t I = 0; I != Done.size(); ++I) {
    // A later analysis with the first pass's output fails as that did.
    const Analysis &A = Done[I], &First = Done[I % PerPass];
    if (!A.Ok)
      Why[I] = A.Error;
    else if (A.OutputHash != First.OutputHash)
      Why[I] = "output differs from the first pass";
    else
      Why[I] = Why[I % PerPass];
    ++R.Attempted;
    if (!Why[I].empty())
      R.fail(Programs[A.Program].Name + (A.Poly ? " poly: " : " mono: ") +
             Why[I]);
  }

  size_t RenderBytes = 0, Positions = 0, Vars = 0, Constraints = 0;
  uint64_t EdgeVisits = 0;
  for (size_t I = 0; I != PerPass; ++I) {
    RenderBytes += Done[I].RenderBytes;
    Positions += Done[I].Counts.Total;
    Vars += Done[I].Vars;
    Constraints += Done[I].Constraints;
    EdgeVisits += Done[I].EdgeVisits;
  }

  if (!Config.Trace) {
    R.add("setup_s", median(SetupS));
    R.add("lines_per_s", PassLines / (median(PassMs) / 1e3));
    R.add("latency_p50_ms", percentile(PassMs, 50));
    R.add("peak_rss_mb", PeakMb);
    R.add("summary_bytes", static_cast<double>(RenderBytes));
    return R;
  }

  std::vector<SpanRecord> Spans = collectSpans();
  writeChromeTrace(Config.OutDir + "/spans-whole_program.json", Spans);
  LayerTotals T = selfTimes(Spans);
  double Passes = static_cast<double>(TracedPassMs.size());
  double TracedMs = sum(TracedPassMs);
  addLayerAccounting(R, T, TracedMs, Passes);
  R.add("cfront.parse_ms", T.InclusiveMs["cfront.parse"] / Passes);
  R.add("cfront.sema_ms", T.InclusiveMs["cfront.sema"] / Passes);
  R.add("cfront.heap_bytes_per_line",
        (T.InclusiveLiveBytes["cfront.parse"] +
         T.InclusiveLiveBytes["cfront.sema"]) /
            (PassLines * Passes));
  double SolveMs = T.InclusiveMs["qual.solve"];
  R.add("constinf.gen_ms", (T.InclusiveMs["constinf.run"] - SolveMs) / Passes);
  R.add("constinf.render_ms", T.InclusiveMs["constinf.render"] / Passes);
  R.add("constinf.positions", static_cast<double>(Positions));
  R.add("qual.solve_ms", SolveMs / Passes);
  R.add("qual.vars", static_cast<double>(Vars));
  R.add("qual.constraints", static_cast<double>(Constraints));
  R.add("qual.edge_visits", static_cast<double>(EdgeVisits));
  R.add("qual.visits_per_constraint",
        Constraints ? static_cast<double>(EdgeVisits) / Constraints : 0);
  R.add("qual.heap_bytes_per_constraint",
        Constraints ? T.InclusiveLiveBytes["constinf.run"] /
                          (Constraints * Passes)
                    : 0);
  R.add("latency_p90_ms", percentile(PassMs, 90));
  R.add("latency_p99_ms", percentile(PassMs, 99));
  R.add("trace_overhead",
        (TracedMs / Passes) / (sum(PassMs) / PassMs.size()));
  return R;
}

} // namespace qb
