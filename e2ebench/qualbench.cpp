//===- e2ebench/qualbench.cpp - End-to-end benchmark entry point -----------===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
//
//   qualbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--data-dir DIR] [--examples-dir DIR]
//
// Runs one workload (README.md in this directory) and prints, as the last
// line of standard output, one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{NAME:{"value":V,
//    "unit":U},...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the per-layer metrics of a traced run. A metric a workload does not
// exercise (a layer it bypasses) reads 0. Exit status: 0 after a result
// was printed, 2 on bad arguments or an input the harness cannot set up.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include <malloc.h>

using namespace qb;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics (--trace 0), in BENCHMARK.json order.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"lines_per_s", "lines/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"summary_bytes", "bytes"},
};

/// The per-layer metrics (--trace 1), in BENCHMARK.json order.
const MetricSpec kPerLayer[] = {
    {"cfront.parse_ms", "ms"},
    {"cfront.sema_ms", "ms"},
    {"cfront.heap_bytes_per_line", "B/line"},
    {"constinf.gen_ms", "ms"},
    {"constinf.render_ms", "ms"},
    {"constinf.positions", "count"},
    {"qual.solve_ms", "ms"},
    {"qual.vars", "count"},
    {"qual.constraints", "count"},
    {"qual.edge_visits", "count"},
    {"qual.visits_per_constraint", "ratio"},
    {"qual.heap_bytes_per_constraint", "B/constraint"},
    {"link.summarize_ms", "ms"},
    {"link.load_ms", "ms"},
    {"link.link_ms", "ms"},
    {"link.constraints", "count"},
    {"link.vars", "count"},
    {"link.blowup", "ratio"},
    {"link.build_over_whole", "ratio"},
    {"serve.service_ms_p50.miss", "ms"},
    {"serve.service_ms_p50.hit", "ms"},
    {"serve.service_ms_p50.delta", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.transport_ms_p50", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.delta_reuse_ratio", "ratio"},
    {"serve.delta_fallback_ratio", "ratio"},
    {"serve.heap_bytes_per_line", "B/line"},
    {"cfront.self_ms", "ms"},
    {"constinf.self_ms", "ms"},
    {"qual.self_ms", "ms"},
    {"link.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"harness.self_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"wall_ms", "ms"},
    {"trace_overhead", "ratio"},
    {"latency_p90_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"harness.late_ms_p99", "ms"},
    {"harness.rate_per_s", "1/s"},
    {"harness.clients", "count"},
    {"failed_ratio", "ratio"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "qualbench: %s\nusage: qualbench --workload "
               "whole_program|separate_compilation|editor_session --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--data-dir DIR] "
               "[--examples-dir DIR]\n",
               Why);
  return 2;
}

/// JSON number with every digit the double carries.
std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

double qb::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Values.size()));
  return Values[std::min(Values.size(), std::max<size_t>(Rank, 1)) - 1];
}

double qb::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double qb::sum(const std::vector<double> &Values) {
  double S = 0;
  for (double V : Values)
    S += V;
  return S;
}

void qb::resetPeakRss() {
  malloc_trim(0);
  // Writing 5 resets the kernel's peak-RSS watermark (VmHWM) to the current
  // resident set (Linux 4.0+).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double qb::peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

unsigned qb::countLines(const std::string &Source) {
  return static_cast<unsigned>(
      std::count(Source.begin(), Source.end(), '\n'));
}

void qb::addLayerAccounting(RunResult &R, const LayerTotals &T, double WallMs,
                            double Passes) {
  double Attributed = 0;
  for (const char *Layer :
       {"cfront", "constinf", "qual", "link", "serve", "harness"}) {
    auto It = T.SelfMs.find(Layer);
    double Ms = It == T.SelfMs.end() ? 0 : It->second;
    Attributed += Ms;
    R.add(std::string(Layer) + ".self_ms", Ms / Passes);
  }
  R.add("wall_ms", WallMs / Passes);
  R.add("unattributed_ms", (WallMs - Attributed) / Passes);
}

int main(int argc, char **argv) {
  RunConfig Config;
  Config.OutDir = ".bench_build/e2ebench/run";
  Config.DataDir = "e2ebench";
  Config.ExamplesDir = "examples/programs";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc)
      return usage("every option takes a value");
    const char *Opt = argv[I], *Val = argv[++I];
    char *End = nullptr;
    if (!std::strcmp(Opt, "--workload")) {
      Config.Workload = Val;
      HaveWorkload = true;
    } else if (!std::strcmp(Opt, "--seed")) {
      Config.Seed = std::strtoull(Val, &End, 10);
      HaveSeed = *Val && !*End;
    } else if (!std::strcmp(Opt, "--seconds")) {
      Config.Seconds = std::strtod(Val, &End);
      HaveSeconds = *Val && !*End && Config.Seconds > 0;
    } else if (!std::strcmp(Opt, "--trace")) {
      HaveTrace = !std::strcmp(Val, "0") || !std::strcmp(Val, "1");
      Config.Trace = !std::strcmp(Val, "1");
    } else if (!std::strcmp(Opt, "--out-dir")) {
      Config.OutDir = Val;
    } else if (!std::strcmp(Opt, "--data-dir")) {
      Config.DataDir = Val;
    } else if (!std::strcmp(Opt, "--examples-dir")) {
      Config.ExamplesDir = Val;
    } else {
      return usage((std::string("unknown option ") + Opt).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  RunResult R;
  try {
    if (Config.Workload == "whole_program")
      R = runWholeProgram(Config);
    else if (Config.Workload == "separate_compilation")
      R = runSeparateCompilation(Config);
    else if (Config.Workload == "editor_session")
      R = runEditorSession(Config);
    else
      return usage(("unknown workload " + Config.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "qualbench: %s\n", E.what());
    return 2;
  }
  if (R.Attempted == 0) {
    std::fprintf(stderr, "qualbench: no operation completed\n");
    return 2;
  }
  for (const std::string &Why : R.Failures)
    std::fprintf(stderr, "qualbench: check failed: %s\n", Why.c_str());

  std::map<std::string, double> &Values = R.Metrics;
  if (Config.Trace)
    Values["failed_ratio"] = static_cast<double>(R.Failed) / R.Attempted;
  // Every end-to-end metric is defined on every workload; a per-layer
  // metric a workload bypasses reads 0. Anything else is a harness bug.
  const MetricSpec *Begin = Config.Trace ? std::begin(kPerLayer)
                                         : std::begin(kEndToEnd);
  const MetricSpec *End = Config.Trace ? std::end(kPerLayer)
                                       : std::end(kEndToEnd);
  for (const auto &KV : Values)
    if (std::none_of(Begin, End, [&](const MetricSpec &M) {
          return KV.first == M.Name;
        })) {
      std::fprintf(stderr, "qualbench: unlisted metric %s\n", KV.first.c_str());
      return 2;
    }
  if (!Config.Trace)
    for (const MetricSpec &M : kEndToEnd)
      if (!Values.count(M.Name)) {
        std::fprintf(stderr, "qualbench: %s not measured\n", M.Name);
        return 2;
      }
  std::ostringstream Out;
  Out << "{\"correct\":" << (R.Failed ? "false" : "true")
      << ",\"attempted\":" << R.Attempted << ",\"failed\":" << R.Failed
      << ",\"metrics\":{";
  bool First = true;
  auto emit = [&](const MetricSpec &M) {
    auto It = Values.find(M.Name);
    Out << (First ? "" : ",") << "\"" << M.Name
        << "\":{\"value\":" << number(It == Values.end() ? 0 : It->second)
        << ",\"unit\":\"" << M.Unit << "\"}";
    First = false;
  };
  std::for_each(Begin, End, emit);
  Out << "}}";
  std::printf("%s\n", Out.str().c_str());
  return 0;
}
