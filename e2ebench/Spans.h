//===- e2ebench/Spans.h - In-memory span recorder ----------------*- C++ -*-===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The harness opens a span around every
/// call it makes into a layer's public functions; each span records its
/// name, layer, start, end, parent (the span open on the same thread when
/// it began), the operation it belongs to, and the heap bytes its thread
/// allocated and kept while it was open (Alloc.h). Spans stay in memory
/// until the run ends; writeChromeTrace() then writes them out in the
/// Chrome trace format and selfTimes() reduces them to per-layer self
/// times: a span's duration minus the durations of its children.
///
/// Recording is off unless setTracing(true), which also turns on the
/// counting allocator; a disabled Span costs one relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_SPANS_H
#define E2EBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qb {

/// Monotonic nanoseconds (steady_clock).
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char *Name = "";  ///< Public call wrapped, e.g. "cfront.parse".
  const char *Layer = ""; ///< Module it belongs to, e.g. "cfront".
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1;    ///< Index of the enclosing span on this thread.
  uint32_t Op = 0;        ///< Operation (request, analysis, build) id.
  uint32_t Thread = 0;    ///< Recording thread's log index.
  int64_t AllocBytes = 0; ///< Heap bytes allocated while open (inclusive).
  int64_t LiveBytes = 0;  ///< Allocated minus freed while open (inclusive).
};

/// Turns span recording and allocation counting on or off together.
void setTracing(bool On);
bool tracing();

/// RAII span on the calling thread; a no-op while tracing is off.
class Span {
public:
  Span(const char *Name, const char *Layer, uint32_t Op);
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Closes the span early; the destructor then does nothing.
  void end();

  /// Records a completed child of this span whose duration was measured by
  /// the program itself (for example SolverStats::SolveSeconds inside
  /// ConstInference::run). It is placed at the end of this span.
  void addMeasuredChild(const char *Name, const char *Layer, double Seconds);

private:
  int Index = -1;
};

/// Records a completed top-level span from explicit timestamps (the editor
/// workload's per-request latency and its parts, which start at a due time
/// rather than at a call).
void recordSpan(const char *Name, const char *Layer, uint32_t Op,
                uint64_t StartNs, uint64_t EndNs, int32_t Parent = -1);

/// Index the next recordSpan() on this thread will get, to parent children.
int32_t nextSpanIndex();

/// Every span recorded so far, thread by thread.
std::vector<SpanRecord> collectSpans();

/// Per-layer self times of \p Spans, and per-name totals.
struct LayerTotals {
  std::map<std::string, double> SelfMs;      ///< Keyed by layer.
  std::map<std::string, double> InclusiveMs; ///< Keyed by span name.
  /// Heap bytes allocated and still held when the span ended, by name.
  std::map<std::string, int64_t> InclusiveLiveBytes;
};
LayerTotals selfTimes(const std::vector<SpanRecord> &Spans);

/// Writes \p Spans to \p Path as a Chrome trace (Perfetto-loadable).
bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanRecord> &Spans);

} // namespace qb

#endif // E2EBENCH_SPANS_H
