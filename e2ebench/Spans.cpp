//===- e2ebench/Spans.cpp - In-memory span recorder ------------------------===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "Alloc.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace qb;

namespace {

std::atomic<bool> Tracing{false};

struct ThreadLog {
  uint32_t Thread = 0;
  std::vector<SpanRecord> Spans;
  std::vector<int32_t> Open; ///< Stack of open span indices.
};

std::mutex LogsMutex;
std::vector<std::unique_ptr<ThreadLog>> Logs; // Guarded by LogsMutex.

ThreadLog &localLog() {
  thread_local ThreadLog *Log = nullptr;
  if (!Log) {
    std::lock_guard<std::mutex> Lock(LogsMutex);
    Logs.push_back(std::make_unique<ThreadLog>());
    Log = Logs.back().get();
    Log->Thread = static_cast<uint32_t>(Logs.size() - 1);
    // Growth of the log is charged to whatever span is open when it
    // happens; reserving keeps that out of typical runs.
    Log->Spans.reserve(1u << 16);
    Log->Open.reserve(64);
  }
  return *Log;
}

} // namespace

void qb::setTracing(bool On) {
  setAllocCounting(On);
  Tracing.store(On, std::memory_order_relaxed);
}
bool qb::tracing() { return Tracing.load(std::memory_order_relaxed); }

Span::Span(const char *Name, const char *Layer, uint32_t Op) {
  if (!tracing())
    return;
  ThreadLog &Log = localLog();
  SpanRecord R;
  R.Name = Name;
  R.Layer = Layer;
  R.Op = Op;
  R.Thread = Log.Thread;
  R.Parent = Log.Open.empty() ? -1 : Log.Open.back();
  Index = static_cast<int>(Log.Spans.size());
  Log.Spans.push_back(R);
  Log.Open.push_back(Index);
  AllocCounts C = threadAllocCounts();
  Log.Spans[Index].AllocBytes = -static_cast<int64_t>(C.AllocBytes);
  Log.Spans[Index].LiveBytes = -C.live();
  Log.Spans[Index].StartNs = nowNs();
}

void Span::end() {
  if (Index < 0)
    return;
  uint64_t Now = nowNs();
  ThreadLog &Log = localLog();
  AllocCounts C = threadAllocCounts();
  SpanRecord &R = Log.Spans[Index];
  R.EndNs = Now;
  R.AllocBytes += static_cast<int64_t>(C.AllocBytes);
  R.LiveBytes += C.live();
  Log.Open.pop_back();
  Index = -1;
}

void Span::addMeasuredChild(const char *Name, const char *Layer,
                            double Seconds) {
  if (Index < 0)
    return;
  ThreadLog &Log = localLog();
  uint64_t Now = nowNs();
  uint64_t Dur = static_cast<uint64_t>(Seconds * 1e9);
  SpanRecord R;
  R.Name = Name;
  R.Layer = Layer;
  R.Op = Log.Spans[Index].Op;
  R.Thread = Log.Thread;
  R.Parent = Index;
  R.StartNs = Now > Dur ? Now - Dur : 0;
  R.EndNs = Now;
  Log.Spans.push_back(R);
}

void qb::recordSpan(const char *Name, const char *Layer, uint32_t Op,
                    uint64_t StartNs, uint64_t EndNs, int32_t Parent) {
  if (!tracing())
    return;
  ThreadLog &Log = localLog();
  SpanRecord R;
  R.Name = Name;
  R.Layer = Layer;
  R.Op = Op;
  R.Thread = Log.Thread;
  R.Parent = Parent;
  R.StartNs = StartNs;
  R.EndNs = EndNs;
  Log.Spans.push_back(R);
}

int32_t qb::nextSpanIndex() {
  return static_cast<int32_t>(localLog().Spans.size());
}

std::vector<SpanRecord> qb::collectSpans() {
  std::lock_guard<std::mutex> Lock(LogsMutex);
  std::vector<SpanRecord> All;
  for (const auto &Log : Logs)
    All.insert(All.end(), Log->Spans.begin(), Log->Spans.end());
  return All;
}

LayerTotals qb::selfTimes(const std::vector<SpanRecord> &Spans) {
  // Spans arrive grouped by thread, each thread's in recording order, so a
  // parent index is an offset from the start of its thread's block.
  LayerTotals T;
  size_t Base = 0;
  while (Base < Spans.size()) {
    size_t End = Base;
    while (End < Spans.size() && Spans[End].Thread == Spans[Base].Thread)
      ++End;
    std::vector<double> ChildMs(End - Base, 0);
    for (size_t I = Base; I != End; ++I)
      if (Spans[I].Parent >= 0)
        ChildMs[Spans[I].Parent] += (Spans[I].EndNs - Spans[I].StartNs) / 1e6;
    for (size_t I = Base; I != End; ++I) {
      const SpanRecord &S = Spans[I];
      double Ms = (S.EndNs - S.StartNs) / 1e6;
      T.SelfMs[S.Layer] += Ms - ChildMs[I - Base];
      T.InclusiveMs[S.Name] += Ms;
      T.InclusiveLiveBytes[S.Name] += S.LiveBytes;
    }
    Base = End;
  }
  return T;
}

bool qb::writeChromeTrace(const std::string &Path,
                          const std::vector<SpanRecord> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t T0 = ~0ull;
  for (const SpanRecord &S : Spans)
    T0 = std::min(T0, S.StartNs);
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                 "\"parent\":%d,\"alloc_bytes\":%lld,\"live_bytes\":%lld}}\n",
                 I ? "," : "", S.Name, S.Layer, S.Thread,
                 (S.StartNs - T0) / 1e3, (S.EndNs - S.StartNs) / 1e3, S.Op,
                 S.Parent, static_cast<long long>(S.AllocBytes),
                 static_cast<long long>(S.LiveBytes));
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}
