//===- e2ebench/EditorSession.cpp - The editor_session workload -----------===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
//
// Three editor connections to qualsd: a Server (one analysis thread per
// session, jobs 1) behind the unix-socket Transport, in this process,
// driven by one client thread over three sockets. The load is an open
// loop at a fixed total rate: every request has a seeded due time, is sent
// when due whether or not earlier replies have arrived, and is timed from
// its due time, so a stall shows in the latency of every request queued
// behind it. The client reports how late it sent (harness.late_ms_p99).
//
// Each connection owns kSlots 1-2k-line qualgen files. Per request it
//   - edits one function body and sends analyze-delta (most requests;
//     a few edits delete a call and take the call-graph fallback),
//   - re-sends a file's current content with analyze (a cache hit),
//   - opens a new file with analyze (a miss; it replaces one slot),
//   - or checks one examples/programs/*.q program (lambda analyze).
//
//===----------------------------------------------------------------------===//

#include "Alloc.h"
#include "Bench.h"

#include "gen/SynthGen.h"
#include "serve/Pipelines.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Transport.h"
#include "support/Hash.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace quals;
using namespace quals::serve;

namespace qb {
namespace {

/// Editor connections, each its own protocol session.
constexpr unsigned kClients = 3;
/// Files each connection keeps open.
constexpr unsigned kSlots = 4;
/// Total offered load, requests per second over all connections: about
/// half of the ~100-200/s up to which the seed commit keeps latency_p99_ms
/// under 50 ms on a shared 4-vCPU host with this mix (the lower figure in
/// the host's slow spells, when it runs up to twice as slow).
constexpr double kRatePerSecond = 60;
/// Request mix, in percent: body-edit deltas, call-deleting deltas,
/// unchanged re-analyzes, first opens, lambda checks.
constexpr unsigned kMixDelta = 66, kMixCallEdit = 4, kMixReanalyze = 15,
                   kMixOpen = 10;
/// A request unanswered this long after the schedule ends is a failure.
constexpr double kDrainSeconds = 60;

enum class Kind : uint8_t { Delta, CallEdit, Reanalyze, Open, Lambda };

struct LambdaProgram {
  std::string Name;
  std::string Source;
  int ExpectedExit = 0;
};

/// One scheduled request. The client materializes its line when the
/// previous request has gone out; the checks replay the same plan.
struct Planned {
  uint64_t DueNs = 0; ///< Offset from the segment start.
  uint32_t Id = 0;
  uint8_t Conn = 0;
  Kind K = Kind::Delta;
  uint8_t Slot = 0;
  uint32_t Pick = 0;    ///< Which function/call to edit; which .q program.
  uint32_t NewFile = 0; ///< Open: index into the new-file pool.
};

/// What happened to one request.
struct Outcome {
  uint64_t SentNs = 0;
  uint64_t DoneNs = 0;
  uint64_t WriteNs = 0;   ///< Time inside the socket write calls.
  uint64_t ReplyHash = 0; ///< Of the reply with its id field stripped.
  uint32_t Lines = 0;
  uint32_t ReplyBytes = 0;
  std::string Reply;      ///< Lambda replies only.
  bool Done = false;
};

struct Inputs {
  std::vector<std::vector<std::string>> Initial; ///< [conn][slot] sources.
  std::vector<std::string> NewFiles;
  std::vector<LambdaProgram> Lambdas;
  std::vector<Planned> Plan;
};

std::string fileName(unsigned Conn, unsigned Serial) {
  return "c" + std::to_string(Conn) + "_f" + std::to_string(Serial) + ".c";
}

/// The working copy of every connection's open files.
struct Workspace {
  struct File {
    std::string Name;
    std::string Source;
  };
  std::vector<std::vector<File>> Files; ///< [conn][slot]

  explicit Workspace(const Inputs &In) {
    for (unsigned C = 0; C != In.Initial.size(); ++C) {
      Files.emplace_back();
      for (unsigned S = 0; S != In.Initial[C].size(); ++S)
        Files[C].push_back({fileName(C, S), In.Initial[C][S]});
    }
  }

  /// Applies \p P's edit (if any) and returns the file it targets.
  const File &apply(const Planned &P, const Inputs &In) {
    File &F = Files[P.Conn][P.Slot];
    if (P.K == Kind::Open) {
      F.Name = fileName(P.Conn, kSlots + P.NewFile);
      F.Source = In.NewFiles[P.NewFile];
    } else if (P.K == Kind::CallEdit) {
      if (!deleteLine(F.Source, "\n  t += fn", P.Pick))
        editLiteral(F.Source, P.Pick);
    } else if (P.K == Kind::Delta) {
      editLiteral(F.Source, P.Pick);
    }
    return F;
  }

  /// Finds the (Pick mod count)-th occurrence of \p Needle.
  static size_t nth(const std::string &S, const char *Needle, uint32_t Pick) {
    size_t Count = 0;
    for (size_t At = S.find(Needle); At != std::string::npos;
         At = S.find(Needle, At + 1))
      ++Count;
    if (!Count)
      return std::string::npos;
    size_t At = S.find(Needle);
    for (uint32_t I = 0; I != Pick % Count; ++I)
      At = S.find(Needle, At + 1);
    return At;
  }

  /// A body-only edit: rewrites the constant of one function's
  /// `int loc = n + K;` line.
  static void editLiteral(std::string &S, uint32_t Pick) {
    static const char Needle[] = "  int loc = n + ";
    size_t At = nth(S, Needle, Pick);
    if (At == std::string::npos)
      throw std::runtime_error("generated file has no editable function");
    At += sizeof(Needle) - 1;
    size_t End = S.find(';', At);
    unsigned Old = static_cast<unsigned>(std::strtoul(S.c_str() + At,
                                                      nullptr, 10));
    S.replace(At, End - At, std::to_string((Old + 1 + Pick % 97) % 1000));
  }

  /// Deletes the line starting at the chosen occurrence of \p Needle
  /// (which begins with its newline).
  static bool deleteLine(std::string &S, const char *Needle, uint32_t Pick) {
    size_t At = nth(S, Needle, Pick);
    if (At == std::string::npos)
      return false;
    size_t End = S.find('\n', At + 1);
    S.erase(At, End - At);
    return true;
  }
};

/// Parameters of the \p Index-th file generated for a run. Sizes sweep the
/// 1-2k-line range in a fixed low-discrepancy order, so every seed sees the
/// same mix of sizes and only the programs differ.
synth::SynthParams fileParams(std::mt19937_64 &Rng, unsigned Index) {
  unsigned Lines = 1000 + (Index * 611u) % 1001u;
  return synth::paramsForLines(Rng(), Lines);
}

std::vector<LambdaProgram> loadLambdas(const RunConfig &Config) {
  std::ifstream Expected(Config.DataDir + "/lambda_expected.txt");
  if (!Expected)
    throw std::runtime_error("cannot read lambda_expected.txt");
  std::vector<LambdaProgram> Programs;
  std::string Line;
  while (std::getline(Expected, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    LambdaProgram P;
    std::string Verdict;
    Fields >> P.Name >> Verdict;
    if (Verdict != "accepted" && Verdict != "rejected")
      throw std::runtime_error("bad verdict in lambda_expected.txt: " + Line);
    P.ExpectedExit = Verdict == "accepted" ? 0 : 2;
    std::ifstream Src(Config.ExamplesDir + "/" + P.Name);
    if (!Src)
      throw std::runtime_error("cannot read " + Config.ExamplesDir + "/" +
                               P.Name);
    std::ostringstream Buf;
    Buf << Src.rdbuf();
    P.Source = Buf.str();
    Programs.push_back(std::move(P));
  }
  if (Programs.empty())
    throw std::runtime_error("lambda_expected.txt lists no program");
  return Programs;
}

/// One hundred request kinds in the mix's proportions, shuffled: each
/// connection deals its requests from such decks, so every seed runs the
/// same mix.
std::vector<Kind> shuffledMix(std::mt19937_64 &Rng) {
  std::vector<Kind> Deck;
  Deck.insert(Deck.end(), kMixDelta, Kind::Delta);
  Deck.insert(Deck.end(), kMixCallEdit, Kind::CallEdit);
  Deck.insert(Deck.end(), kMixReanalyze, Kind::Reanalyze);
  Deck.insert(Deck.end(), kMixOpen, Kind::Open);
  Deck.insert(Deck.end(),
              100 - kMixDelta - kMixCallEdit - kMixReanalyze - kMixOpen,
              Kind::Lambda);
  std::shuffle(Deck.begin(), Deck.end(), Rng);
  return Deck;
}

/// The inputs and the schedule, all from the seed.
Inputs makeInputs(const RunConfig &Config, double Seconds) {
  Inputs In;
  std::mt19937_64 Rng(Config.Seed);
  uint32_t FirstId = 1000; // Set-up traffic uses the ids below.
  unsigned Files = 0;
  In.Initial.resize(kClients);
  for (unsigned C = 0; C != kClients; ++C)
    for (unsigned S = 0; S != kSlots; ++S)
      In.Initial[C].push_back(
          synth::generateProgram(fileParams(Rng, Files++)).Source);
  In.Lambdas = loadLambdas(Config);

  // Paced arrivals: each connection sends at a third of the total rate,
  // every period shifted by a seeded jitter of up to a quarter period.
  // (Poisson arrivals made latency_p99 swing by a quarter from run to run
  // at this sample size; pacing keeps the tail about service times.)
  double Period = kClients / kRatePerSecond;
  std::uniform_real_distribution<double> Jitter(-Period / 4, Period / 4);
  for (unsigned C = 0; C != kClients; ++C) {
    std::vector<Kind> Deck;
    double Phase = Period * (C + 0.5) / kClients;
    for (double Tick = Phase; Tick < Seconds; Tick += Period) {
      double T = Tick + Jitter(Rng);
      Planned P;
      P.DueNs = static_cast<uint64_t>(T * 1e9);
      P.Conn = static_cast<uint8_t>(C);
      P.Slot = static_cast<uint8_t>(Rng() % kSlots);
      P.Pick = static_cast<uint32_t>(Rng());
      if (Deck.empty())
        Deck = shuffledMix(Rng);
      P.K = Deck.back();
      Deck.pop_back();
      In.Plan.push_back(P);
    }
  }
  std::stable_sort(In.Plan.begin(), In.Plan.end(),
                   [](const Planned &A, const Planned &B) {
                     return A.DueNs < B.DueNs;
                   });
  for (Planned &P : In.Plan) {
    P.Id = FirstId++;
    if (P.K == Kind::Open) {
      P.NewFile = static_cast<uint32_t>(In.NewFiles.size());
      In.NewFiles.push_back(
          synth::generateProgram(fileParams(Rng, Files++)).Source);
    }
  }
  return In;
}

std::string requestLine(uint32_t Id, const char *Method,
                        const std::string &Name, const std::string &Source,
                        bool Lambda) {
  std::string L = "{\"id\":" + std::to_string(Id) + ",\"method\":\"" +
                  Method + "\",\"params\":{\"source\":";
  L.reserve(Source.size() + Source.size() / 8 + 128);
  appendJsonString(L, Source);
  L += ",\"name\":";
  appendJsonString(L, Name);
  L += Lambda ? ",\"language\":\"lambda\"}}\n" : ",\"protos\":true}}\n";
  return L;
}

/// The request line \p P sends, after applying its edit to \p W.
std::string materialize(const Planned &P, const Inputs &In, Workspace &W,
                        uint32_t &Lines) {
  if (P.K == Kind::Lambda) {
    const LambdaProgram &L = In.Lambdas[P.Pick % In.Lambdas.size()];
    Lines = countLines(L.Source);
    return requestLine(P.Id, "analyze", L.Name, L.Source, true);
  }
  const Workspace::File &F = W.apply(P, In);
  Lines = countLines(F.Source);
  bool Delta = P.K == Kind::Delta || P.K == Kind::CallEdit;
  return requestLine(P.Id, Delta ? "analyze-delta" : "analyze", F.Name,
                     F.Source, false);
}

/// Hash of a reply line without its leading {"id":N field, so a reply can
/// be compared with the expected bytes of any request id.
uint64_t replyHash(std::string_view Line) {
  size_t Comma = Line.find(',');
  return hashString(Comma == std::string_view::npos ? Line
                                                    : Line.substr(Comma));
}

/// The reply a cold run of \p R must produce, without its id field: the
/// `analyze` response schema of docs/SERVER.md.
std::string expectedReply(const CachedResult &R, const std::string &Source) {
  char Hash[24];
  std::snprintf(Hash, sizeof(Hash), "%016llx",
                static_cast<unsigned long long>(hashString(Source)));
  std::string Out = ",\"ok\":true,\"exit\":" + std::to_string(R.ExitCode) +
                    ",\"hash\":\"" + Hash + "\",\"stdout\":";
  appendJsonString(Out, R.Out);
  Out += ",\"stderr\":";
  appendJsonString(Out, R.Err);
  Out += "}\n";
  return Out;
}

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// A Server behind a unix-socket Transport on a background thread, plus
/// the client's connections to it.
class LiveServer {
public:
  LiveServer(const ServerConfig &Config, const std::string &SocketPath)
      : S(Config) {
    ListenSpec Spec;
    Spec.K = ListenSpec::Kind::Unix;
    Spec.Path = SocketPath;
    T = std::make_unique<Transport>(S, Spec);
    std::string Error;
    if (!T->open(Error))
      throw std::runtime_error("cannot listen on " + SocketPath + ": " +
                               Error);
    Serve = std::thread([this] { T->serve(); });
    for (unsigned C = 0; C != kClients; ++C) {
      int Fd = connectUnix(SocketPath);
      if (Fd < 0) {
        stop();
        throw std::runtime_error("cannot connect to " + SocketPath);
      }
      Fds.push_back(Fd);
    }
  }
  ~LiveServer() { stop(); }
  LiveServer(const LiveServer &) = delete;
  LiveServer &operator=(const LiveServer &) = delete;

  /// Sends \p Line on connection \p C and waits for its reply (set-up and
  /// stats traffic, outside the open loop).
  std::string call(unsigned C, const std::string &Line) {
    setBlocking(Fds[C], true);
    const char *P = Line.data();
    size_t N = Line.size();
    while (N) {
      ssize_t W = ::send(Fds[C], P, N, MSG_NOSIGNAL);
      if (W < 0 && errno == EINTR)
        continue;
      if (W <= 0)
        throw std::runtime_error("send failed");
      P += W;
      N -= static_cast<size_t>(W);
    }
    // Only this request is in flight, so everything read is its reply.
    std::string Reply;
    char Buf[4096];
    while (Reply.empty() || Reply.back() != '\n') {
      ssize_t R = ::recv(Fds[C], Buf, sizeof(Buf), 0);
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        throw std::runtime_error("connection closed");
      Reply.append(Buf, static_cast<size_t>(R));
    }
    Reply.pop_back();
    return Reply;
  }

  static void setBlocking(int Fd, bool Blocking) {
    int Flags = ::fcntl(Fd, F_GETFL, 0);
    ::fcntl(Fd, F_SETFL, Blocking ? Flags & ~O_NONBLOCK : Flags | O_NONBLOCK);
  }

  void stop() {
    for (int Fd : Fds)
      ::close(Fd);
    Fds.clear();
    if (Serve.joinable()) {
      T->stop();
      Serve.join();
    }
  }

  Server S;
  std::unique_ptr<Transport> T;
  std::vector<int> Fds;
  std::thread Serve;
};

/// The open loop: sends every planned request at its due time and
/// collects the replies. Returns false if replies were still missing
/// kDrainSeconds after the schedule ended.
bool runOpenLoop(LiveServer &L, const Inputs &In, std::vector<Outcome> &Out,
                 uint64_t &Start) {
  struct Write {
    size_t Index; ///< Plan index.
    std::string Bytes;
    size_t Pos = 0;
  };
  struct Conn {
    int Fd = -1;
    std::deque<Write> Writes;    ///< Requests not yet fully written.
    std::string Buf;             ///< Partial reply.
    std::deque<size_t> Waiting;  ///< Plan indices awaiting replies.
  };
  std::vector<Conn> Conns(kClients);
  for (unsigned C = 0; C != kClients; ++C) {
    Conns[C].Fd = L.Fds[C];
    LiveServer::setBlocking(Conns[C].Fd, false);
  }
  Workspace W(In);
  Out.assign(In.Plan.size(), Outcome());
  size_t Next = 0, Replies = 0;
  // The next request's line is built as soon as the previous one is sent,
  // so building it never delays a due request.
  uint32_t NextLines = 0;
  std::string NextLine =
      In.Plan.empty() ? "" : materialize(In.Plan[0], In, W, NextLines);

  auto flush = [&](Conn &C) {
    while (!C.Writes.empty()) {
      Write &Wr = C.Writes.front();
      uint64_t T0 = nowNs();
      ssize_t N = ::send(C.Fd, Wr.Bytes.data() + Wr.Pos,
                         Wr.Bytes.size() - Wr.Pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      Out[Wr.Index].WriteNs += nowNs() - T0;
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      if (N <= 0)
        throw std::runtime_error("send failed");
      Wr.Pos += static_cast<size_t>(N);
      if (Wr.Pos == Wr.Bytes.size())
        C.Writes.pop_front();
    }
  };

  Start = nowNs();
  uint64_t Deadline = ~0ull;
  std::vector<pollfd> Fds(kClients);
  std::vector<char> Chunk(1 << 16);
  while (Replies != In.Plan.size()) {
    uint64_t Now = nowNs();
    while (Next != In.Plan.size() && Start + In.Plan[Next].DueNs <= Now) {
      Conn &C = Conns[In.Plan[Next].Conn];
      Out[Next].SentNs = Now;
      Out[Next].Lines = NextLines;
      C.Waiting.push_back(Next);
      C.Writes.push_back({Next, std::move(NextLine)});
      flush(C);
      ++Next;
      NextLine = Next == In.Plan.size()
                     ? std::string()
                     : materialize(In.Plan[Next], In, W, NextLines);
      Now = nowNs();
    }
    if (Next == In.Plan.size() && Deadline == ~0ull)
      Deadline = Now + static_cast<uint64_t>(kDrainSeconds * 1e9);
    if (Now > Deadline)
      return false;

    for (unsigned C = 0; C != kClients; ++C) {
      Fds[C].fd = Conns[C].Fd;
      Fds[C].events = POLLIN | (Conns[C].Writes.empty() ? 0 : POLLOUT);
      Fds[C].revents = 0;
    }
    uint64_t Due = Next == In.Plan.size() ? Now + 100000000ull
                                          : Start + In.Plan[Next].DueNs;
    uint64_t WaitNs = Due > Now ? Due - Now : 0;
    timespec Timeout{static_cast<time_t>(WaitNs / 1000000000ull),
                     static_cast<long>(WaitNs % 1000000000ull)};
    int Ready = ::ppoll(Fds.data(), kClients, &Timeout, nullptr);
    if (Ready < 0 && errno != EINTR)
      throw std::runtime_error("poll failed");
    for (unsigned I = 0; I != kClients && Ready > 0; ++I) {
      Conn &C = Conns[I];
      if (Fds[I].revents & POLLOUT)
        flush(C);
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t N = ::recv(C.Fd, Chunk.data(), Chunk.size(), MSG_DONTWAIT);
      if (N < 0 && (errno == EAGAIN || errno == EINTR))
        continue;
      if (N <= 0)
        throw std::runtime_error("server closed a connection");
      uint64_t Done = nowNs();
      C.Buf.append(Chunk.data(), static_cast<size_t>(N));
      size_t LineStart = 0;
      for (size_t NL = C.Buf.find('\n'); NL != std::string::npos;
           NL = C.Buf.find('\n', LineStart)) {
        if (C.Waiting.empty())
          throw std::runtime_error("reply without a request");
        size_t Idx = C.Waiting.front();
        C.Waiting.pop_front();
        std::string_view Reply(C.Buf.data() + LineStart, NL - LineStart + 1);
        Outcome &O = Out[Idx];
        O.DoneNs = Done;
        O.ReplyBytes = static_cast<uint32_t>(Reply.size());
        O.ReplyHash = replyHash(Reply);
        if (In.Plan[Idx].K == Kind::Lambda)
          O.Reply = std::string(Reply);
        O.Done = true;
        ++Replies;
        LineStart = NL + 1;
      }
      C.Buf.erase(0, LineStart);
    }
  }
  return true;
}

/// The `stats` delta counters the workload reads (docs/SERVER.md).
struct StatsSnapshot {
  double DeltaRequests = 0, DeltaFull = 0, DirtySccs = 0, Reused = 0;
};

StatsSnapshot readStats(LiveServer &L) {
  std::string Reply = L.call(0, "{\"id\":0,\"method\":\"stats\"}\n");
  JsonValue V;
  std::string Error;
  if (!parseJson(Reply, ProtocolLimits(), V, Error))
    throw std::runtime_error("malformed stats reply: " + Error);
  const JsonValue *Delta = V.find("delta");
  auto num = [&](const char *Key) {
    const JsonValue *F = Delta ? Delta->find(Key) : nullptr;
    if (!F || F->kind() != JsonValue::Kind::Number)
      throw std::runtime_error(std::string("stats reply lacks delta.") + Key);
    return F->asNumber();
  };
  StatsSnapshot S;
  S.DeltaRequests = num("requests");
  S.DeltaFull = num("full");
  S.DirtySccs = num("dirty_sccs");
  S.Reused = num("reused");
  return S;
}

/// A started server with every initial file opened once, so the snapshots
/// analyze-delta needs exist before timing starts.
std::unique_ptr<LiveServer> startServer(const RunConfig &Config,
                                        const Inputs &In, std::ostream *Log,
                                        unsigned Serial) {
  ServerConfig SC;
  SC.Jobs = 1;
  SC.RequestLogStream = Log;
  std::string Socket = Config.OutDir + "/qb" + std::to_string(::getpid()) +
                       "_" + std::to_string(Serial) + ".sock";
  auto L = std::make_unique<LiveServer>(SC, Socket);
  Workspace W(In);
  uint32_t Id = 0;
  for (unsigned C = 0; C != kClients; ++C)
    for (unsigned S = 0; S != kSlots; ++S) {
      const Workspace::File &F = W.Files[C][S];
      std::string Reply =
          L->call(C, requestLine(++Id, "analyze", F.Name, F.Source, false));
      if (Reply.find("\"ok\":true") == std::string::npos)
        throw std::runtime_error("opening " + F.Name + " failed: " + Reply);
    }
  return L;
}

/// One measured segment: a server, the open loop, and what it observed.
struct Segment {
  std::vector<Outcome> Out;
  uint64_t StartNs = 0; ///< The schedule's time zero.
  StatsSnapshot Before, After;
  bool Drained = false;
  double PeakMb = 0;
  uint64_t ServerAllocBytes = 0;
};

Segment runSegment(LiveServer &L, const Inputs &In, bool Traced) {
  Segment S;
  S.Before = readStats(L);
  uint64_t ClientAlloc0 = 0, Alloc0 = 0;
  if (Traced) {
    setTracing(true);
    ClientAlloc0 = threadAllocCounts().AllocBytes;
    Alloc0 = processAllocCounts().AllocBytes;
  }
  resetPeakRss();
  S.Drained = runOpenLoop(L, In, S.Out, S.StartNs);
  S.PeakMb = peakRssMb();
  if (Traced) {
    uint64_t Client = threadAllocCounts().AllocBytes - ClientAlloc0;
    S.ServerAllocBytes = processAllocCounts().AllocBytes - Alloc0 - Client;
    // The client's spans, from the timestamps the loop took: each request
    // from due to reply, its lateness, and its socket writes.
    for (size_t I = 0; I != In.Plan.size(); ++I) {
      const Outcome &O = S.Out[I];
      if (!O.Done)
        continue;
      uint64_t Due = S.StartNs + In.Plan[I].DueNs;
      int32_t Parent = nextSpanIndex();
      recordSpan("request", "harness", In.Plan[I].Id, Due, O.DoneNs);
      recordSpan("harness.late", "harness", In.Plan[I].Id, Due, O.SentNs,
                 Parent);
      recordSpan("serve.write", "serve", In.Plan[I].Id, O.SentNs,
                 O.SentNs + O.WriteNs, Parent);
    }
    setTracing(false);
  }
  S.After = readStats(L);
  return S;
}

/// Checks every reply: C replies against a cold serve::runAnalysis of the
/// same bytes, lambda replies against the verdict their header states.
/// Connections are independent (each edits only its own files), so each
/// replays its own requests on its own thread.
void checkReplies(const Inputs &In, const Segment &S, RunResult &R) {
  std::vector<std::string> Why(In.Plan.size());
  auto replay = [&](unsigned Conn) {
    Workspace W(In);
    std::vector<uint64_t> SlotExpected(kSlots, 0);
    for (size_t I = 0; I != In.Plan.size(); ++I) {
      const Planned &P = In.Plan[I];
      if (P.Conn != Conn)
        continue;
      const Outcome &O = S.Out[I];
      if (P.K == Kind::Lambda) {
        const LambdaProgram &L = In.Lambdas[P.Pick % In.Lambdas.size()];
        JsonValue V;
        std::string Error;
        const JsonValue *Exit = nullptr;
        if (parseJson(O.Reply, ProtocolLimits(), V, Error))
          Exit = V.find("exit");
        if (!Exit || Exit->kind() != JsonValue::Kind::Number ||
            static_cast<int>(Exit->asNumber()) != L.ExpectedExit)
          Why[I] = L.Name + ": verdict differs from its header comment";
        continue;
      }
      const Workspace::File &F = W.apply(P, In);
      uint64_t &Expected = SlotExpected[P.Slot];
      if (P.K != Kind::Reanalyze || !Expected) {
        AnalyzeJob Job;
        Job.Name = F.Name;
        Job.Source = F.Source;
        Job.Language = "c";
        Job.Protos = true;
        CachedResult Cold;
        runAnalysis(Job, Cold);
        Expected = hashString(expectedReply(Cold, F.Source));
      }
      if (O.ReplyHash != Expected)
        Why[I] = F.Name + ": reply differs from a cold runAnalysis";
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != kClients; ++C)
    Threads.emplace_back(replay, C);
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I != In.Plan.size(); ++I) {
    ++R.Attempted;
    if (!S.Out[I].Done)
      R.fail("request " + std::to_string(In.Plan[I].Id) + ": no reply");
    else if (!Why[I].empty())
      R.fail(Why[I]);
  }
}

/// Client-observed latency of request \p I, from when it was due.
double latencyMs(const Inputs &In, const Segment &S, size_t I) {
  return (S.Out[I].DoneNs - (S.StartNs + In.Plan[I].DueNs)) / 1e6;
}

/// How late the client sent request \p I.
double lateMs(const Inputs &In, const Segment &S, size_t I) {
  return (S.Out[I].SentNs - (S.StartNs + In.Plan[I].DueNs)) / 1e6;
}

/// One request-log event (serve/RequestLog.h), the fields read here.
struct LogEvent {
  double QueueMs = 0, ServiceMs = 0;
  bool Hit = false;
  std::map<std::string, double> PhaseMs;
};

std::map<int64_t, LogEvent> parseRequestLog(const std::string &Text) {
  std::map<int64_t, LogEvent> Events;
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    JsonValue V;
    std::string Error;
    if (!parseJson(Line, ProtocolLimits(), V, Error))
      throw std::runtime_error("malformed request-log line: " + Error);
    const JsonValue *Id = V.find("id");
    if (!Id || Id->kind() != JsonValue::Kind::Number)
      continue;
    LogEvent E;
    if (const JsonValue *Q = V.find("queue_us"))
      E.QueueMs = Q->asNumber() / 1e3;
    if (const JsonValue *Sv = V.find("service_us"))
      E.ServiceMs = Sv->asNumber() / 1e3;
    if (const JsonValue *C = V.find("cache"))
      E.Hit = C->asString() == "hit";
    if (const JsonValue *Ph = V.find("phases"))
      for (const auto &KV : Ph->members())
        E.PhaseMs[KV.first] = KV.second.asNumber() / 1e3;
    Events[static_cast<int64_t>(Id->asNumber())] = std::move(E);
  }
  return Events;
}

/// Which layer a pipeline phase of the request log belongs to.
const char *phaseLayer(const std::string &Phase) {
  if (Phase == "lex" || Phase == "parse" || Phase == "sema")
    return "cfront";
  if (Phase == "ref-types" || Phase == "fdg" || Phase == "constraint-gen")
    return "constinf";
  if (Phase == "solve")
    return "qual";
  return nullptr; // serve.analyze encloses the rest; lambda phases too.
}

} // namespace

RunResult runEditorSession(const RunConfig &Config) {
  RunResult R;
  ::mkdir(Config.OutDir.c_str(), 0777);

  if (!Config.Trace) {
    // Set-up, several times: inputs and schedule, server start, every
    // initial file opened once. The last set-up is the one measured.
    std::vector<double> SetupS;
    std::unique_ptr<Inputs> In;
    std::unique_ptr<LiveServer> L;
    for (int I = 0; I != kSetups; ++I) {
      L.reset();
      uint64_t T0 = nowNs();
      In = std::make_unique<Inputs>(makeInputs(Config, Config.Seconds));
      L = startServer(Config, *In, nullptr, I);
      SetupS.push_back((nowNs() - T0) / 1e9);
    }
    Segment S = runSegment(*L, *In, false);
    L.reset();
    if (!S.Drained)
      R.fail("replies still missing after the drain timeout");
    checkReplies(*In, S, R);

    std::vector<double> Lat, LinesPerS;
    double Bytes = 0;
    for (size_t I = 0; I != In->Plan.size(); ++I) {
      if (!S.Out[I].Done)
        continue;
      Lat.push_back(latencyMs(*In, S, I));
      LinesPerS.push_back(S.Out[I].Lines / (Lat.back() / 1e3));
      Bytes += S.Out[I].ReplyBytes;
    }
    R.add("setup_s", median(SetupS));
    R.add("lines_per_s", median(LinesPerS));
    R.add("latency_p50_ms", percentile(Lat, 50));
    R.add("peak_rss_mb", S.PeakMb);
    R.add("summary_bytes", Lat.empty() ? 0 : Bytes / Lat.size());
    return R;
  }

  // Traced run: an untraced segment on one server, then a traced segment
  // on a fresh one with the request log on; each schedule comes from the
  // seed.
  Inputs PlainIn = makeInputs(Config, Config.Seconds * kUntracedShare);
  Inputs In = makeInputs(Config, Config.Seconds * (1 - kUntracedShare));
  Segment Plain;
  {
    auto L = startServer(Config, PlainIn, nullptr, 0);
    Plain = runSegment(*L, PlainIn, false);
  }
  std::ostringstream LogText;
  Segment Traced;
  {
    auto L = startServer(Config, In, &LogText, 1);
    Traced = runSegment(*L, In, true);
  }
  for (const Segment *S : {&Plain, &Traced})
    if (!S->Drained)
      R.fail("replies still missing after the drain timeout");
  checkReplies(PlainIn, Plain, R);
  checkReplies(In, Traced, R);

  writeChromeTrace(Config.OutDir + "/spans-editor_session.json",
                   collectSpans());
  std::map<int64_t, LogEvent> Log = parseRequestLog(LogText.str());
  std::map<std::string, double> LayerMs;
  std::map<std::string, double> PhaseMs;
  std::vector<double> MissMs, HitMs, DeltaMs, QueueMs, TransportMs, LateMs;
  double WallMs = 0, Lines = 0, Hits = 0, Logged = 0;
  size_t N = 0;
  std::vector<double> PlainLat;
  for (size_t I = 0; I != PlainIn.Plan.size(); ++I)
    if (Plain.Out[I].Done) {
      PlainLat.push_back(latencyMs(PlainIn, Plain, I));
      LateMs.push_back(lateMs(PlainIn, Plain, I));
    }
  for (size_t I = 0; I != In.Plan.size(); ++I) {
    auto It = Log.find(In.Plan[I].Id);
    if (!Traced.Out[I].Done || It == Log.end())
      continue;
    const LogEvent &E = It->second;
    const Outcome &O = Traced.Out[I];
    double Lat = latencyMs(In, Traced, I), Late = lateMs(In, Traced, I);
    double Write = O.WriteNs / 1e6, Phases = 0;
    for (const auto &KV : E.PhaseMs)
      if (const char *Layer = phaseLayer(KV.first)) {
        LayerMs[Layer] += KV.second;
        PhaseMs[KV.first] += KV.second;
        Phases += KV.second;
      }
    LayerMs["harness"] += Late;
    LayerMs["serve"] += E.QueueMs + E.ServiceMs - Phases + Write;
    WallMs += Lat;
    Lines += O.Lines;
    ++N;
    ++Logged;
    Hits += E.Hit;
    QueueMs.push_back(E.QueueMs);
    TransportMs.push_back(Lat - Late - E.QueueMs - E.ServiceMs);
    switch (In.Plan[I].K) {
    case Kind::Open:
      MissMs.push_back(E.ServiceMs);
      break;
    case Kind::Reanalyze:
      HitMs.push_back(E.ServiceMs);
      break;
    case Kind::Delta:
    case Kind::CallEdit:
      DeltaMs.push_back(E.ServiceMs);
      break;
    case Kind::Lambda:
      break;
    }
  }
  if (!N)
    throw std::runtime_error("the request log matched no request");
  LayerTotals T;
  T.SelfMs = LayerMs;
  addLayerAccounting(R, T, WallMs, static_cast<double>(N));
  double PerReq = static_cast<double>(N);
  R.add("cfront.parse_ms", (PhaseMs["lex"] + PhaseMs["parse"]) / PerReq);
  R.add("cfront.sema_ms", PhaseMs["sema"] / PerReq);
  R.add("constinf.gen_ms",
        (PhaseMs["ref-types"] + PhaseMs["fdg"] + PhaseMs["constraint-gen"]) /
            PerReq);
  R.add("qual.solve_ms", PhaseMs["solve"] / PerReq);
  R.add("serve.service_ms_p50.miss", percentile(MissMs, 50));
  R.add("serve.service_ms_p50.hit", percentile(HitMs, 50));
  R.add("serve.service_ms_p50.delta", percentile(DeltaMs, 50));
  R.add("serve.queue_ms_p99", percentile(QueueMs, 99));
  R.add("serve.transport_ms_p50", percentile(TransportMs, 50));
  R.add("serve.cache_hit_ratio", Hits / Logged);
  double Dirty = Traced.After.DirtySccs - Traced.Before.DirtySccs;
  double Reused = Traced.After.Reused - Traced.Before.Reused;
  double Deltas = Traced.After.DeltaRequests - Traced.Before.DeltaRequests;
  R.add("serve.delta_reuse_ratio",
        Dirty + Reused > 0 ? Reused / (Dirty + Reused) : 0);
  R.add("serve.delta_fallback_ratio",
        Deltas > 0 ? (Traced.After.DeltaFull - Traced.Before.DeltaFull) / Deltas
                   : 0);
  R.add("serve.heap_bytes_per_line",
        Lines > 0 ? Traced.ServerAllocBytes / Lines : 0);
  R.add("latency_p90_ms", percentile(PlainLat, 90));
  R.add("latency_p99_ms", percentile(PlainLat, 99));
  R.add("trace_overhead", (WallMs / N) / (sum(PlainLat) / PlainLat.size()));
  R.add("harness.late_ms_p99", percentile(LateMs, 99));
  R.add("harness.rate_per_s", kRatePerSecond);
  R.add("harness.clients", kClients);
  return R;
}

} // namespace qb
