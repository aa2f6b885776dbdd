// Shared pieces of the benchmark harness: command line, clocks, memory
// probes, the raw-record JSON writer, the result check against a reference
// replay, and the thread plan that keeps client + server threads within the
// machine's cores.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/blender.h"
#include "core/preprocessor.h"
#include "graph/graph.h"
#include "gui/actions.h"
#include "gui/latency_model.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the benchmark's own tests; never used for numbers.
  bool quick = false;
  /// Where the raw record (JSON) goes.
  std::string out;
  /// Scratch directory inside the checkout (WAL, spill, snapshots, spans).
  std::string work_dir;
  /// serve_wire: path of the boomer_served binary.
  std::string served_bin;
  /// Test hooks: print the generated traces' digest / the thread plan.
  bool dump_traces = false;
  bool print_plan = false;
  size_t nproc = 0;  // 0 = std::thread::hardware_concurrency()
  /// Test hook: corrupt one session's results before the check, to prove
  /// that a wrong result fails the run.
  bool inject_wrong_result = false;
};

/// Threads a workload runs, across client and server. At most Runnable()
/// of them can run at once: a closed-loop client waits while the event
/// loop serves its request, so the loop never adds a runnable thread to
/// the clients. Needs at least two cores for the serving workloads.
struct ThreadPlan {
  size_t clients = 1;        // client threads == connections on serve_wire
  size_t sessions_per_client = 1;  // interleaved open sessions (pressure)
  size_t workers = 0;        // SessionManager worker threads
  size_t server_loops = 0;   // event-loop threads (net::Server)
  size_t Runnable() const { return clients + workers; }
};
ThreadPlan PlanThreads(const std::string& workload, size_t nproc);
size_t Nproc(const Args& args);

double NowSeconds();
/// Peak resident set (VmHWM) of this process / of `pid`, in MiB.
double PeakRssMb();
double PeakRssMbOf(pid_t pid);

/// Order-independent digest of a result set: two runs that found the same
/// set of matches agree whatever order they found them in.
uint64_t ResultDigest(const std::vector<boomer::core::PartialMatch>& results);
uint64_t TracesDigest(const std::vector<boomer::gui::ActionTrace>& traces);

/// The seed-dependent part of a trace. Each workload's query set and
/// formulation order are fixed (the instance seed is part of the workload,
/// like its graph); `seed` redraws every action's latency within +-15% of
/// the base trace's x `scale`, as another user formulating the same query
/// would.
boomer::gui::ActionTrace Rejitter(const boomer::gui::ActionTrace& base,
                                  uint64_t seed, double scale = 1.0);

/// Deterministic Fisher-Yates shuffle of [0, n).
std::vector<size_t> ShuffledOrder(size_t n, uint64_t seed);

/// Expected answer of one trace: a single-threaded replay on a fresh
/// Blender with the DR strategy (strategy equivalence, Section 5). Runs
/// outside every timed phase.
struct Reference {
  bool ok = false;
  bool truncated = false;
  size_t count = 0;
  uint64_t digest = 0;
  size_t cap_bytes = 0;  // CapStats::size_bytes at Run
};
Reference ReferenceReplay(const boomer::graph::Graph& g,
                          const boomer::core::PreprocessResult& prep,
                          boomer::core::BlenderOptions options,
                          const boomer::gui::ActionTrace& trace);

/// Timed setup: GenerateDataset (or the serve tools' `er` graph) and
/// core::Preprocess, each inside a span, with the wall of each part.
struct Setup {
  boomer::graph::Graph graph;
  std::unique_ptr<boomer::core::PreprocessResult> prep;
  double gen_s = 0.0;
  double pml_s = 0.0;
  double total_s = 0.0;
};
Setup RunSetup(const std::string& dataset, double scale, uint64_t graph_seed,
               const boomer::core::PreprocessOptions& options);

/// Minimal JSON object builder for the raw record.
class JsonObj {
 public:
  JsonObj& Num(const std::string& key, double v);
  JsonObj& Int(const std::string& key, int64_t v);
  JsonObj& Bool(const std::string& key, bool v);
  JsonObj& Str(const std::string& key, const std::string& v);
  JsonObj& Raw(const std::string& key, const std::string& json);
  JsonObj& Nums(const std::string& key, const std::vector<double>& v);
  std::string Dump() const;

 private:
  std::string body_;
};
std::string JsonArray(const std::vector<std::string>& items);

bool WriteFile(const std::string& path, const std::string& text);

[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
