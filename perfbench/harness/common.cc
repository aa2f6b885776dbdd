#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "gui/trace_builder.h"
#include "gui/trace_io.h"
#include "obs/metrics.h"
#include "spans.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

using boomer::core::BlenderOptions;
using boomer::core::PartialMatch;

ThreadPlan PlanThreads(const std::string& workload, size_t nproc) {
  const size_t cores = std::max<size_t>(nproc, 1);
  ThreadPlan plan;
  if (workload == "serve_wire" || workload == "serve_pressure") {
    // Half the cores (at most two) drive clients, the other half run
    // session workers.
    plan.clients = std::clamp<size_t>(cores / 2, 1, 2);
    plan.workers = plan.clients;
  }
  if (workload == "serve_wire") plan.server_loops = 1;
  if (workload == "serve_pressure") plan.sessions_per_client = 4;
  return plan;
}

size_t Nproc(const Args& args) {
  if (args.nproc != 0) return args.nproc;
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

double PeakRssMb() { return VmHwmMb("/proc/self/status"); }
double PeakRssMbOf(pid_t pid) {
  return VmHwmMb("/proc/" + std::to_string(pid) + "/status");
}

uint64_t ResultDigest(const std::vector<PartialMatch>& results) {
  // A sum of per-match hashes is independent of match order and needs no
  // sort, so checking a capped 2,000,000-match session costs milliseconds.
  uint64_t sum = 0;
  for (const PartialMatch& m : results) {
    uint64_t h = 1469598103934665603ull;
    for (auto v : m.assignment) h = Mix(h, v);
    sum += Mix(h, m.assignment.size()) * 0xff51afd7ed558ccdull;
  }
  return Mix(sum, results.size());
}

uint64_t TracesDigest(const std::vector<boomer::gui::ActionTrace>& traces) {
  uint64_t h = 0;
  for (const auto& t : traces) {
    h = Mix(h, boomer::Fnv1aHash(boomer::gui::TraceToText(t)));
  }
  return h;
}

boomer::gui::ActionTrace Rejitter(const boomer::gui::ActionTrace& base,
                                  uint64_t seed, double scale) {
  boomer::Rng rng(seed);
  boomer::gui::ActionTrace out;
  for (boomer::gui::Action a : base.actions()) {
    const double u = static_cast<double>(rng.Uniform(1u << 20)) / (1u << 20);
    a.latency_micros = static_cast<int64_t>(
        static_cast<double>(a.latency_micros) * scale * (0.85 + 0.3 * u));
    out.Append(a);
  }
  return out;
}

std::vector<size_t> ShuffledOrder(size_t n, uint64_t seed) {
  boomer::Rng rng(seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Uniform(i)]);
  return order;
}

Reference ReferenceReplay(const boomer::graph::Graph& g,
                          const boomer::core::PreprocessResult& prep,
                          BlenderOptions options,
                          const boomer::gui::ActionTrace& trace) {
  options.strategy = boomer::core::Strategy::kDeferToRun;
  boomer::core::Blender blender(g, prep, options);
  Reference ref;
  ref.ok = blender.RunTrace(trace).ok() && blender.run_complete();
  ref.truncated = blender.report().truncated();
  ref.count = blender.Results().size();
  ref.digest = ResultDigest(blender.Results());
  ref.cap_bytes = blender.report().cap_stats.size_bytes;
  return ref;
}

Setup RunSetup(const std::string& dataset, double scale, uint64_t graph_seed,
               const boomer::core::PreprocessOptions& options) {
  Setup s;
  const double t0 = NowSeconds();
  {
    ScopedSpan span("graph", "GenerateDataset");
    auto g = [&]() -> boomer::StatusOr<boomer::graph::Graph> {
      if (dataset == "er") {
        // The serving tools' default graph (serve::BuildGraphFromFlags).
        return boomer::graph::GenerateErdosRenyi(2000, 6000, 5, graph_seed);
      }
      auto kind = boomer::graph::DatasetKindFromName(dataset);
      if (!kind.ok()) return kind.status();
      return boomer::graph::GenerateDataset({*kind, scale, graph_seed});
    }();
    if (!g.ok()) Die("graph generation failed: " + g.status().ToString());
    s.graph = std::move(g).value();
  }
  const double t1 = NowSeconds();
  {
    ScopedSpan span("pml", "core::Preprocess");
    auto prep = boomer::core::Preprocess(s.graph, options);
    if (!prep.ok()) Die("preprocess failed: " + prep.status().ToString());
    s.prep = std::make_unique<boomer::core::PreprocessResult>(
        std::move(prep).value());
  }
  const double t2 = NowSeconds();
  s.gen_s = t1 - t0;
  s.pml_s = t2 - t1;
  s.total_s = t2 - t0;
  return s;
}

namespace {

std::string NumText(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

JsonObj& JsonObj::Raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += boomer::obs::JsonEscape(key);
  body_ += "\":";
  body_ += json;
  return *this;
}
JsonObj& JsonObj::Num(const std::string& key, double v) {
  return Raw(key, NumText(v));
}
JsonObj& JsonObj::Int(const std::string& key, int64_t v) {
  return Raw(key, std::to_string(v));
}
JsonObj& JsonObj::Bool(const std::string& key, bool v) {
  return Raw(key, v ? "true" : "false");
}
JsonObj& JsonObj::Str(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  quoted += boomer::obs::JsonEscape(v);
  quoted += '"';
  return Raw(key, quoted);
}
JsonObj& JsonObj::Nums(const std::string& key, const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += NumText(v[i]);
  }
  return Raw(key, out + "]");
}
std::string JsonObj::Dump() const { return "{" + body_ + "}"; }

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",\n";
    out += items[i];
  }
  return out + "]";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace perfbench
