// serve_wire: a boomer_served child on loopback, WAL on, driven by a closed
// loop of persistent connections.
//
// Each connection runs one session after another with no think time:
// open, one `act` per action, then `poll` until the Run is done, the result
// pages, and `close`. Every verb is a timed net::Client round trip, so the
// session wall splits into verbs plus a stated residual (client work and
// the sleeps between polls). Traces are modification-heavy and the graph
// is small: the frame codec, epoll loop, session queues, WAL appends and
// result paging do most of the work, and engine work stays small.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/preprocessor.h"
#include "gui/trace_io.h"
#include "net/client.h"
#include "net/wire.h"
#include "serve/workload.h"
#include "common.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

using boomer::gui::ActionKind;
using boomer::gui::ActionTrace;

namespace {

std::vector<ActionTrace> ServeTraces(const boomer::graph::Graph& g,
                                     uint64_t seed, size_t per_kind) {
  // Modification-heavy mix on a fixed query set: the SeededTraces Q1/Q3/Q5
  // recipe plus undo churn and duplicate-edge spam, `per_kind` of each,
  // from a constant instance seed; `seed` reformulates them.
  constexpr uint64_t kInstanceSeed = 2018;
  std::vector<ActionTrace> base =
      boomer::serve::SeededTraces(g, per_kind, kInstanceSeed);
  for (auto kind : {boomer::serve::AdversaryKind::kUndoChurn,
                    boomer::serve::AdversaryKind::kDupEdgeSpam}) {
    for (ActionTrace& t : boomer::serve::AdversarialTraces(
             g, per_kind, kInstanceSeed + 7919, {kind})) {
      base.push_back(std::move(t));
    }
  }
  std::vector<ActionTrace> traces;
  for (size_t i = 0; i < base.size(); ++i) {
    traces.push_back(Rejitter(base[i], seed * 7919 + i));
  }
  return traces;
}

struct WireConfig {
  std::string dataset = "wordnet";
  double scale = 0.02;
  uint64_t graph_seed = 7;
  size_t per_kind = 9;  // 27 traces: an odd count, see NOTES.md
  size_t setups = 5;  // cheap here; the median of 5 steadies setup_s
  double sessions_per_second = 80.0;  // sizes the session count
  int64_t poll_interval_us = 200;
  size_t page_limit = 512;  // net::Client::Poll's page size
};

WireConfig ConfigFor(const Args& args) {
  WireConfig c;
  if (args.quick) {
    c.scale = 0.01;
    c.per_kind = 1;
    c.setups = 1;
  }
  return c;
}

// ---- The boomer_served child ------------------------------------------------

class ServedChild {
 public:
  ServedChild() = default;
  ServedChild(const ServedChild&) = delete;
  ServedChild& operator=(const ServedChild&) = delete;
  ~ServedChild() { Stop(); }

  /// Spawns the daemon and blocks until /healthz answers. Returns the
  /// spawn-to-healthy wall in seconds.
  double Start(const Args& args, const WireConfig& c, const ThreadPlan& plan,
               const std::string& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string port_file = dir + "/port";
    std::vector<std::string> argv = {
        args.served_bin,
        "--dataset", c.dataset,
        "--scale", std::to_string(c.scale),
        "--seed", std::to_string(c.graph_seed),
        "--workers", std::to_string(plan.workers),
        "--max-live", "64",
        "--queue", "256",
        "--wal-dir", dir + "/wal",
        "--snapshot-dir", dir + "/snap",
        "--port", "0",
        "--port-file", port_file,
        "--max-conns", "64",
        "--idle-deadline", "120"};
    const double t0 = NowSeconds();
    pid_ = ::fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      std::vector<char*> cargv;
      for (std::string& a : argv) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      std::_Exit(127);
    }
    for (;;) {
      if (NowSeconds() - t0 > 60.0) Die("boomer_served did not come up");
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        Die("boomer_served exited during startup");
      }
      if (port_ == 0) {
        std::ifstream in(port_file);
        unsigned p = 0;
        if (in >> p) port_ = static_cast<uint16_t>(p);
      }
      if (port_ != 0) {
        auto r = boomer::net::Client::HttpGet("127.0.0.1", port_, "/healthz",
                                              2.0);
        if (r.ok() && r->find("200 OK") != std::string::npos) break;
      }
      ::usleep(500);
    }
    return NowSeconds() - t0;
  }

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain), then SIGKILL after a grace; always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const double t0 = NowSeconds();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowSeconds() - t0 > 15.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(1000);
    }
    pid_ = -1;
    port_ = 0;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

std::string Metrics(uint16_t port) {
  auto r = boomer::net::Client::HttpGet("127.0.0.1", port, "/metrics", 5.0);
  if (!r.ok()) Die("GET /metrics failed: " + r.status().ToString());
  const size_t body = r->find("\r\n\r\n");
  if (body == std::string::npos) Die("malformed /metrics response");
  return r->substr(body + 4);
}

// ---- The closed-loop client -------------------------------------------------

struct ClientOut {
  std::vector<std::string> sessions;
  std::vector<double> open_ms, act_ms, poll_ms, page_ms, close_ms;
  size_t attempted = 0;
  size_t failed = 0;
  std::string error;
};

double Ms(double t0) { return (NowSeconds() - t0) * 1e3; }

/// One timed request/response; `*ms` receives the round trip.
boomer::Status TimedCall(boomer::net::Client* c, const char* span_name,
                         const std::string& request, std::string* body,
                         double* ms) {
  ScopedSpan span("net", span_name);
  const double t0 = NowSeconds();
  boomer::Status s = c->Call(request, body);
  *ms = Ms(t0);
  return s;
}

void RunClient(uint16_t port, const WireConfig& config,
               const std::vector<ActionTrace>& traces,
               const std::vector<Reference>& refs,
               const std::vector<size_t>& schedule, uint64_t session_base,
               bool inject_wrong, ClientOut* out) {
  boomer::net::Client client;
  boomer::net::ClientOptions copts;
  copts.port = port;
  copts.io_timeout_seconds = 30.0;
  if (boomer::Status s = client.Connect(copts); !s.ok()) {
    out->error = "connect: " + s.ToString();
    out->failed = out->attempted = schedule.size();
    return;
  }
  std::string body;
  for (size_t k = 0; k < schedule.size(); ++k) {
    const size_t ti = schedule[k];
    const ActionTrace& trace = traces[ti];
    const uint64_t sid = session_base + k;
    SetSessionTag(sid);
    ++out->attempted;
    ScopedSpan session_span("bench", "session");
    const double s0 = NowSeconds();
    double verbs_ms = 0.0, ms = 0.0, srt_start = 0.0;
    size_t polls = 0, pages = 0, frames = 0;
    bool ok = true;
    std::string why;
    // open (a full session table answers kOverloaded; retry).
    for (;;) {
      boomer::Status s = TimedCall(&client, "Client::open", "open", &body, &ms);
      verbs_ms += ms;
      ++frames;
      out->open_ms.push_back(ms);
      if (s.ok()) break;
      if (s.code() != boomer::StatusCode::kOverloaded) {
        ok = false;
        why = "open: " + s.ToString();
        break;
      }
      ::usleep(1000);
    }
    for (size_t ai = 0; ok && ai < trace.size(); ++ai) {
      const boomer::gui::Action& a = trace.at(ai);
      const bool is_run = a.kind == ActionKind::kRun;
      const std::string request = "act " + boomer::gui::ActionToText(a);
      if (is_run) srt_start = NowSeconds();
      for (;;) {
        boomer::Status s = TimedCall(&client, "Client::act", request, &body,
                                     &ms);
        verbs_ms += ms;
        ++frames;
        out->act_ms.push_back(ms);
        if (s.ok()) break;
        if (s.code() != boomer::StatusCode::kOverloaded) {
          ok = false;
          why = "act: " + s.ToString();
          break;
        }
        ::usleep(200);
      }
    }
    boomer::net::PollReply reply;
    double sleep_ms = 0.0;
    while (ok) {
      boomer::Status s = TimedCall(&client, "Client::poll", "poll", &body, &ms);
      verbs_ms += ms;
      ++frames;
      ++polls;
      out->poll_ms.push_back(ms);
      if (s.ok()) s = boomer::net::ParsePollBody(body, &reply);
      if (!s.ok()) {
        ok = false;
        why = "poll: " + s.ToString();
        break;
      }
      if (!reply.active) break;
      const double z0 = NowSeconds();
      ::usleep(static_cast<useconds_t>(config.poll_interval_us));
      sleep_ms += Ms(z0);
    }
    while (ok && reply.results.size() < reply.result_count) {
      const std::string request =
          "results " + std::to_string(reply.results.size()) + " " +
          std::to_string(config.page_limit);
      boomer::Status s =
          TimedCall(&client, "Client::results", request, &body, &ms);
      verbs_ms += ms;
      ++frames;
      ++pages;
      out->page_ms.push_back(ms);
      size_t offset = 0;
      const size_t before = reply.results.size();
      if (s.ok()) {
        s = boomer::net::ParseResultsBody(body, &offset, &reply.results);
      }
      if (s.ok() && (offset != before || reply.results.size() == before)) {
        s = boomer::Status::IOError("results paging desynchronized");
      }
      if (!s.ok()) {
        ok = false;
        why = "results: " + s.ToString();
      }
    }
    const double end = NowSeconds();
    const double session_ms = (end - s0) * 1e3;
    const double srt_ms = ok ? (end - srt_start) * 1e3 : 0.0;
    {
      boomer::Status s =
          TimedCall(&client, "Client::close", "close", &body, &ms);
      ++frames;
      out->close_ms.push_back(ms);
      if (!s.ok() && ok) {
        ok = false;
        why = "close: " + s.ToString();
      }
    }
    ok = ok && reply.state == boomer::serve::SessionState::kCompleted &&
         reply.status.ok();
    uint64_t digest = ok ? ResultDigest(reply.results) : 0;
    if (inject_wrong && sid == 1) digest ^= 1;
    const bool correct = ok && refs[ti].ok && !refs[ti].truncated &&
                         refs[ti].count == reply.results.size() &&
                         refs[ti].digest == digest;
    if (!correct) {
      ++out->failed;
      if (out->error.empty()) {
        out->error = why.empty() ? "result mismatch on trace " +
                                       std::to_string(ti)
                                 : why;
      }
    }
    JsonObj o;
    o.Int("trace", static_cast<int64_t>(ti))
        .Bool("correct", correct)
        .Num("srt_ms", srt_ms)
        .Num("session_ms", session_ms)
        .Num("end_s", end)
        .Num("verbs_ms", verbs_ms)
        .Num("poll_sleep_ms", sleep_ms)
        .Int("polls", static_cast<int64_t>(polls))
        .Int("pages", static_cast<int64_t>(pages))
        .Int("frames", static_cast<int64_t>(frames))
        .Int("actions", static_cast<int64_t>(trace.size()))
        .Int("results", static_cast<int64_t>(reply.results.size()));
    out->sessions.push_back(o.Dump());
  }
  SetSessionTag(0);
  client.Close();
}

}  // namespace

int RunServeWire(const Args& args) {
  const WireConfig config = ConfigFor(args);
  const ThreadPlan plan = PlanThreads("serve_wire", Nproc(args));
  // The client's copy of the served graph: traces and reference answers.
  // Same generator and preprocessing options as boomer_served.
  boomer::core::PreprocessOptions prep_options;
  prep_options.t_avg_samples = 2000;
  Setup local = RunSetup(config.dataset, config.scale, config.graph_seed,
                         prep_options);
  const std::vector<ActionTrace> traces =
      ServeTraces(local.graph, args.seed, config.per_kind);
  if (args.dump_traces) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(TracesDigest(traces)));
    return 0;
  }
  if (args.served_bin.empty()) Die("--served-bin is required");
  boomer::core::BlenderOptions ref_options;  // the serve flags' blender
  std::vector<Reference> refs;
  for (const ActionTrace& t : traces) {
    refs.push_back(ReferenceReplay(local.graph, *local.prep, ref_options, t));
  }

  // Setup: spawn until /healthz answers, several times; the last child
  // serves the measured phases.
  std::vector<double> setup_s;
  ServedChild child;
  for (size_t i = 0; i < config.setups; ++i) {
    child.Stop();
    setup_s.push_back(
        child.Start(args, config, plan, args.work_dir + "/served"));
  }

  const size_t total_sessions =
      args.quick ? traces.size()
                 : std::max<size_t>(
                       traces.size(),
                       static_cast<size_t>(args.seconds *
                                           config.sessions_per_second) /
                           traces.size() * traces.size());
  std::vector<std::string> phases;
  uint64_t session_base = 1;
  const std::vector<bool> traced_phases =
      args.trace ? std::vector<bool>{false, true} : std::vector<bool>{false};
  std::string first_error;
  for (bool traced : traced_phases) {
    EnableTracing(traced);
    const std::string metrics_before = Metrics(child.port());
    std::vector<ClientOut> outs(plan.clients);
    std::vector<std::vector<size_t>> schedules(plan.clients);
    const std::vector<size_t> order =
        ShuffledOrder(total_sessions, args.seed + (traced ? 1 : 0));
    for (size_t k = 0; k < total_sessions; ++k) {
      schedules[k % plan.clients].push_back(order[k] % traces.size());
    }
    const double p0 = NowSeconds();
    {
      std::vector<std::jthread> threads;
      for (size_t c = 0; c < plan.clients; ++c) {
        threads.emplace_back([&, c] {
          RunClient(child.port(), config, traces, refs, schedules[c],
                    session_base + c * 1000000, args.inject_wrong_result,
                    &outs[c]);
        });
      }
    }
    const double wall = NowSeconds() - p0;
    EnableTracing(false);
    session_base += plan.clients * 1000000;
    const std::string metrics_after = Metrics(child.port());
    ClientOut all;
    for (ClientOut& o : outs) {
      auto append = [](std::vector<double>* dst, const std::vector<double>& v) {
        dst->insert(dst->end(), v.begin(), v.end());
      };
      all.sessions.insert(all.sessions.end(), o.sessions.begin(),
                          o.sessions.end());
      append(&all.open_ms, o.open_ms);
      append(&all.act_ms, o.act_ms);
      append(&all.poll_ms, o.poll_ms);
      append(&all.page_ms, o.page_ms);
      append(&all.close_ms, o.close_ms);
      all.attempted += o.attempted;
      all.failed += o.failed;
      if (first_error.empty()) first_error = o.error;
    }
    JsonObj o;
    o.Bool("traced", traced)
        .Num("start_s", p0)
        .Num("wall_s", wall)
        .Int("attempted", static_cast<int64_t>(all.attempted))
        .Int("failed", static_cast<int64_t>(all.failed))
        .Nums("net_open_ms", all.open_ms)
        .Nums("net_act_ms", all.act_ms)
        .Nums("net_poll_ms", all.poll_ms)
        .Nums("net_results_page_ms", all.page_ms)
        .Nums("net_close_ms", all.close_ms)
        .Raw("metrics_before", metrics_before)
        .Raw("metrics_after", metrics_after)
        .Raw("sessions", JsonArray(all.sessions));
    phases.push_back(o.Dump());
  }
  const double rss_mb = PeakRssMbOf(child.pid());
  child.Stop();
  if (!first_error.empty()) {
    std::fprintf(stderr, "perfbench_harness: first failure: %s\n",
                 first_error.c_str());
  }

  JsonObj config_json;
  config_json.Str("dataset", config.dataset)
      .Num("scale", config.scale)
      .Int("graph_seed", static_cast<int64_t>(config.graph_seed))
      .Int("vertices", static_cast<int64_t>(local.graph.NumVertices()))
      .Int("edges", static_cast<int64_t>(local.graph.NumEdges()))
      .Int("traces", static_cast<int64_t>(traces.size()))
      .Str("traces_digest", std::to_string(TracesDigest(traces)))
      .Int("sessions", static_cast<int64_t>(total_sessions))
      .Int("setups", static_cast<int64_t>(config.setups))
      .Int("clients", static_cast<int64_t>(plan.clients))
      .Int("connections", static_cast<int64_t>(plan.clients))
      .Int("workers", static_cast<int64_t>(plan.workers))
      .Int("server_loops", static_cast<int64_t>(plan.server_loops))
      .Num("poll_interval_ms", config.poll_interval_us / 1e3)
      .Int("page_limit", static_cast<int64_t>(config.page_limit))
      .Int("wal_group_commit", 8)
      .Str("strategy", "DI");
  const auto& pstats = local.prep->pml().build_stats();
  JsonObj pml;
  pml.Int("label_entries", static_cast<int64_t>(pstats.total_label_entries))
      .Num("index_mb",
           static_cast<double>(local.prep->pml().MemoryBytes()) / 1048576.0)
      .Num("t_avg_us", local.prep->t_avg_seconds() * 1e6);
  JsonObj record;
  record.Str("workload", "serve_wire")
      .Int("seed", static_cast<int64_t>(args.seed))
      .Raw("config", config_json.Dump())
      .Nums("setup_s", setup_s)
      .Nums("graph_gen_s", {local.gen_s})
      .Nums("pml_build_s", {local.pml_s})
      .Raw("pml", pml.Dump())
      .Num("peak_rss_mb", rss_mb)
      .Raw("phases", JsonArray(phases));
  return FinishRecord(args, record);
}

}  // namespace perfbench
