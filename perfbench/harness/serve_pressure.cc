// serve_pressure: an in-process SessionManager under a memory budget with
// the spill tier on (WAL off).
//
// Each client thread interleaves several open sessions on a due-time
// schedule: every action is due one think gap after the previous one, the
// gap being the trace's human latency times a fixed factor. Idle sessions
// hold the CAP they built during formulation, so the summed footprint
// crosses the budget and the degrade, spill and shed rungs run, with spill
// I/O, fault-in and evict/resume. Sessions draw from a pool of traces, so
// each query repeats across sessions. SRT is timed from when Run was due;
// how late the generator ran is reported beside it.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/experiment.h"
#include "gui/trace_builder.h"
#include "gui/trace_io.h"
#include "query/templates.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "common.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using boomer::gui::ActionKind;
using boomer::gui::ActionTrace;
using boomer::serve::SessionId;
using boomer::serve::SessionManager;
using boomer::serve::SessionState;

struct PressureConfig {
  std::string dataset = "wordnet";
  double scale = 0.03;
  uint64_t graph_seed = 7;
  // Trace pool: 3 * per_kind traces, an odd count, so that the median
  // session falls inside one trace's cluster, not between two.
  size_t per_kind = 5;
  size_t setups = 5;  // cheap here; the median of 5 steadies setup_s
  /// The traces' latencies (the blenders' virtual clock) and t_lat are
  /// the human values x this factor.
  double think_factor = 0.004;
  /// Real think gap = the trace's latency x this stretch. Users think
  /// longer than the virtual clock says, so blender work fills about a
  /// sixth of the two workers' time and a Run seldom queues behind another
  /// session's work; that wait grows faster than the host slows, so on a
  /// busier pool srt_* would mostly measure the shared host.
  double think_stretch = 4.0;
  /// Budget = this fraction of the mix's unbudgeted CAP footprint.
  double budget_fraction = 0.25;
  double sessions_per_second = 20.0;  // sizes the session count
  /// Poll interval while a cancelled Run's eviction lands.
  int64_t eviction_poll_us = 20;
};

PressureConfig ConfigFor(const Args& args) {
  PressureConfig c;
  if (args.quick) {
    c.scale = 0.01;
    c.per_kind = 1;
    c.setups = 1;
  }
  return c;
}

double Ms(double t0) { return (NowSeconds() - t0) * 1e3; }

/// Waits for one Run on its own thread: SessionManager::Await returns the
/// moment the worker publishes the result, so the Run's end is timed
/// exactly while the client thread keeps serving its other sessions.
class RunWaiter {
 public:
  RunWaiter(SessionManager* manager, SessionId id, uint64_t tag)
      : thread_([this, manager, id, tag] {
          SetSessionTag(tag);
          {
            ScopedSpan span("serve", "SessionManager::Await");
            result_.emplace(manager->Await(id));
          }
          end_ = NowSeconds();
          done_.store(true, std::memory_order_release);
        }) {}
  RunWaiter(const RunWaiter&) = delete;
  RunWaiter& operator=(const RunWaiter&) = delete;

  bool done() const { return done_.load(std::memory_order_acquire); }
  /// Valid once done().
  boomer::StatusOr<boomer::serve::SessionResult> TakeResult() {
    return std::move(*result_);
  }
  double end() const { return end_; }

 private:
  std::optional<boomer::StatusOr<boomer::serve::SessionResult>> result_;
  double end_ = 0.0;
  std::atomic<bool> done_{false};
  std::jthread thread_;  // last: joins before the members it writes go
};

/// One client slot: the state of the session it is currently driving.
struct Slot {
  std::vector<size_t> schedule;  // trace indices, in order
  size_t next_session = 0;
  // Current session.
  bool open = false;
  bool awaiting = false;  // Run submitted, waiting for the result
  std::unique_ptr<RunWaiter> waiter;  // null: poll instead
  /// Evicted: reopen, then replay the first `replay` actions at once.
  bool reopening = false;
  size_t replay = 0;
  SessionId id = 0;
  uint64_t tag = 0;
  size_t trace = 0;
  size_t next_action = 0;
  double due = 0.0;  // when the next step is due
  double session_start = 0.0;
  double run_due = 0.0;
  double admission_start = -1.0;
  int resumes = 0;
  /// Runs the shedder cancelled, and when the current one was first seen.
  int cancelled_runs = 0;
  double cancelled_since = -1.0;
};

struct ClientOut {
  std::vector<std::string> sessions;
  std::vector<double> submit_us, admission_ms, late_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t peak_result_bytes = 0;
  std::string error;
};

struct Shared {
  SessionManager* manager;
  const std::vector<ActionTrace>* traces;
  const std::vector<Reference>* refs;
  const PressureConfig* config;
  bool inject_wrong;
};

constexpr int kMaxResumes = 8;
/// How often the client looks at a finished RunWaiter. Only delays the
/// result check and the slot's next session; the SRT is timed by the
/// waiter.
constexpr double kWaiterCheckSeconds = 0.0005;

/// An evicted session: reads its snapshot, releases it, and schedules the
/// slot to reopen and replay. SessionManager::ResumeSession does the same
/// but waits for admission, and a client thread that blocks there can
/// deadlock against its own idle sessions, which nothing sheds while every
/// client waits; so the benchmark resumes through the non-blocking open.
/// `submitted` actions of the trace had been handed to the session.
bool BeginResume(const Shared& sh, Slot* slot, size_t submitted,
                 std::string* why) {
  if (slot->resumes >= kMaxResumes) {
    *why = "evicted " + std::to_string(kMaxResumes) + " times";
    return false;
  }
  auto snap = sh.manager->GetEviction(slot->id);
  if (!snap.ok()) {
    *why = "GetEviction: " + snap.status().ToString();
    return false;
  }
  auto saved = boomer::gui::LoadTrace(snap->prefix + ".trace");
  (void)sh.manager->CloseSession(slot->id);
  for (const char* ext : {".trace", ".query", ".wal"}) {
    std::error_code ec;
    std::filesystem::remove(snap->prefix + ext, ec);
  }
  const ActionTrace& trace = (*sh.traces)[slot->trace];
  bool matches = saved.ok() && saved->size() == snap->actions_applied &&
                 saved->size() <= submitted;
  for (size_t i = 0; matches && i < saved->size(); ++i) {
    matches = boomer::gui::ActionToText(saved->at(i)) ==
              boomer::gui::ActionToText(trace.at(i));
  }
  if (!matches) {
    *why = "eviction snapshot does not match the submitted actions";
    return false;
  }
  ++slot->resumes;
  slot->open = false;
  slot->awaiting = false;
  slot->reopening = true;
  slot->replay = submitted;
  slot->due = NowSeconds();
  return true;
}

/// Submits one action; a full queue is retried once the session drains.
boomer::Status Submit(const Shared& sh, const Slot& slot,
                      const boomer::gui::Action& a) {
  for (;;) {
    boomer::Status s = [&] {
      ScopedSpan span("serve", "SessionManager::SubmitAction");
      return sh.manager->SubmitAction(slot.id, a);
    }();
    if (s.code() != boomer::StatusCode::kOverloaded) return s;
    (void)sh.manager->WaitIdle(slot.id);
  }
}

void FinishSession(const Shared& sh, Slot* slot, ClientOut* out,
                   boomer::serve::SessionResult result, double end, bool ok,
                   const std::string& why, size_t* live_result_bytes) {
  const Reference& ref = (*sh.refs)[slot->trace];
  const size_t n = result.results.size();
  size_t bytes = 0;
  for (const auto& m : result.results) {
    bytes += sizeof(m) + m.assignment.capacity() * sizeof(m.assignment[0]);
  }
  *live_result_bytes += bytes;
  out->peak_result_bytes = std::max(out->peak_result_bytes, *live_result_bytes);
  ok = ok && result.state == SessionState::kCompleted && result.status.ok() &&
       !result.report.truncated();
  uint64_t digest = ok ? ResultDigest(result.results) : 0;
  if (sh.inject_wrong && slot->tag == 1) digest ^= 1;
  const bool correct = ok && ref.ok && !ref.truncated && ref.count == n &&
                       ref.digest == digest;
  if (!correct) {
    ++out->failed;
    if (out->error.empty()) {
      out->error =
          why.empty()
              ? "trace " + std::to_string(slot->trace) + ": " +
                    boomer::serve::SessionStateName(result.state) + ", " +
                    result.status.ToString() + ", truncation " +
                    boomer::core::TruncationReasonName(
                        result.report.truncation) +
                    ", " + std::to_string(n) + " results, expected " +
                    std::to_string(ref.count)
              : why;
    }
  }
  {
    ScopedSpan span("serve", "SessionManager::CloseSession");
    (void)sh.manager->CloseSession(slot->id);
  }
  *live_result_bytes -= bytes;
  const boomer::core::BlendReport& r = result.report;
  const double srt_ms = ok ? (end - slot->run_due) * 1e3 : 0.0;
  JsonObj o;
  o.Int("trace", static_cast<int64_t>(slot->trace))
      .Bool("correct", correct)
      .Num("srt_ms", srt_ms)
      .Num("session_ms", (end - slot->session_start) * 1e3)
      .Num("end_s", end)
      .Num("backlog_ms", r.run_backlog_seconds * 1e3)
      .Num("drain_ms", r.run_drain_wall_seconds * 1e3)
      .Num("enum_ms", r.enumeration_wall_seconds * 1e3)
      .Num("formulation_ms", r.FormulationBlendSeconds() * 1e3)
      .Num("run_overhead_ms",
           ok ? srt_ms - (r.run_drain_wall_seconds +
                          r.enumeration_wall_seconds) * 1e3
              : 0.0)
      .Int("edges_immediate",
           static_cast<int64_t>(r.edges_processed_immediately))
      .Int("edges_idle", static_cast<int64_t>(r.edges_processed_idle))
      .Int("edges_at_run", static_cast<int64_t>(r.edges_processed_at_run))
      .Int("pairs_added", static_cast<int64_t>(r.pvs_totals.pairs_added))
      .Int("prune_removals", static_cast<int64_t>(r.prune_removals))
      .Int("results", static_cast<int64_t>(n))
      .Int("expected_results", static_cast<int64_t>(ref.count))
      .Str("state", boomer::serve::SessionStateName(result.state))
      .Str("status", result.status.ToString())
      .Str("truncation", boomer::core::TruncationReasonName(r.truncation))
      .Num("cap_mb", static_cast<double>(r.cap_stats.size_bytes) / 1048576.0)
      .Bool("degraded", r.degrade != boomer::core::DegradeLevel::kNone)
      .Int("levels_spilled", static_cast<int64_t>(r.levels_spilled))
      .Int("levels_faulted_in", static_cast<int64_t>(r.levels_faulted_in))
      .Int("spill_rebuilds", static_cast<int64_t>(r.spill_rebuilds))
      .Int("resumes", slot->resumes)
      .Int("cancelled_runs", slot->cancelled_runs);
  out->sessions.push_back(o.Dump());
  slot->open = slot->awaiting = slot->reopening = false;
  slot->due = end;  // the next session opens right away
}

void RunClient(const Shared& sh, std::vector<Slot> slots, uint64_t tag_base,
               ClientOut* out) {
  const PressureConfig& config = *sh.config;
  const double poll_s = config.eviction_poll_us * 1e-6;
  size_t live_result_bytes = 0;
  uint64_t next_tag = tag_base;
  auto think_s = [&](const ActionTrace& t, size_t i) {
    return t.at(i).latency_micros * 1e-6 * config.think_stretch;
  };
  auto fail = [&](Slot* slot, const std::string& why) {
    FinishSession(sh, slot, out, boomer::serve::SessionResult{}, NowSeconds(),
                  false, why, &live_result_bytes);
  };
  const double t0 = NowSeconds();
  for (Slot& s : slots) s.due = t0;
  for (;;) {
    // Pick the slot whose next step is due first.
    Slot* slot = nullptr;
    for (Slot& s : slots) {
      // A slot whose last open is still being retried is not done.
      const bool done = !s.open && !s.reopening && s.admission_start < 0.0 &&
                        s.next_session >= s.schedule.size();
      if (done) continue;
      if (slot == nullptr || s.due < slot->due) slot = &s;
    }
    if (slot == nullptr) break;
    const double now = NowSeconds();
    if (slot->due > now) {
      // Sleep through long gaps and spin through the last 0.2 ms, so a
      // step starts within a few microseconds of when it is due.
      if (slot->due - now > 0.0003) {
        ::usleep(static_cast<useconds_t>(1e6 * (slot->due - now) - 200));
      }
      continue;
    }
    std::string why;
    if (!slot->open) {
      // Open the slot's next session, or reopen an evicted one. A shut
      // admission gate is retried without blocking the other slots.
      if (!slot->reopening && slot->admission_start < 0.0) {
        slot->admission_start = now;
        slot->session_start = now;
        slot->trace = slot->schedule[slot->next_session++];
        slot->tag = next_tag++;
        slot->resumes = 0;
        slot->cancelled_runs = 0;
        slot->cancelled_since = -1.0;
        ++out->attempted;
        out->late_ms.push_back((now - slot->due) * 1e3);
      }
      SetSessionTag(slot->tag);
      boomer::StatusOr<SessionId> id = [&] {
        ScopedSpan span("serve", "SessionManager::OpenSession");
        return sh.manager->OpenSession();
      }();
      if (!id.ok() && id.status().code() == boomer::StatusCode::kOverloaded) {
        slot->due = NowSeconds() + 0.0005;
        continue;
      }
      if (!slot->reopening) {
        out->admission_ms.push_back(Ms(slot->admission_start));
        slot->admission_start = -1.0;
      }
      if (!id.ok()) {
        fail(slot, "open: " + id.status().ToString());
        continue;
      }
      slot->id = *id;
      slot->open = true;
      const ActionTrace& trace = (*sh.traces)[slot->trace];
      if (!slot->reopening) {
        slot->next_action = 0;
        slot->due = NowSeconds() + think_s(trace, 0);
        continue;
      }
      // Replay what the evicted session had been given, at once.
      slot->reopening = false;
      boomer::Status s = boomer::Status::OK();
      for (size_t i = 0; s.ok() && i < slot->replay; ++i) {
        s = Submit(sh, *slot, trace.at(i));
      }
      if (s.code() == boomer::StatusCode::kEvicted &&
          BeginResume(sh, slot, slot->replay, &why)) {
        continue;
      }
      if (!s.ok()) {
        fail(slot, why.empty() ? "replay: " + s.ToString() : why);
        continue;
      }
      slot->awaiting = slot->replay == trace.size();
      if (slot->awaiting) {
        slot->waiter =
            std::make_unique<RunWaiter>(sh.manager, slot->id, slot->tag);
      }
      slot->due = NowSeconds();
      continue;
    }
    SetSessionTag(slot->tag);
    const ActionTrace& trace = (*sh.traces)[slot->trace];
    if (slot->awaiting) {
      if (slot->waiter != nullptr && !slot->waiter->done()) {
        slot->due = NowSeconds() + kWaiterCheckSeconds;
        continue;
      }
      double end = NowSeconds();
      boomer::StatusOr<boomer::serve::SessionResult> r = [&] {
        if (slot->waiter != nullptr) {
          end = slot->waiter->end();
          auto taken = slot->waiter->TakeResult();
          slot->waiter.reset();
          return taken;
        }
        ScopedSpan span("serve", "SessionManager::PollSession");
        return sh.manager->PollSession(slot->id);
      }();
      const bool eviction_in_flight =
          r.ok() && r->state == SessionState::kCompleted &&
          r->report.truncation == boomer::core::TruncationReason::kEvicted;
      if (eviction_in_flight && slot->cancelled_since < 0.0) {
        ++slot->cancelled_runs;
        slot->cancelled_since = NowSeconds();
      }
      if (r.ok() && r->state == SessionState::kActive) {
        slot->due = NowSeconds() + poll_s;
      } else if (eviction_in_flight &&
                 NowSeconds() - slot->cancelled_since < 1.0) {
        // The shedder cancelled this Run and is still writing the
        // eviction snapshot: the session shows kCompleted, truncated with
        // reason kEvicted, until the eviction lands and it turns kEvicted.
        // Wait for that and resume (see NOTES.md, known defects).
        slot->due = NowSeconds() + poll_s;
      } else if (r.ok() && r->state == SessionState::kEvicted) {
        slot->cancelled_since = -1.0;
        if (!BeginResume(sh, slot, trace.size(), &why)) fail(slot, why);
      } else if (!r.ok()) {
        fail(slot, "poll: " + r.status().ToString());
      } else {
        FinishSession(sh, slot, out, std::move(r).value(), end, true, "",
                      &live_result_bytes);
      }
      continue;
    }
    // Submit the due action.
    const boomer::gui::Action& a = trace.at(slot->next_action);
    out->late_ms.push_back((now - slot->due) * 1e3);
    if (a.kind == ActionKind::kRun) slot->run_due = slot->due;
    const double s0 = NowSeconds();
    const boomer::Status s = Submit(sh, *slot, a);
    out->submit_us.push_back((NowSeconds() - s0) * 1e6);
    if (s.code() == boomer::StatusCode::kEvicted) {
      // The due action goes in right after the replay.
      if (!BeginResume(sh, slot, slot->next_action, &why)) fail(slot, why);
      continue;
    }
    if (!s.ok()) {
      fail(slot, "submit: " + s.ToString());
      continue;
    }
    ++slot->next_action;
    if (a.kind == ActionKind::kRun) {
      slot->awaiting = true;
      slot->waiter =
          std::make_unique<RunWaiter>(sh.manager, slot->id, slot->tag);
      slot->due = NowSeconds() + kWaiterCheckSeconds;
    } else {
      slot->due += think_s(trace, slot->next_action);
    }
  }
  SetSessionTag(0);
}

std::string StatsJson(const boomer::serve::ServeStats& s) {
  JsonObj o;
  o.Int("sessions_degraded", static_cast<int64_t>(s.sessions_degraded))
      .Int("session_spills", static_cast<int64_t>(s.session_spills))
      .Int("spill_failures", static_cast<int64_t>(s.spill_failures))
      .Int("evictions", static_cast<int64_t>(s.evictions))
      .Int("sessions_resumed", static_cast<int64_t>(s.sessions_resumed))
      .Int("shed_stalls", static_cast<int64_t>(s.shed_stalls))
      .Int("actions_rejected", static_cast<int64_t>(s.actions_rejected))
      .Int("admission_rejected", static_cast<int64_t>(s.admission_rejected))
      .Int("peak_cap_bytes", static_cast<int64_t>(s.peak_cap_bytes))
      .Int("peak_spilled_bytes", static_cast<int64_t>(s.peak_spilled_bytes))
      .Int("peak_live_sessions", static_cast<int64_t>(s.peak_live_sessions));
  return o.Dump();
}

}  // namespace

int RunServePressure(const Args& args) {
  const PressureConfig config = ConfigFor(args);
  const ThreadPlan plan = PlanThreads("serve_pressure", Nproc(args));
  boomer::core::PreprocessOptions prep_options;
  prep_options.t_avg_samples = 2000;  // as the serving daemon

  std::vector<double> setup_s, gen_s, pml_s;
  Setup setup;
  EnableTracing(args.trace);
  for (size_t i = 0; i < config.setups; ++i) {
    setup = Setup();
    setup = RunSetup(config.dataset, config.scale, config.graph_seed,
                     prep_options);
    setup_s.push_back(setup.total_s);
    gen_s.push_back(setup.gen_s);
    pml_s.push_back(setup.pml_s);
  }
  EnableTracing(false);

  // Pool: Q1/Q3/Q5 round-robin on a fixed instance seed, with the Exp-3
  // WordNet bounds, so the edges with upper 5 defer and drain at Run.
  // Users are time-compressed: the latencies, which drive the blender's
  // virtual clock, and the real think gaps are both human latency x
  // think_factor (t_lat too, below).
  std::vector<ActionTrace> traces;
  for (size_t i = 0; i < 3 * config.per_kind; ++i) {
    constexpr uint64_t kInstanceSeed = 2018;
    const boomer::query::TemplateId t = std::vector<boomer::query::TemplateId>{
        boomer::query::TemplateId::kQ1, boomer::query::TemplateId::kQ3,
        boomer::query::TemplateId::kQ5}[i % 3];
    boomer::query::QueryInstantiator inst(setup.graph, kInstanceSeed + i);
    auto q = inst.Instantiate(
        t, boomer::bench::Exp3Overrides(boomer::graph::DatasetKind::kWordNet,
                                        t));
    if (!q.ok()) Die("instantiate failed: " + q.status().ToString());
    boomer::gui::LatencyModel latency(boomer::gui::LatencyParams{},
                                      kInstanceSeed + i);
    auto base = boomer::gui::BuildTrace(
        *q, boomer::gui::DefaultSequence(*q), &latency);
    if (!base.ok()) Die("trace build failed: " + base.status().ToString());
    traces.push_back(
        Rejitter(*base, args.seed * 7919 + i, config.think_factor));
  }
  if (args.dump_traces) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(TracesDigest(traces)));
    return 0;
  }

  boomer::core::BlenderOptions blender_options;  // serving defaults, but
  blender_options.t_lat_seconds =                // t_lat compressed too
      boomer::gui::LatencyParams{}.edge_seconds * config.think_factor;
  std::vector<Reference> refs;
  std::vector<double> ref_cap_bytes;
  for (const ActionTrace& t : traces) {
    refs.push_back(
        ReferenceReplay(setup.graph, *setup.prep, blender_options, t));
    ref_cap_bytes.push_back(static_cast<double>(refs.back().cap_bytes));
  }
  // The mix's unbudgeted footprint: every live slot holding a mean-sized
  // CAP. Deterministic in the seed, so the budget is too.
  double mean_cap = 0.0;
  for (double b : ref_cap_bytes) mean_cap += b / ref_cap_bytes.size();
  const size_t live_slots = plan.clients * plan.sessions_per_client;
  const size_t budget = static_cast<size_t>(config.budget_fraction * mean_cap *
                                            static_cast<double>(live_slots));

  const size_t total_sessions =
      args.quick ? traces.size()
                 : std::max<size_t>(
                       traces.size(),
                       static_cast<size_t>(args.seconds *
                                           config.sessions_per_second) /
                           traces.size() * traces.size());
  std::vector<std::string> phases;
  double rss_mb = 0.0;
  const std::vector<bool> traced_phases =
      args.trace ? std::vector<bool>{false, true} : std::vector<bool>{false};
  uint64_t tag_base = 1;
  std::string first_error;
  for (bool traced : traced_phases) {
    const std::string dir = args.work_dir + "/pressure";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/spill");
    std::filesystem::create_directories(dir + "/snap");
    boomer::serve::ServeOptions options;
    options.num_workers = plan.workers;
    // The table never gates admission (the memory budget does): a client
    // blocked in ResumeSession must not wait on a slot that only its own
    // evicted-but-not-yet-closed sessions hold.
    options.max_live_sessions = 8 * live_slots;
    options.memory_budget_bytes = budget;
    options.spill_dir = dir + "/spill";
    options.snapshot_dir = dir + "/snap";
    options.blender = blender_options;
    if (traced) {
      boomer::obs::Enable();
    } else {
      boomer::obs::Disable();
    }
    EnableTracing(traced);
    const std::string obs_before = boomer::obs::Snapshot().ToJson();
    const std::vector<size_t> order =
        ShuffledOrder(total_sessions, args.seed + (traced ? 1 : 0));
    std::vector<ClientOut> outs(plan.clients);
    double wall = 0.0;
    double p0 = 0.0;
    boomer::serve::ServeStats stats;
    {
      SessionManager manager(setup.graph, *setup.prep, options);
      const Shared sh{&manager, &traces, &refs, &config,
                      args.inject_wrong_result};
      std::vector<std::vector<Slot>> slots(plan.clients);
      for (size_t c = 0; c < plan.clients; ++c) {
        slots[c].resize(plan.sessions_per_client);
      }
      for (size_t k = 0; k < total_sessions; ++k) {
        const size_t c = k % plan.clients;
        const size_t s = (k / plan.clients) % plan.sessions_per_client;
        slots[c][s].schedule.push_back(order[k] % traces.size());
      }
      p0 = NowSeconds();
      {
        std::vector<std::jthread> threads;
        for (size_t c = 0; c < plan.clients; ++c) {
          threads.emplace_back([&, c] {
            RunClient(sh, std::move(slots[c]), tag_base + c * 1000000, &outs[c]);
          });
        }
      }
      wall = NowSeconds() - p0;
      stats = manager.stats();
    }
    EnableTracing(false);
    const std::string obs_after = boomer::obs::Snapshot().ToJson();
    tag_base += plan.clients * 1000000;
    if (!traced) rss_mb = PeakRssMb();
    ClientOut all;
    for (ClientOut& o : outs) {
      auto append = [](std::vector<double>* dst, const std::vector<double>& v) {
        dst->insert(dst->end(), v.begin(), v.end());
      };
      all.sessions.insert(all.sessions.end(), o.sessions.begin(),
                          o.sessions.end());
      append(&all.submit_us, o.submit_us);
      append(&all.admission_ms, o.admission_ms);
      append(&all.late_ms, o.late_ms);
      all.attempted += o.attempted;
      all.failed += o.failed;
      all.peak_result_bytes += o.peak_result_bytes;
      if (first_error.empty()) first_error = o.error;
    }
    JsonObj o;
    o.Bool("traced", traced)
        .Num("start_s", p0)
        .Num("wall_s", wall)
        .Int("attempted", static_cast<int64_t>(all.attempted))
        .Int("failed", static_cast<int64_t>(all.failed))
        .Nums("submit_us", all.submit_us)
        .Nums("admission_ms", all.admission_ms)
        .Nums("late_ms", all.late_ms)
        .Int("result_bytes_peak", static_cast<int64_t>(all.peak_result_bytes))
        .Raw("serve_stats", StatsJson(stats))
        .Raw("metrics_before", obs_before)
        .Raw("metrics_after", obs_after)
        .Raw("sessions", JsonArray(all.sessions));
    phases.push_back(o.Dump());
  }
  std::filesystem::remove_all(args.work_dir + "/pressure");
  if (!first_error.empty()) {
    std::fprintf(stderr, "perfbench_harness: first failure: %s\n",
                 first_error.c_str());
  }

  const auto& pstats = setup.prep->pml().build_stats();
  JsonObj config_json;
  config_json.Str("dataset", config.dataset)
      .Num("scale", config.scale)
      .Int("graph_seed", static_cast<int64_t>(config.graph_seed))
      .Int("vertices", static_cast<int64_t>(setup.graph.NumVertices()))
      .Int("edges", static_cast<int64_t>(setup.graph.NumEdges()))
      .Int("traces", static_cast<int64_t>(traces.size()))
      .Str("traces_digest", std::to_string(TracesDigest(traces)))
      .Int("sessions", static_cast<int64_t>(total_sessions))
      .Int("setups", static_cast<int64_t>(config.setups))
      .Int("clients", static_cast<int64_t>(plan.clients))
      .Int("sessions_per_client", static_cast<int64_t>(plan.sessions_per_client))
      .Int("workers", static_cast<int64_t>(plan.workers))
      .Int("connections", 0)
      .Num("think_factor", config.think_factor)
      .Num("think_stretch", config.think_stretch)
      .Num("budget_fraction", config.budget_fraction)
      .Num("unbudgeted_cap_mb",
           mean_cap * static_cast<double>(live_slots) / 1048576.0)
      .Num("budget_mb", static_cast<double>(budget) / 1048576.0)
      .Str("strategy", "DI");
  JsonObj pml;
  pml.Int("label_entries", static_cast<int64_t>(pstats.total_label_entries))
      .Num("index_mb",
           static_cast<double>(setup.prep->pml().MemoryBytes()) / 1048576.0)
      .Num("t_avg_us", setup.prep->t_avg_seconds() * 1e6);
  JsonObj record;
  record.Str("workload", "serve_pressure")
      .Int("seed", static_cast<int64_t>(args.seed))
      .Raw("config", config_json.Dump())
      .Nums("setup_s", setup_s)
      .Nums("graph_gen_s", gen_s)
      .Nums("pml_build_s", pml_s)
      .Raw("pml", pml.Dump())
      .Num("peak_rss_mb", rss_mb)
      .Raw("phases", JsonArray(phases));
  return FinishRecord(args, record);
}

}  // namespace perfbench
