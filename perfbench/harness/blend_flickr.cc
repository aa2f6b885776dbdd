// blend_flickr: in-process, single-threaded blending on the flickr analog.
//
// Every trace is a Q1..Q6 formulation whose GUI latencies are paper-scaled
// (scale^2, as in Exp 3), so the expensive edges defer to Run and the SRT
// is dominated by the PML-backed PVS work and result enumeration. Each
// session replays one trace on a fresh DI Blender; a pass replays every
// trace once, and every pass replays identical work.
#include <cstdio>
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "core/blender.h"
#include "gui/latency_model.h"
#include "gui/trace_builder.h"
#include "obs/metrics.h"
#include "query/templates.h"
#include "common.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using boomer::core::BlenderOptions;
using boomer::gui::ActionKind;
using boomer::gui::ActionTrace;

struct BlendConfig {
  double scale = 0.005;
  uint64_t graph_seed = 42;
  size_t instances = 2;  // per template
  size_t setups = 3;
  double pass_seconds = 1.25;  // --seconds per pass of the trace set
  size_t max_results = 200000;
};

BlendConfig ConfigFor(const Args& args) {
  BlendConfig c;
  if (args.quick) {
    c.scale = 0.001;
    c.instances = 1;
    c.setups = 1;
  }
  return c;
}

double LatencyFactor(const BlendConfig& c) { return c.scale * c.scale; }

BlenderOptions BlendOptions(const BlendConfig& c) {
  BlenderOptions o;
  o.strategy = boomer::core::Strategy::kDeferToIdle;
  o.t_lat_seconds = boomer::gui::LatencyParams{}.edge_seconds *
                    LatencyFactor(c);  // t_lat = t_e
  o.max_results = c.max_results;
  return o;
}

std::vector<ActionTrace> BlendFlickrTraces(const boomer::graph::Graph& g,
                                           uint64_t seed, size_t instances,
                                           double latency_factor) {
  // The query set is fixed: Q1..Q6 x `instances`, drawn from a constant
  // instance seed with the Exp-3 bound schedule. `seed` redraws the
  // formulation order and the (paper-scaled, jittered) latencies.
  constexpr uint64_t kInstanceSeed = 2018;
  boomer::gui::LatencyParams params;
  params.movement_seconds *= latency_factor;
  params.selection_seconds *= latency_factor;
  params.drag_seconds *= latency_factor;
  params.edge_seconds *= latency_factor;
  params.bounds_seconds *= latency_factor;
  std::vector<ActionTrace> traces;
  for (boomer::query::TemplateId t : boomer::query::kAllTemplates) {
    boomer::query::QueryInstantiator inst(
        g, kInstanceSeed * 1000003 + static_cast<uint64_t>(t));
    const auto overrides = boomer::bench::Exp3Overrides(
        boomer::graph::DatasetKind::kFlickr, t);
    for (size_t i = 0; i < instances; ++i) {
      auto q = inst.Instantiate(t, overrides);
      if (!q.ok()) Die("instantiate failed: " + q.status().ToString());
      // Every second instance ends with an Exp-6 style modification:
      // loosening the last edge rolls back its processed component.
      std::vector<boomer::gui::Action> modifications;
      if (i % 2 == 1) {
        const boomer::query::QueryEdgeId e = q->LiveEdges().back();
        const boomer::query::Bounds b = q->Edge(e).bounds;
        modifications.push_back(boomer::gui::Action::SetBounds(
            e, boomer::query::Bounds{b.lower, b.upper + 1}, 0));
      }
      boomer::gui::LatencyModel latency(params, kInstanceSeed);
      auto base = boomer::gui::BuildTrace(
          *q, boomer::gui::DefaultSequence(*q), &latency, modifications);
      if (!base.ok()) Die("trace build failed: " + base.status().ToString());
      traces.push_back(
          Rejitter(*base, seed * 7919 + traces.size()));
    }
  }
  return traces;
}

struct Phase {
  std::vector<std::string> sessions;
  std::vector<double> act_edge_ms;
  std::vector<double> act_modify_ms;
  double session_wall_s = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
};

Phase RunPhase(const Setup& setup, const BlendConfig& config,
               const std::vector<ActionTrace>& traces,
               const std::vector<Reference>& refs, size_t passes, bool traced,
               uint64_t seed, bool inject_wrong, uint64_t* session_counter) {
  Phase phase;
  EnableTracing(traced);
  if (traced) {
    boomer::obs::Enable();
  } else {
    boomer::obs::Disable();
  }
  boomer::obs::Counter* within =
      boomer::obs::internal::CounterFor("pml.within_lookups");
  const BlenderOptions options = BlendOptions(config);
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t ti : ShuffledOrder(traces.size(), seed + pass)) {
      const ActionTrace& trace = traces[ti];
      const uint64_t sid = ++*session_counter;
      SetSessionTag(sid);
      ++phase.attempted;
      const uint64_t within0 = within->Value();
      double formulation_ms = 0.0;
      double run_ms = 0.0;
      bool ok = true;
      const double s0 = NowSeconds();
      boomer::core::Blender blender(setup.graph, *setup.prep, options);
      {
        ScopedSpan session_span("bench", "session");
        for (const boomer::gui::Action& a : trace.actions()) {
          const double work0 = blender.report().cap_build_wall_seconds;
          const double t0 = NowSeconds();
          boomer::Status st;
          {
            ScopedSpan span("core", "Blender::OnAction");
            st = blender.OnAction(a);
          }
          const double ms = (NowSeconds() - t0) * 1e3;
          if (!st.ok()) {
            ok = false;
            break;
          }
          if (a.kind == ActionKind::kRun) {
            run_ms = ms;
            continue;
          }
          formulation_ms += ms;
          const bool did_work =
              blender.report().cap_build_wall_seconds != work0;
          if (did_work && a.kind == ActionKind::kNewEdge) {
            phase.act_edge_ms.push_back(ms);
          } else if (did_work && a.kind == ActionKind::kModify) {
            phase.act_modify_ms.push_back(ms);
          }
        }
      }
      const double session_s = NowSeconds() - s0;
      phase.session_wall_s += session_s;
      const boomer::core::BlendReport& r = blender.report();
      // A session that reaches the result cap is checked like any other:
      // the DR reference enumerates under the same cap.
      const bool capped = blender.Results().size() >= options.max_results;
      ok = ok && blender.run_complete() && !r.truncated();
      uint64_t digest = ResultDigest(blender.Results());
      if (inject_wrong && sid == 1) digest ^= 1;
      const bool correct = ok && refs[ti].ok && !refs[ti].truncated &&
                           refs[ti].count == blender.Results().size() &&
                           refs[ti].digest == digest;
      if (!correct) ++phase.failed;
      JsonObj s;
      s.Int("trace", static_cast<int64_t>(ti))
          .Int("pass", static_cast<int64_t>(pass))
          .Bool("correct", correct)
          .Bool("capped", capped)
          .Num("srt_ms", r.run_backlog_seconds * 1e3 + run_ms)
          .Num("session_ms", session_s * 1e3)
          .Num("end_s", s0 + session_s)
          .Num("run_ms", run_ms)
          .Num("backlog_ms", r.run_backlog_seconds * 1e3)
          .Num("drain_ms", r.run_drain_wall_seconds * 1e3)
          .Num("enum_ms", r.enumeration_wall_seconds * 1e3)
          .Num("formulation_ms", formulation_ms)
          .Int("edges_immediate",
               static_cast<int64_t>(r.edges_processed_immediately))
          .Int("edges_idle", static_cast<int64_t>(r.edges_processed_idle))
          .Int("edges_at_run", static_cast<int64_t>(r.edges_processed_at_run))
          .Int("pairs_added", static_cast<int64_t>(r.pvs_totals.pairs_added))
          .Int("prune_removals", static_cast<int64_t>(r.prune_removals))
          .Int("results", static_cast<int64_t>(blender.Results().size()))
          .Int("within_lookups",
               static_cast<int64_t>(within->Value() - within0))
          .Num("cap_mb", static_cast<double>(r.cap_stats.size_bytes) / 1048576.0)
          .Int("levels_spilled", static_cast<int64_t>(r.levels_spilled))
          .Int("levels_faulted_in", static_cast<int64_t>(r.levels_faulted_in))
          .Int("spill_rebuilds", static_cast<int64_t>(r.spill_rebuilds));
      phase.sessions.push_back(s.Dump());
    }
  }
  EnableTracing(false);
  SetSessionTag(0);
  return phase;
}

}  // namespace

int RunBlendFlickr(const Args& args) {
  const BlendConfig config = ConfigFor(args);
  boomer::core::PreprocessOptions prep_options;
  // The parallel PML build (bit-identical to the serial one) on the cores
  // the single-threaded sessions leave idle; setup_s measures it.
  prep_options.pml_build_threads = std::min<size_t>(4, Nproc(args));

  // Setup, repeated; the last one serves the measured phases.
  std::vector<double> setup_s, gen_s, pml_s;
  Setup setup;
  EnableTracing(args.trace);
  for (size_t i = 0; i < config.setups; ++i) {
    setup = Setup();  // free the previous graph and index first
    setup = RunSetup("flickr", config.scale, config.graph_seed, prep_options);
    setup_s.push_back(setup.total_s);
    gen_s.push_back(setup.gen_s);
    pml_s.push_back(setup.pml_s);
  }
  EnableTracing(false);

  const std::vector<ActionTrace> traces = BlendFlickrTraces(
      setup.graph, args.seed, config.instances, LatencyFactor(config));
  if (args.dump_traces) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(TracesDigest(traces)));
    return 0;
  }

  // Reference answers, before and outside every timed phase.
  std::vector<Reference> refs;
  for (const ActionTrace& t : traces) {
    refs.push_back(ReferenceReplay(setup.graph, *setup.prep,
                                   BlendOptions(config), t));
  }

  const size_t passes =
      args.quick ? 1
                 : std::max<size_t>(
                       1, static_cast<size_t>(args.seconds /
                                                  config.pass_seconds +
                                              0.5));
  uint64_t session_counter = 0;
  std::vector<std::string> phases;
  double rss_mb = 0.0;
  const std::vector<bool> traced_phases =
      args.trace ? std::vector<bool>{false, true} : std::vector<bool>{false};
  for (bool traced : traced_phases) {
    const double p0 = NowSeconds();
    Phase p = RunPhase(setup, config, traces, refs, passes, traced, args.seed,
                       args.inject_wrong_result, &session_counter);
    const double wall = NowSeconds() - p0;
    if (!traced) rss_mb = PeakRssMb();
    JsonObj o;
    o.Bool("traced", traced)
        .Num("start_s", p0)
        .Num("wall_s", wall)
        .Num("session_wall_s", p.session_wall_s)
        .Int("attempted", static_cast<int64_t>(p.attempted))
        .Int("failed", static_cast<int64_t>(p.failed))
        .Nums("act_edge_ms", p.act_edge_ms)
        .Nums("act_modify_ms", p.act_modify_ms)
        .Raw("sessions", JsonArray(p.sessions));
    phases.push_back(o.Dump());
  }

  const auto& stats = setup.prep->pml().build_stats();
  JsonObj config_json;
  config_json.Str("dataset", "flickr")
      .Num("scale", config.scale)
      .Int("graph_seed", static_cast<int64_t>(config.graph_seed))
      .Int("vertices", static_cast<int64_t>(setup.graph.NumVertices()))
      .Int("edges", static_cast<int64_t>(setup.graph.NumEdges()))
      .Int("traces", static_cast<int64_t>(traces.size()))
      .Str("traces_digest", std::to_string(TracesDigest(traces)))
      .Int("passes", static_cast<int64_t>(passes))
      .Int("setups", static_cast<int64_t>(config.setups))
      .Int("pml_build_threads",
           static_cast<int64_t>(prep_options.pml_build_threads))
      .Num("latency_factor", LatencyFactor(config))
      .Num("t_lat_s", BlendOptions(config).t_lat_seconds)
      .Int("max_results", static_cast<int64_t>(config.max_results))
      .Str("strategy", "DI")
      .Int("clients", 1)
      .Int("workers", 0)
      .Int("connections", 0);
  JsonObj pml;
  pml.Int("label_entries", static_cast<int64_t>(stats.total_label_entries))
      .Num("index_mb",
           static_cast<double>(setup.prep->pml().MemoryBytes()) / 1048576.0)
      .Num("t_avg_us", setup.prep->t_avg_seconds() * 1e6);
  JsonObj record;
  record.Str("workload", "blend_flickr")
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
