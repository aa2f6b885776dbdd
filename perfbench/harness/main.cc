// perfbench_harness: runs one benchmark workload and writes its raw record.
//
//   perfbench_harness --workload blend_flickr|serve_wire|serve_pressure
//                     --seed N --seconds S --out PATH --work-dir DIR
//                     [--trace] [--quick] [--served-bin PATH]
//   perfbench_harness --print-plan --workload W [--nproc N]
//   perfbench_harness --dump-traces --workload W --seed N [--quick]
//
// perfbench/run.py builds and drives this binary and computes every
// reported metric from the record; see perfbench/NOTES.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "spans.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

int FinishRecord(const Args& args, const JsonObj& record) {
  if (!WriteFile(args.out, record.Dump() + "\n")) {
    Die("cannot write " + args.out);
  }
  if (args.trace && !WriteSpans(args.out + ".spans")) {
    Die("cannot write " + args.out + ".spans");
  }
  return 0;
}

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload W --seed N --seconds S "
               "--out PATH --work-dir DIR [--trace] [--quick] "
               "[--served-bin PATH] [--print-plan [--nproc N]] "
               "[--dump-traces] [--inject-wrong-result]\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    auto next_int = [&]() -> int64_t {
      auto v = boomer::ParseInt64(next());
      if (!v.ok() || *v < 0) Usage();
      return *v;
    };
    if (flag == "--workload") {
      a.workload = next();
    } else if (flag == "--seed") {
      a.seed = static_cast<uint64_t>(next_int());
    } else if (flag == "--seconds") {
      auto v = boomer::ParseDouble(next());
      if (!v.ok() || *v <= 0.0) Usage();
      a.seconds = *v;
    } else if (flag == "--out") {
      a.out = next();
    } else if (flag == "--work-dir") {
      a.work_dir = next();
    } else if (flag == "--served-bin") {
      a.served_bin = next();
    } else if (flag == "--trace") {
      a.trace = true;
    } else if (flag == "--quick") {
      a.quick = true;
    } else if (flag == "--dump-traces") {
      a.dump_traces = true;
    } else if (flag == "--print-plan") {
      a.print_plan = true;
    } else if (flag == "--nproc") {
      a.nproc = static_cast<size_t>(next_int());
    } else if (flag == "--inject-wrong-result") {
      a.inject_wrong_result = true;
    } else {
      Usage();
    }
  }
  if (a.workload.empty()) Usage();
  if (!a.print_plan && !a.dump_traces && (a.out.empty() || a.work_dir.empty())) {
    Usage();
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::Parse(argc, argv);
  if (args.print_plan) {
    const perfbench::ThreadPlan p =
        perfbench::PlanThreads(args.workload, perfbench::Nproc(args));
    std::printf("clients %zu sessions_per_client %zu workers %zu loops %zu "
                "runnable %zu\n",
                p.clients, p.sessions_per_client, p.workers, p.server_loops,
                p.Runnable());
    return 0;
  }
  if (args.workload == "blend_flickr") return perfbench::RunBlendFlickr(args);
  if (args.workload == "serve_wire") return perfbench::RunServeWire(args);
  if (args.workload == "serve_pressure") {
    return perfbench::RunServePressure(args);
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
