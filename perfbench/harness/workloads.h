// Entry points of the three workloads (see perfbench/NOTES.md for why each
// exists). Each writes one raw JSON record to Args::out; perfbench/run.py
// turns records into the reported metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "graph/graph.h"
#include "gui/actions.h"

namespace perfbench {

int RunBlendFlickr(const Args& args);
int RunServeWire(const Args& args);
int RunServePressure(const Args& args);

/// Writes `record` to args.out and, for a traced run, the spans next to
/// it. Returns the process exit code.
int FinishRecord(const Args& args, const JsonObj& record);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
