// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around each call
// into a program layer (graph generation, preprocessing, Blender::OnAction,
// SessionManager verbs, net::Client verbs). A span carries its layer, name,
// start, end, parent span and the session it belongs to. Spans stay in
// per-thread buffers until the run ends and WriteSpans dumps them; nothing
// is recorded while tracing is off, so the untraced run pays one relaxed
// load per boundary.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>

namespace perfbench {

void EnableTracing(bool on);
bool TracingEnabled();

/// Tags every span this thread opens from now on with `session` (0 = none).
void SetSessionTag(uint64_t session);

/// RAII span. `layer` and `name` must be string literals.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
  const char* layer_ = nullptr;
  const char* name_ = nullptr;
};

/// Writes every recorded span as tab-separated lines
/// `id parent session layer name start_ns end_ns` and clears the buffers.
/// Call after all recording threads have been joined.
bool WriteSpans(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
