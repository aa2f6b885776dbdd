#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Span {
  uint64_t id;
  uint64_t parent;
  uint64_t session;
  const char* layer;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<uint64_t> stack;  // open span ids, innermost last
  uint64_t session = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& Local() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(b);
    return b;
  }();
  return *buf;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void EnableTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

void SetSessionTag(uint64_t session) {
  if (TracingEnabled()) Local().session = session;
}

ScopedSpan::ScopedSpan(const char* layer, const char* name) {
  if (!TracingEnabled()) return;
  ThreadBuffer& b = Local();
  active_ = true;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = b.stack.empty() ? 0 : b.stack.back();
  layer_ = layer;
  name_ = name;
  b.stack.push_back(id_);
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end = NowNs();
  ThreadBuffer& b = Local();
  b.stack.pop_back();
  b.spans.push_back(
      Span{id_, parent_, b.session, layer_, name_, start_ns_, end});
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : g_buffers) {
    for (const Span& s : b->spans) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.session), s.layer,
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    b->spans.clear();
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
