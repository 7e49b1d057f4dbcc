#include "obs/trace.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/json.h"

namespace falvolt::obs {

namespace {

struct TraceEvent {
  const char* category;
  std::string name;
  double ts_us;
  double dur_us;
  int tid;
  std::string args_json;
};

struct TraceState {
  std::mutex mu;
  std::atomic<bool> enabled{false};
  std::string path;
  std::chrono::steady_clock::time_point epoch;
  std::vector<TraceEvent> events;
  std::map<int, std::string> thread_names;
  int max_tid_seen = -1;
};

TraceState& state() {
  static TraceState* s = new TraceState();  // immortal
  return *s;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - state().epoch)
      .count();
}

std::string json_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us < 0.0 ? 0.0 : us);
  return buf;
}

}  // namespace

bool trace_enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

int trace_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void set_trace_thread_name(const std::string& name) {
  if (!trace_enabled()) return;
  TraceState& s = state();
  const int tid = trace_thread_id();
  std::lock_guard<std::mutex> lock(s.mu);
  s.thread_names[tid] = name;
}

void trace_start(const std::string& path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.enabled.load(std::memory_order_relaxed)) {
    throw std::logic_error("obs: trace already recording to " + s.path);
  }
  // Open-and-truncate now: an unwritable --trace path must fail before
  // the sweep, exactly like an unwritable --json.
  std::ofstream probe(path, std::ios::trunc);
  if (!probe) {
    throw std::runtime_error("obs: cannot open trace path " + path);
  }
  probe.close();
  s.path = path;
  s.epoch = std::chrono::steady_clock::now();
  s.events.clear();
  s.thread_names.clear();
  s.max_tid_seen = -1;
  s.enabled.store(true, std::memory_order_release);
}

std::size_t trace_stop() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.enabled.load(std::memory_order_relaxed)) return 0;
  s.enabled.store(false, std::memory_order_release);

  std::ofstream out(s.path, std::ios::trunc);
  if (!out) {
    // The path probed writable at start; losing it mid-run (deleted
    // parent dir) degrades to a dropped trace, never a failed sweep.
    std::fprintf(stderr, "[obs] cannot write trace %s — dropped\n",
                 s.path.c_str());
    s.events.clear();
    return 0;
  }
  const int pid = static_cast<int>(::getpid());
  out << "{\"traceEvents\": [\n";
  bool first = true;
  // Thread-track metadata first: every tid that emitted an event gets a
  // label (explicit set_trace_thread_name, else "thread <tid>").
  for (int tid = 0; tid <= s.max_tid_seen; ++tid) {
    const auto it = s.thread_names.find(tid);
    const std::string name =
        it != s.thread_names.end() ? it->second
                                   : "thread " + std::to_string(tid);
    out << (first ? "" : ",\n") << "  {\"name\": \"thread_name\", "
        << "\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"args\": {\"name\": \"" << common::json_escape(name)
        << "\"}}";
    first = false;
  }
  for (const TraceEvent& e : s.events) {
    out << (first ? "" : ",\n") << "  {\"name\": \""
        << common::json_escape(e.name) << "\", \"cat\": \"" << e.category
        << "\", \"ph\": \"X\", \"ts\": " << json_us(e.ts_us)
        << ", \"dur\": " << json_us(e.dur_us) << ", \"pid\": " << pid
        << ", \"tid\": " << e.tid;
    if (!e.args_json.empty()) {
      out << ", \"args\": {" << e.args_json << "}";
    }
    out << "}";
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  const std::size_t n = s.events.size();
  s.events.clear();
  s.thread_names.clear();
  return n;
}

TraceSpan::TraceSpan(const char* category, std::string name)
    : active_(trace_enabled()),
      category_(category),
      name_(std::move(name)) {
  if (active_) start_us_ = now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceState& s = state();
  const double end_us = now_us();
  const int tid = trace_thread_id();
  std::lock_guard<std::mutex> lock(s.mu);
  // trace_stop may have raced us; events after the stop are dropped
  // rather than resurrected into the next trace.
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  if (tid > s.max_tid_seen) s.max_tid_seen = tid;
  s.events.push_back(TraceEvent{category_, std::move(name_), start_us_,
                                end_us - start_us_, tid,
                                std::move(args_json_)});
}

void TraceSpan::add_arg_key(const char* key) {
  if (!args_json_.empty()) args_json_ += ", ";
  args_json_ += '"';
  args_json_ += common::json_escape(key);
  args_json_ += "\": ";
}

void TraceSpan::arg(const char* key, const std::string& value) {
  if (!active_) return;
  add_arg_key(key);
  args_json_ += '"';
  args_json_ += common::json_escape(value);
  args_json_ += '"';
}

void TraceSpan::arg(const char* key, const char* value) {
  arg(key, std::string(value));
}

void TraceSpan::arg(const char* key, std::uint64_t value) {
  if (!active_) return;
  add_arg_key(key);
  args_json_ += std::to_string(value);
}

void TraceSpan::arg(const char* key, std::int64_t value) {
  if (!active_) return;
  add_arg_key(key);
  args_json_ += std::to_string(value);
}

void TraceSpan::arg(const char* key, int value) {
  arg(key, static_cast<std::int64_t>(value));
}

void TraceSpan::arg(const char* key, bool value) {
  if (!active_) return;
  add_arg_key(key);
  args_json_ += value ? "true" : "false";
}

}  // namespace falvolt::obs
