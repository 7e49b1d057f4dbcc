#pragma once
// obs::trace — Chrome trace-event JSON emitter (chrome://tracing /
// Perfetto "trace event format", JSON Object variant).
//
// Tracing is off by default and costs one relaxed atomic load per
// TraceSpan construction while off. When enabled (trace_start, driven
// by --trace <file>), spans record complete ("ph": "X") events — name,
// category, microsecond start/duration, a stable small per-thread track
// id, and optional key/value args — into a process-global buffer;
// trace_stop() writes the JSON file in one pass, including "M"
// thread_name metadata events so Perfetto labels the tracks.
//
// Granularity contract: spans are COARSE — a sweep cell, a baseline
// train, a store read/write. Never wrap a per-row or per-chunk kernel
// loop in a span (that is what obs::Counter is for); a fleet run emits
// thousands of events, not millions.
//
// Like metrics, tracing is schedule-only by construction: it observes
// wall time and never touches cell values, fingerprints, or tables —
// asserted by the trace-on/off byte-identity tests.

#include <cstdint>
#include <string>

namespace falvolt::obs {

/// True while a trace file is being recorded. One relaxed load.
bool trace_enabled() noexcept;

/// Begin recording to `path`. The file is opened (and truncated)
/// immediately so an unwritable path fails before hours of compute;
/// events buffer in memory until trace_stop. Throws std::runtime_error
/// on I/O failure and std::logic_error if already recording.
void trace_start(const std::string& path);

/// Write the buffered events as Chrome trace JSON and stop recording.
/// No-op when not recording. Returns the number of events written.
std::size_t trace_stop();

/// Stable small id of the calling thread's trace track (assigned on
/// first use, in thread-creation order; the main thread is usually 0).
int trace_thread_id();

/// Label the calling thread's track in the trace ("worker 3",
/// "main"). Last write wins; no-op while tracing is off.
void set_trace_thread_name(const std::string& name);

/// RAII complete-event span. Construction while tracing is off is a
/// single relaxed load and the span stays inert (args become no-ops).
/// Args must be added before the span ends; they render into the
/// event's "args" object.
class TraceSpan {
 public:
  /// `category` must be a string literal (stored by pointer).
  TraceSpan(const char* category, std::string name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void arg(const char* key, const std::string& value);
  void arg(const char* key, const char* value);
  void arg(const char* key, std::uint64_t value);
  void arg(const char* key, std::int64_t value);
  void arg(const char* key, int value);
  void arg(const char* key, bool value);

 private:
  void add_arg_key(const char* key);

  bool active_ = false;
  const char* category_ = nullptr;
  std::string name_;
  double start_us_ = 0.0;
  std::string args_json_;  // pre-rendered "k": v pairs, comma-joined
};

}  // namespace falvolt::obs
