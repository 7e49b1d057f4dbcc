#include "obs/metrics.h"

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/json.h"

namespace falvolt::obs {

namespace {

// Per-thread shard slot, assigned round-robin on first use. Threads are
// far longer-lived than increments, so a modulo collision between two
// threads costs an occasional shared cache line, never correctness.
int thread_shard() {
  static std::atomic<unsigned> next{0};
  thread_local const int slot = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(Counter::kShards));
  return slot;
}

// The registry. node-stable containers (std::map + unique_ptr values)
// so a Counter& handed out once stays valid forever; entries are never
// erased.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
};

Registry& registry() {
  static Registry* r = new Registry();  // immortal: outlives static dtors
  return *r;
}

}  // namespace

void Counter::add(std::uint64_t n) noexcept {
  shards_[thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t sum = 0;
  for (const Shard& s : shards_) {
    sum += s.v.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::unique_ptr<Counter>& slot = r.counters[name];
  if (!slot) slot.reset(new Counter());
  return *slot;
}

std::vector<MetricSample> snapshot_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<MetricSample> out;
  out.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {  // std::map: name-sorted
    out.push_back(MetricSample{name, c->value()});
  }
  return out;
}

std::string encode_metrics_json(const std::vector<MetricSample>& samples,
                                int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad;
    out += "  \"";
    out += common::json_escape(samples[i].name);
    out += "\": ";
    out += std::to_string(samples[i].value);
  }
  if (!samples.empty()) {
    out += '\n';
    out += pad;
  }
  out += '}';
  return out;
}

void write_metrics_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs: cannot open metrics JSON path " + path);
  }
  out << "{\n  \"metrics\": "
      << encode_metrics_json(snapshot_metrics(), /*indent=*/2) << "\n}\n";
}

}  // namespace falvolt::obs
