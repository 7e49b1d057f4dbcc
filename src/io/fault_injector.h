#pragma once
// io::FaultInjector — PullThePlug-style fault injection for the store
// and fleet pipeline (the shape of Katana's tsuba FaultTest.h: FaultMode
// probability hooks plus PtP plug-pull points at every I/O boundary).
//
// We simulate faulty chips all day; this is where we fault our own
// infrastructure. Arm a FaultSpec and every Env write boundary (see
// env.h) becomes a potential fault site:
//
//   torn writes   a write_file persists only a prefix of its bytes and
//                 LIES that it succeeded — models lost sector writes
//                 and firmware write caches. The frame validation of
//                 the store must degrade the damage to "recompute".
//   bit flips     one random bit of the written (or, with read=1, the
//                 returned) bytes flipped — models silent media
//                 corruption. Same degrade contract.
//   plug pulls    with kill=1, a triggered fault point SIGKILLs the
//                 process (no unwinding, no flushing — the plug is
//                 pulled). FALVOLT_PTP() marks the kill points: the
//                 boundaries of atomic_publish and the sweep engine's
//                 store-put path. A crashed run must resume to
//                 byte-identical tables, recomputing only cells whose
//                 records never published.
//
// Fault points fire per FaultMode: Independent (each point faults with
// probability p; High-sensitivity points — the ones inside a publish
// window — use 10*p, clamped to 1) or RunLength (exactly the Nth armed
// point faults, counted from 1 — the deterministic way to park a crash
// on one specific boundary). The injector draws from one rng seeded by
// spec.seed, so a given spec over a serialized I/O sequence (e.g.
// --sweep-parallel 1) is fully deterministic; under concurrent workers
// the per-run fault COUNT distribution is seed-stable but the
// interleaving decides which op draws which number.
//
// Execution-only by construction: the spec is configured via --faults,
// which is excluded from cell fingerprints like every other execution
// knob — an injected run and a clean run address the same cells, which
// is exactly what lets the resume harness diff them.
//
// Activity is surfaced through obs/metrics (io.faults.injected,
// io.faults.torn_writes, io.faults.bitflips, io.ptp.armed) and the
// FaultTestReport-style summary line of fault_report_line().

#include <cstdint>
#include <mutex>
#include <random>
#include <string>

#include "io/env.h"

namespace falvolt::io {

enum class FaultMode {
  kNone,         // no faults
  kIndependent,  // each fault point fires with probability p
  kRunLength,    // exactly the run_length-th armed point fires (from 1)
};

/// How eagerly a PtP point fires under Independent mode: kHigh points
/// sit inside publish windows (staged-but-not-durable, renamed-but-not-
/// fsynced) where a crash is most interesting, and fire at 10*p.
enum class FaultSensitivity { kNormal, kHigh };

struct FaultSpec {
  FaultMode mode = FaultMode::kNone;
  double p = 0.0;                // Independent: per-point probability
  std::uint64_t run_length = 0;  // RunLength: 1-based point index
  std::uint64_t seed = 1;        // rng seed (deterministic per run)
  bool torn_writes = true;       // truncate a faulted write
  bool bitflips = true;          // flip one bit of a faulted write
  bool corrupt_reads = false;    // flip one bit of a faulted read
  bool kill = false;             // faulted PtP/write points pull the plug
  bool enabled() const { return mode != FaultMode::kNone; }
};

/// Parse a --faults spec:
///   mode=independent,p=0.01,seed=7
///   mode=runlength,runlen=12,kill=1,torn=0,bitflip=0
/// Keys: mode (none|independent|runlength; required), p ((0,1];
/// Independent only), runlen (>=1; RunLength only), seed (default 1),
/// torn/bitflip/read/kill (0|1). "" and "none" parse to a disabled
/// spec. Throws std::invalid_argument on anything malformed — drivers
/// reject the spec before any work.
FaultSpec parse_fault_spec(const std::string& spec);

/// Canonical one-line rendering of a spec (logs and the report line).
std::string to_string(const FaultSpec& spec);

/// Install a FaultInjector for `spec` as the process environment and
/// zero the report. No-op for a disabled spec. Not reentrant: arming
/// while armed rearms with fresh counters.
void arm_faults(const FaultSpec& spec);

/// Restore the real environment (keeps the report readable).
void disarm_faults();

bool faults_armed();

struct FaultReport {
  FaultSpec spec;
  std::uint64_t points = 0;       ///< fault points evaluated while armed
  std::uint64_t injected = 0;     ///< points that fired
  std::uint64_t torn_writes = 0;  ///< fired as a torn write
  std::uint64_t bitflips = 0;     ///< fired as a bit flip (write or read)
  std::uint64_t ptp_armed = 0;    ///< PtP points passed while armed
  std::uint64_t kills = 0;        ///< plug pulls requested (process died
                                  ///< there unless the kill hook is stubbed)
};

/// Snapshot of the current (or last) armed session's activity.
FaultReport fault_report();

/// FaultTestReport-style summary, e.g.
///   [faults] mode=independent,p=0.01,seed=7: 210 point(s), 3 injected
///   (1 torn, 2 bitflip), 96 PtP point(s) armed, 0 kill(s)
std::string fault_report_line();

/// PullThePlug point: a no-op unless faults are armed; then counted,
/// and — if the mode fires here and kill=1 — the process dies by
/// SIGKILL without unwinding. Mark every boundary where "the machine
/// lost power here" is a scenario the store must survive.
void ptp(const char* file, int line,
         FaultSensitivity sensitivity = FaultSensitivity::kNormal);

#define FALVOLT_PTP(...) \
  ::falvolt::io::ptp(__FILE__, __LINE__ __VA_OPT__(, ) __VA_ARGS__)

/// The injecting environment. Usually managed through arm_faults();
/// tests may instantiate and set_env() one directly.
class FaultInjector final : public Env {
 public:
  explicit FaultInjector(FaultSpec spec);

  std::optional<std::string> read_file(const std::string& path) override;
  std::optional<std::string> read_range(const std::string& path,
                                        std::uint64_t offset,
                                        std::uint64_t length) override;
  bool write_file(const std::string& path, const std::string& bytes) override;

  const FaultSpec& spec() const { return spec_; }

 private:
  friend void ptp(const char* file, int line, FaultSensitivity sensitivity);
  friend void arm_faults(const FaultSpec& spec);
  friend FaultReport fault_report();

  /// One fault-point decision: counts the point and returns whether it
  /// fires. Thread-safe (one rng, one lock — fault points are file
  /// operations, never hot).
  bool should_fault(FaultSensitivity sensitivity);

  /// Uniform integer in [0, n) from the injector's stream.
  std::uint64_t draw(std::uint64_t n);

  /// Pull the plug: SIGKILL self (no unwinding). Counted first so a
  /// parent inspecting a dead child's store can correlate.
  [[noreturn]] void pull_the_plug();

  /// Corrupt `bytes` in place per the spec (torn truncation or a bit
  /// flip); returns what actually happened for the counters.
  enum class Damage { kNone, kTorn, kBitflip };
  Damage corrupt(std::string& bytes);

  FaultSpec spec_;
  std::mutex mu_;
  std::mt19937_64 rng_;
  std::uint64_t points_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t torn_ = 0;
  std::uint64_t bitflips_ = 0;
  std::uint64_t ptp_armed_ = 0;
  std::uint64_t kills_ = 0;
};

}  // namespace falvolt::io
