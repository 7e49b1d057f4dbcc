// PullThePlug: the crash/fault-injection harness for the store stack.
//
// Everything the store CLAIMS about durability is exercised here
// through io::Env + io::FaultInjector instead of asserted:
//  - atomic_publish never exposes a partial file under its final name,
//    proven by SIGKILLing a child process at every PtP boundary;
//  - every read layer (loose objects, indexed segments, substituters)
//    degrades injected corruption to "recompute" — never throws, never
//    returns a wrong record;
//  - a sweep whose writes are torn/bit-flipped, or whose worker is
//    killed mid-cell, resumes to a byte-identical table, recomputing
//    only the cells whose records never validly published.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "io/env.h"
#include "io/fault_injector.h"
#include "obs/metrics.h"
#include "store/compact.h"
#include "store/result_store.h"
#include "store/store_api.h"

namespace fs = std::filesystem;

namespace falvolt::io {
namespace {

using core::ResultTable;
using core::Scenario;
using core::ScenarioFn;
using core::ScenarioResult;
using core::SweepContext;
using core::SweepRunner;
using core::SweepStoreOptions;
using core::WorkloadOptions;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_fault_injection_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    disarm_faults();
    set_env(nullptr);
    fs::remove_all(dir_);
  }

  static std::vector<Scenario> grid(int n = 6) {
    std::vector<Scenario> scenarios;
    for (int i = 0; i < n; ++i) {
      Scenario s;
      s.key = "cell=" + std::to_string(i);
      s.fault_count = i;
      s.fault_seed = 100 + static_cast<std::uint64_t>(i);
      scenarios.push_back(s);
    }
    return scenarios;
  }

  static SweepStoreOptions store_opts(const std::string& dir) {
    SweepStoreOptions st;
    st.dir = dir;
    st.bench = "fault_test";
    st.config = {{"epochs", "4"}};
    return st;
  }

  static ScenarioFn counting_fn(std::atomic<int>& computed) {
    return [&computed](const Scenario& s, const SweepContext&) {
      ++computed;
      ScenarioResult out;
      out.metrics = {{"value", 10.0 * static_cast<double>(s.fault_count)}};
      out.csv_rows = {{s.key, "row"}};
      out.log = "log " + s.key + "\n";
      return out;
    };
  }

  // One grid through a fresh workload-free runner: the table it returns.
  static ResultTable sweep(const SweepStoreOptions& st,
                           const std::vector<Scenario>& scenarios,
                           ScenarioFn fn) {
    WorkloadOptions opts;
    opts.sweep_parallel = 1;  // serial: the fault-point sequence is exact
    SweepRunner r{opts};
    r.set_prepare_baselines(false);
    r.add_grid({st, scenarios, std::move(fn)});
    return std::move(r.run().front());
  }

  // Valid (frame-validating) records currently readable from `dir`.
  static std::size_t valid_records(const std::string& dir) {
    store::LocalDirStore s(dir, /*create=*/false);
    std::size_t n = 0;
    for (const std::string& fp : s.fingerprints()) {
      if (s.get(fp)) ++n;
    }
    return n;
  }

  std::string dir_;
};

// ---------------------------------------------------------------- parser

TEST_F(FaultInjectionTest, SpecParserAcceptsTheGrammar) {
  EXPECT_FALSE(parse_fault_spec("").enabled());
  EXPECT_FALSE(parse_fault_spec("none").enabled());
  EXPECT_FALSE(parse_fault_spec("mode=none").enabled());

  const FaultSpec ind = parse_fault_spec("mode=independent,p=0.01,seed=9");
  EXPECT_EQ(ind.mode, FaultMode::kIndependent);
  EXPECT_DOUBLE_EQ(ind.p, 0.01);
  EXPECT_EQ(ind.seed, 9u);
  EXPECT_TRUE(ind.torn_writes);
  EXPECT_TRUE(ind.bitflips);
  EXPECT_FALSE(ind.corrupt_reads);
  EXPECT_FALSE(ind.kill);

  const FaultSpec rl =
      parse_fault_spec("mode=runlength,runlen=12,kill=1,torn=0,bitflip=0");
  EXPECT_EQ(rl.mode, FaultMode::kRunLength);
  EXPECT_EQ(rl.run_length, 12u);
  EXPECT_TRUE(rl.kill);
  EXPECT_FALSE(rl.torn_writes);
  EXPECT_FALSE(rl.bitflips);

  // to_string renders a spec the parser accepts back unchanged.
  EXPECT_EQ(to_string(parse_fault_spec(to_string(rl))), to_string(rl));
}

TEST_F(FaultInjectionTest, SpecParserRejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("mode=bogus"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("p=0.5"), std::invalid_argument);  // no mode
  EXPECT_THROW(parse_fault_spec("mode=independent"),
               std::invalid_argument);  // p required
  EXPECT_THROW(parse_fault_spec("mode=independent,p=0"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("mode=independent,p=1.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("mode=independent,p=abc"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("mode=runlength"),
               std::invalid_argument);  // runlen required
  EXPECT_THROW(parse_fault_spec("mode=runlength,runlen=0"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("mode=runlength,runlen=3,p=0.5"),
               std::invalid_argument);  // p is independent-only
  EXPECT_THROW(parse_fault_spec("mode=independent,p=0.5,runlen=3"),
               std::invalid_argument);  // runlen is runlength-only
  EXPECT_THROW(parse_fault_spec("mode=independent,p=0.5,kill=2"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("mode=independent,p=0.5,unknown=1"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("garbage"), std::invalid_argument);
}

// --------------------------------------------------------- atomic publish

TEST_F(FaultInjectionTest, AtomicPublishIsByteIdenticalAndLeavesNoStaging) {
  const std::string final_path = dir_ + "/out/data.bin";
  fs::create_directories(dir_ + "/out");
  std::string bytes = "payload with \0 embedded";
  bytes += std::string(1000, 'x');
  atomic_publish(dir_ + "/tmp", "t", final_path, bytes);
  EXPECT_EQ(env().read_file(final_path), bytes);
  EXPECT_TRUE(fs::is_empty(dir_ + "/tmp"));

  // Republish over an existing file: plain overwrite, same guarantees.
  atomic_publish(dir_ + "/tmp", "t", final_path, "v2");
  EXPECT_EQ(env().read_file(final_path), std::string("v2"));
}

// The plug-pull sweep: SIGKILL a child at every fault point inside
// atomic_publish and assert the invariant a reader depends on — the
// final path either does not exist or holds the complete bytes, NEVER a
// prefix or corruption. Point order (runlen): 1 = PtP before staging,
// 2 = the staging write itself, 3 = PtP staged-not-durable, 4 = PtP
// durable-not-visible, 5 = PtP visible-before-dir-fsync (the rename has
// happened), 6 = PtP fully published.
TEST_F(FaultInjectionTest, PublishSurvivesPlugPullAtEveryBoundary) {
  const std::string bytes(4096, 'A');
  for (std::uint64_t runlen = 1; runlen <= 6; ++runlen) {
    const std::string final_path =
        dir_ + "/pub/rec" + std::to_string(runlen) + ".bin";
    fs::create_directories(dir_ + "/pub");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: pull the plug at fault point `runlen`. Damage kinds are
      // disabled so the kill is the only effect (point 2 then writes the
      // full staged bytes before dying — a pure power-cut model).
      FaultSpec spec;
      spec.mode = FaultMode::kRunLength;
      spec.run_length = runlen;
      spec.kill = true;
      spec.torn_writes = false;
      spec.bitflips = false;
      arm_faults(spec);
      atomic_publish(dir_ + "/pub_tmp", "t", final_path, bytes);
      ::_exit(0);  // only reached if the kill point never fired
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "runlen=" << runlen << ": child exited instead of being killed";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    const std::optional<std::string> readback = env().read_file(final_path);
    if (runlen <= 4) {
      // Killed before the rename: nothing may be visible.
      EXPECT_FALSE(readback.has_value()) << "runlen=" << runlen;
    } else {
      // Killed after the rename: the COMPLETE file must be visible.
      ASSERT_TRUE(readback.has_value()) << "runlen=" << runlen;
      EXPECT_EQ(*readback, bytes) << "runlen=" << runlen;
    }
    // Resume: the same publish against the same directories succeeds and
    // produces the exact bytes, whatever garbage the crash left behind.
    atomic_publish(dir_ + "/pub_tmp", "t", final_path, bytes);
    EXPECT_EQ(env().read_file(final_path), bytes);
  }
}

TEST_F(FaultInjectionTest, TornPublishNeverSurfacesAsARecord) {
  // Independent p=1 with only torn writes: the staged file is truncated
  // and the writer lied, so the publish "succeeds" — but the read side
  // must degrade it. (The record frame is what turns a torn file into a
  // miss; this is the regression test for the deduplicated publish
  // path.)
  store::LocalDirStore s(dir_ + "/store");
  const std::string fp(64, 'a');

  FaultSpec spec = parse_fault_spec("mode=independent,p=1,seed=3,bitflip=0");
  arm_faults(spec);
  s.put(fp, "the payload");
  disarm_faults();

  EXPECT_TRUE(s.contains(fp));           // a (damaged) file exists
  EXPECT_EQ(s.get(fp), std::nullopt);    // but degrades to recompute
  EXPECT_GE(fault_report().torn_writes, 1u);

  // Re-put with faults off repairs the record in place.
  s.put(fp, "the payload");
  EXPECT_EQ(s.get(fp), std::string("the payload"));
}

// ------------------------------------------------- per-layer degradation

// Every layer of the LayeredStore chain must turn injected read
// corruption into nullopt (recompute), never a throw, never wrong
// bytes; and must read cleanly again once disarmed.
TEST_F(FaultInjectionTest, EveryStoreLayerDegradesCorruptReads) {
  const std::string fp_a = std::string(63, 'a') + "1";
  const std::string fp_b = std::string(63, 'b') + "2";

  // Layer fixtures: `local` holds fp_a loose; `seg` holds fp_a in an
  // indexed segment (compacted); `subst` is a substituter holding fp_b.
  {
    store::LocalDirStore local(dir_ + "/local");
    local.put(fp_a, "payload-a");
    store::LocalDirStore seg(dir_ + "/seg");
    seg.put(fp_a, "payload-a");
    store::compact_store(seg);
    store::LocalDirStore subst(dir_ + "/subst");
    subst.put(fp_b, "payload-b");
  }

  for (const char* raw :
       {"mode=independent,p=1,seed=5,read=1", "mode=runlength,runlen=1,read=1"}) {
    SCOPED_TRACE(raw);
    // Open the chains BEFORE arming: segment indexes are parsed at open,
    // and this test targets record reads, not index parsing.
    const auto local = store::open_store(dir_ + "/local");
    const auto seg = store::open_store(dir_ + "/seg");
    const auto layered = store::open_store(dir_ + "/empty", {dir_ + "/subst"});

    arm_faults(parse_fault_spec(raw));
    // RunLength fires only on its Nth point, so probe each chain under a
    // fresh arm; Independent p=1 corrupts every read either way.
    EXPECT_EQ(local->get(fp_a), std::nullopt) << "local layer must degrade";
    arm_faults(parse_fault_spec(raw));
    EXPECT_EQ(seg->get(fp_a), std::nullopt) << "segment layer must degrade";
    arm_faults(parse_fault_spec(raw));
    EXPECT_EQ(layered->get(fp_b), std::nullopt)
        << "substituter layer must degrade";
    disarm_faults();

    // Clean reads afterwards: the corruption was injected in transit,
    // not persisted — no layer may have been poisoned.
    EXPECT_EQ(local->get(fp_a), std::string("payload-a"));
    EXPECT_EQ(seg->get(fp_a), std::string("payload-a"));
    EXPECT_EQ(layered->get(fp_b), std::string("payload-b"));
  }
}

TEST_F(FaultInjectionTest, DamagedSegmentIndexDegradesToMissAtOpen) {
  const std::string fp = std::string(63, 'c') + "3";
  store::LocalDirStore s(dir_ + "/segstore");
  s.put(fp, "segment payload");
  store::compact_store(s);

  // Opening the chain WHILE reads are corrupted: the segment index fails
  // validation, so the whole segment lists as damaged — every get is a
  // miss, nothing throws.
  arm_faults(parse_fault_spec("mode=independent,p=1,seed=11,read=1"));
  const auto chain = store::open_store(dir_ + "/segstore");
  EXPECT_EQ(chain->get(fp), std::nullopt);
  disarm_faults();

  // A clean reopen sees the intact segment again.
  EXPECT_EQ(store::open_store(dir_ + "/segstore")->get(fp),
            std::string("segment payload"));
}

// -------------------------------------------------------- sweep + resume

TEST_F(FaultInjectionTest, SweepUnderTornWritesResumesByteIdentical) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};

  // Clean reference table from an uninjected store.
  const ResultTable reference =
      sweep(store_opts(dir_ + "/ref"), scenarios, counting_fn(computed));
  ASSERT_EQ(computed.load(), 6);

  // Injected run: every write torn or bit-flipped (p=1). The sweep
  // itself must complete — write faults are silent, damage is a READ
  // problem — and its table is computed in memory, so it matches.
  arm_faults(parse_fault_spec("mode=independent,p=1,seed=21"));
  const ResultTable injected =
      sweep(store_opts(dir_ + "/store"), scenarios, counting_fn(computed));
  disarm_faults();
  ASSERT_EQ(computed.load(), 12);
  EXPECT_TRUE(injected.complete());
  EXPECT_EQ(injected.to_csv(), reference.to_csv());
  const FaultReport report = fault_report();
  EXPECT_GT(report.injected, 0u);
  EXPECT_GT(report.torn_writes + report.bitflips, 0u);

  // Resume with faults off: every record was damaged (p=1), so every
  // cell recomputes — degrade-to-recompute, loudly counted, and the
  // final table is byte-identical to the clean reference.
  const std::size_t survivors = valid_records(dir_ + "/store");
  EXPECT_EQ(survivors, 0u);  // p=1 damaged every publish
  const ResultTable resumed =
      sweep(store_opts(dir_ + "/store"), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 18);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.to_csv(), reference.to_csv());

  // The repaired store now replays warm: zero recomputes.
  const ResultTable warm =
      sweep(store_opts(dir_ + "/store"), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 18) << "repaired store must replay warm";
  EXPECT_EQ(warm.to_csv(), reference.to_csv());
}

// The headline scenario: a worker SIGKILLed mid-cell (plug pulled inside
// a record publish) loses exactly the unpublished cells. The resumed
// run replays every durably published record, recomputes only the rest,
// and lands on the byte-identical table.
TEST_F(FaultInjectionTest, KilledWorkerResumesWithZeroLostPaidWork) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};

  const ResultTable reference =
      sweep(store_opts(dir_ + "/ref"), scenarios, counting_fn(computed));
  ASSERT_EQ(computed.load(), 6);

  // Fault-point arithmetic for one serial sweep (see the publish sweep
  // above; reads are not fault points): the manifest publish burns
  // points 1-6, then each cell burns 8 (pre-put PtP, 6 inside
  // atomic_publish, post-put PtP). Point 26 is "cell 2 staged, not yet
  // renamed": cells 0 and 1 are durable, cell 2 dies unpublished.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FaultSpec spec = parse_fault_spec("mode=runlength,runlen=26,kill=1");
    arm_faults(spec);
    std::atomic<int> child_computed{0};
    sweep(store_opts(dir_ + "/store"), scenarios,
          counting_fn(child_computed));
    ::_exit(0);  // not reached: the plug is pulled mid-sweep
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "worker should have been SIGKILLed";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Exactly the cells published before the kill survive.
  ASSERT_EQ(valid_records(dir_ + "/store"), 2u);

  // Resume against the same store: replay 2, recompute only the 4 cells
  // the crash genuinely lost, produce the byte-identical table.
  const ResultTable resumed =
      sweep(store_opts(dir_ + "/store"), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6 + 4);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.cached_cells(), 2u);
  EXPECT_EQ(resumed.computed_cells(), 4u);
  EXPECT_EQ(resumed.to_csv(), reference.to_csv());
}

// ------------------------------------------------------------- telemetry

TEST_F(FaultInjectionTest, InjectionActivityIsCountedAndReported) {
  const std::uint64_t injected0 = obs::counter("io.faults.injected").value();
  const std::uint64_t torn0 = obs::counter("io.faults.torn_writes").value();
  const std::uint64_t ptp0 = obs::counter("io.ptp.armed").value();

  store::LocalDirStore s(dir_ + "/store");
  arm_faults(parse_fault_spec("mode=independent,p=1,seed=2,bitflip=0"));
  s.put(std::string(64, 'd'), "bytes");
  disarm_faults();

  EXPECT_GT(obs::counter("io.faults.injected").value(), injected0);
  EXPECT_GT(obs::counter("io.faults.torn_writes").value(), torn0);
  EXPECT_GT(obs::counter("io.ptp.armed").value(), ptp0);

  const FaultReport report = fault_report();
  EXPECT_GT(report.points, 0u);
  EXPECT_GT(report.injected, 0u);
  EXPECT_GT(report.ptp_armed, 0u);
  EXPECT_EQ(report.kills, 0u);

  const std::string line = fault_report_line();
  EXPECT_NE(line.find("[faults]"), std::string::npos);
  EXPECT_NE(line.find("mode=independent"), std::string::npos);
  EXPECT_NE(line.find("injected"), std::string::npos);
}

TEST_F(FaultInjectionTest, DisarmedEnvIsTheRealPassthrough) {
  // With no injector installed the seam is the real filesystem: bytes
  // round-trip exactly and no fault point counts anything.
  EXPECT_FALSE(faults_armed());
  const FaultReport before = fault_report();
  const std::string path = dir_ + "/plain.bin";
  ASSERT_TRUE(env().write_file(path, "exact bytes"));
  EXPECT_EQ(env().read_file(path), std::string("exact bytes"));
  EXPECT_EQ(env().file_size(path), 11u);
  FALVOLT_PTP();  // a no-op when disarmed
  EXPECT_EQ(fault_report().points, before.points);
}

}  // namespace
}  // namespace falvolt::io
