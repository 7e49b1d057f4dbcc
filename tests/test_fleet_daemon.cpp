// The fleet scheduler daemon and its wire protocol: cost-balanced
// shard partitioning, frame codec round-trips, the daemon's claim /
// re-queue / shutdown state machine and its start barrier against real
// socket clients, and the in-progress markers that keep sweep_merge
// honest while a fleet is mid-publish.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.h"
#include "fleet/daemon.h"
#include "fleet/protocol.h"
#include "fleet/worker.h"
#include "store/result_store.h"

namespace fs = std::filesystem;

namespace falvolt {
namespace {

// ------------------------------------------------ shard_partition

TEST(ShardPartition, EqualCostsDegradeToRoundRobin) {
  // Equal cost hints carry no balance information; the partition must
  // fall back to exactly the legacy index-modulo layout so existing
  // sharded stores keep their cell ownership.
  const std::vector<double> costs(10, 1.0);
  const std::vector<int> owners = core::shard_partition(costs, 3);
  ASSERT_EQ(owners.size(), costs.size());
  for (std::size_t i = 0; i < owners.size(); ++i) {
    EXPECT_EQ(owners[i], static_cast<int>(i % 3)) << "cell " << i;
  }
}

TEST(ShardPartition, BalancesSkewedCostsBetterThanModulo) {
  // Heavy cells at even indices: index-modulo with two shards piles
  // every heavy cell onto shard 0 (600 vs 6); greedy LPT alternates
  // them and lands on the 303/303 optimum.
  std::vector<double> costs;
  for (int i = 0; i < 12; ++i) costs.push_back(i % 2 == 0 ? 100.0 : 1.0);
  const std::vector<int> owners = core::shard_partition(costs, 2);
  double lpt[2] = {0.0, 0.0};
  double modulo[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < costs.size(); ++i) {
    ASSERT_GE(owners[i], 0);
    ASSERT_LT(owners[i], 2);
    lpt[owners[i]] += costs[i];
    modulo[i % 2] += costs[i];
  }
  const double lpt_max = std::max(lpt[0], lpt[1]);
  EXPECT_LT(lpt_max, std::max(modulo[0], modulo[1]));
  EXPECT_DOUBLE_EQ(lpt_max, 303.0);  // the optimum: total / 2
}

TEST(ShardPartition, DeterministicCompleteAndValidated) {
  const std::vector<double> costs = {7.0, 7.0, 1.0, 12.0, 0.5,
                                     3.0, 12.0, 1.0, 9.0};
  const std::vector<int> a = core::shard_partition(costs, 4);
  const std::vector<int> b = core::shard_partition(costs, 4);
  EXPECT_EQ(a, b);  // independently launched shards must agree
  for (const int owner : a) {
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 4);
  }
  EXPECT_EQ(core::shard_partition(costs, 1), std::vector<int>(9, 0));
  EXPECT_THROW(core::shard_partition(costs, 0), std::invalid_argument);
}

// ------------------------------------------------ protocol codec

TEST(FleetProtocol, TypedFramesRoundTripThroughChunkedStream) {
  const std::string wire =
      fleet::encode_hello({fleet::kProtocolVersion, "worker-7"}) +
      fleet::encode_claim_request() + fleet::encode_welcome({1, 42}) +
      fleet::encode_claim({"fig5b", "faulty=8", "abc123", 2.5}) +
      fleet::encode_result({"fig5b", "faulty=8", "abc123", true, 0.25}) +
      fleet::encode_error("boom") + fleet::encode_shutdown();

  // One byte at a time: reassembly must not care how the stream is
  // chunked.
  fleet::FrameBuffer buf;
  std::vector<fleet::Frame> frames;
  for (const char ch : wire) {
    buf.feed(&ch, 1);
    while (const std::optional<fleet::Frame> f = buf.next()) {
      frames.push_back(*f);
    }
  }
  ASSERT_EQ(frames.size(), 7u);

  fleet::HelloFrame hello;
  ASSERT_TRUE(fleet::decode_hello(frames[0], hello));
  EXPECT_EQ(hello.version, fleet::kProtocolVersion);
  EXPECT_EQ(hello.worker, "worker-7");
  EXPECT_EQ(frames[1].type, fleet::FrameType::kClaimRequest);
  fleet::WelcomeFrame welcome;
  ASSERT_TRUE(fleet::decode_welcome(frames[2], welcome));
  EXPECT_EQ(welcome.worker_id, 42);
  fleet::ClaimFrame claim;
  ASSERT_TRUE(fleet::decode_claim(frames[3], claim));
  EXPECT_EQ(claim.bench, "fig5b");
  EXPECT_EQ(claim.key, "faulty=8");
  EXPECT_EQ(claim.fingerprint, "abc123");
  EXPECT_DOUBLE_EQ(claim.cost, 2.5);
  fleet::ResultFrame result;
  ASSERT_TRUE(fleet::decode_result(frames[4], result));
  EXPECT_TRUE(result.cached);
  EXPECT_DOUBLE_EQ(result.seconds, 0.25);
  std::string message;
  ASSERT_TRUE(fleet::decode_error(frames[5], message));
  EXPECT_EQ(message, "boom");
  EXPECT_EQ(frames[6].type, fleet::FrameType::kShutdown);

  // Cross-decoding is a protocol error, not UB: a CLAIM payload is not
  // a HELLO, and a truncated or padded payload is rejected.
  EXPECT_FALSE(fleet::decode_hello(frames[3], hello));
  fleet::Frame padded = frames[3];
  padded.payload += '\0';
  EXPECT_FALSE(fleet::decode_claim(padded, claim));
  fleet::Frame truncated = frames[3];
  truncated.payload.pop_back();
  EXPECT_FALSE(fleet::decode_claim(truncated, claim));
}

TEST(FleetProtocol, FrameBufferRejectsDamagedLengthWords) {
  {
    fleet::FrameBuffer buf;
    const char zero[4] = {0, 0, 0, 0};  // length 0: no type byte
    buf.feed(zero, sizeof(zero));
    EXPECT_THROW(buf.next(), std::runtime_error);
  }
  {
    fleet::FrameBuffer buf;
    const std::uint32_t huge = fleet::kMaxFrameBytes + 1;
    char bytes[4];
    std::memcpy(bytes, &huge, sizeof(huge));
    buf.feed(bytes, sizeof(bytes));
    EXPECT_THROW(buf.next(), std::runtime_error);
  }
  {
    // An incomplete frame is simply "not yet": no throw, no frame.
    fleet::FrameBuffer buf;
    const std::string frame = fleet::encode_error("partial");
    buf.feed(frame.data(), frame.size() - 1);
    EXPECT_FALSE(buf.next().has_value());
  }
}

// ------------------------------------------------ daemon integration

struct ServeOutcome {
  fleet::DaemonStats stats;
  std::string error;
};

class FleetDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_fleet_daemon_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    sock_ = dir_ + "/daemon.sock";
  }
  void TearDown() override { fs::remove_all(dir_); }

  // serve() on a side thread; the test plays the worker processes from
  // the main thread. `live` counts the worker processes (1 by default:
  // the "worker process" is us).
  std::thread serve(fleet::Daemon& daemon, ServeOutcome& out,
                    const std::atomic<int>* live = nullptr) {
    return std::thread([&daemon, &out, live] {
      try {
        out.stats = daemon.serve([live] { return live ? live->load() : 1; });
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    });
  }

  // Worker `a`'s first claim, on a side thread: `claimed` turns true
  // when the daemon answers it.
  static std::thread first_claim(fleet::SocketCellQueue& a,
                                 std::optional<core::CellQueue::Claim>& c,
                                 std::atomic<bool>& claimed) {
    return std::thread([&a, &c, &claimed] {
      c = a.claim(0);
      claimed = true;
    });
  }

  static std::vector<fleet::DaemonCell> four_cells() {
    return {{"bench", "k0", "f0", 5.0},
            {"bench", "k1", "f1", 1.0},
            {"bench", "k2", "f2", 9.0},
            {"bench", "k3", "f3", 3.0}};
  }

  static void register_all(fleet::SocketCellQueue& q) {
    const std::vector<fleet::DaemonCell> cells = four_cells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      q.register_cell(cells[i].bench, cells[i].key, cells[i].fingerprint, 0,
                      static_cast<int>(i));
    }
  }

  // For tests that play one end of the wire by hand: sock_'s address,
  // and the next whole frame on `fd` (none if the peer hangs up first).
  sockaddr_un address() const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock_.c_str(), sizeof(addr.sun_path) - 1);
    return addr;
  }
  static std::optional<fleet::Frame> read_frame(int fd) {
    fleet::FrameBuffer in;
    std::optional<fleet::Frame> frame;
    char chunk[256];
    ssize_t n = 0;
    while (!(frame = in.next()) &&
           (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      in.feed(chunk, static_cast<std::size_t>(n));
    }
    return frame;
  }

  std::string dir_;
  std::string sock_;
};

TEST_F(FleetDaemonTest, ServesCostOrderedAndRequeuesDeadWorkersClaim) {
  fleet::Daemon daemon(fleet::DaemonOptions{sock_}, four_cells());
  daemon.bind_and_listen();
  ServeOutcome out;
  std::thread server = serve(daemon, out);

  // Worker A claims the two most expensive cells, finishes one, and is
  // "SIGKILLed" (abrupt close) with the other in flight.
  auto a = std::make_unique<fleet::SocketCellQueue>(sock_, "a");
  register_all(*a);
  a->connect_and_hello();
  EXPECT_EQ(a->worker_id(), 0);
  const std::optional<core::CellQueue::Claim> c1 = a->claim(0);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->index, 2);  // cost 9.0 first
  EXPECT_DOUBLE_EQ(c1->cost, 9.0);
  a->complete(*c1, /*cached=*/false, 2.5);
  const std::optional<core::CellQueue::Claim> c2 = a->claim(0);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->index, 0);  // cost 5.0 next
  a.reset();  // dies with k0 in flight

  // Worker B inherits the dead worker's cell FIRST (front of queue),
  // then drains the rest in cost order, then gets SHUTDOWN.
  fleet::SocketCellQueue b(sock_, "b");
  register_all(b);
  b.connect_and_hello();
  EXPECT_EQ(b.worker_id(), 1);
  const std::optional<core::CellQueue::Claim> c3 = b.claim(0);
  ASSERT_TRUE(c3.has_value());
  EXPECT_EQ(c3->index, 0);  // the re-queued claim, not the cheapest
  b.complete(*c3, /*cached=*/true, 0.0);  // found A's published record
  const std::optional<core::CellQueue::Claim> c4 = b.claim(0);
  ASSERT_TRUE(c4.has_value());
  EXPECT_EQ(c4->index, 3);  // cost 3.0
  b.complete(*c4, false, 1.0);
  const std::optional<core::CellQueue::Claim> c5 = b.claim(0);
  ASSERT_TRUE(c5.has_value());
  EXPECT_EQ(c5->index, 1);  // cost 1.0
  b.complete(*c5, false, 1.0);
  EXPECT_FALSE(b.claim(0).has_value());  // SHUTDOWN

  server.join();
  EXPECT_EQ(out.error, "");
  EXPECT_EQ(out.stats.computed, 3);
  EXPECT_EQ(out.stats.cached, 1);
  EXPECT_EQ(out.stats.requeued, 1);
  EXPECT_EQ(out.stats.worker_deaths, 1);
  EXPECT_EQ(out.stats.workers_seen, 2);
  ASSERT_EQ(out.stats.workers.size(), 2u);
  EXPECT_EQ(out.stats.workers[0].cells, 1);
  EXPECT_EQ(out.stats.workers[1].cells, 3);
}

TEST_F(FleetDaemonTest, ServesNoClaimUntilEveryLiveWorkerSaidHello) {
  fleet::Daemon daemon(fleet::DaemonOptions{sock_}, four_cells());
  daemon.bind_and_listen();
  ServeOutcome out;
  const std::atomic<int> live{2};
  std::thread server = serve(daemon, out, &live);

  // A says HELLO and asks for a cell: parked while B has not joined.
  fleet::SocketCellQueue a(sock_, "a");
  register_all(a);
  a.connect_and_hello();
  std::optional<core::CellQueue::Claim> ca;
  std::atomic<bool> claimed{false};
  std::thread a_claim = first_claim(a, ca, claimed);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(claimed.load()) << "served before every worker said HELLO";

  // B's first claim says HELLO: the barrier opens, and A, parked first,
  // gets the most expensive cell.
  fleet::SocketCellQueue b(sock_, "b");
  register_all(b);
  const std::optional<core::CellQueue::Claim> cb = b.claim(0);
  a_claim.join();
  ASSERT_TRUE(ca.has_value() && cb.has_value());
  EXPECT_EQ(ca->index, 2);
  a.complete(*ca, false, 0.1);
  b.complete(*cb, false, 0.1);
  while (const std::optional<core::CellQueue::Claim> c = b.claim(0)) {
    b.complete(*c, false, 0.1);
  }
  server.join();
  EXPECT_EQ(out.error, "");
  EXPECT_EQ(out.stats.computed, 4);
  EXPECT_EQ(out.stats.workers_seen, 2);
}

TEST_F(FleetDaemonTest, WorkerDeadBeforeHelloStopsHoldingTheBarrier) {
  fleet::Daemon daemon(fleet::DaemonOptions{sock_}, four_cells());
  daemon.bind_and_listen();
  ServeOutcome out;
  std::atomic<int> live{2};
  std::thread server = serve(daemon, out, &live);

  fleet::SocketCellQueue a(sock_, "a");
  register_all(a);
  a.connect_and_hello();
  std::optional<core::CellQueue::Claim> ca;
  std::atomic<bool> claimed{false};
  std::thread a_claim = first_claim(a, ca, claimed);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(claimed.load()) << "served before every worker said HELLO";

  live = 1;  // the other worker process died before its HELLO
  a_claim.join();
  ASSERT_TRUE(ca.has_value());
  a.complete(*ca, false, 0.1);
  while (const std::optional<core::CellQueue::Claim> c = a.claim(0)) {
    a.complete(*c, false, 0.1);
  }
  server.join();
  EXPECT_EQ(out.error, "");
  EXPECT_EQ(out.stats.computed, 4);
}

TEST_F(FleetDaemonTest, RejectsProtocolVersionMismatchAtHello) {
  fleet::Daemon daemon(fleet::DaemonOptions{sock_}, four_cells());
  daemon.bind_and_listen();
  ServeOutcome out;
  std::thread server = serve(daemon, out);

  // A stale worker binary: a hand-built HELLO at a version no daemon
  // speaks, answered by one ERROR frame before the daemon hangs up.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr = address();
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string hello = fleet::encode_hello({99, "stale"});
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  const std::optional<fleet::Frame> reply = read_frame(fd);
  ::close(fd);
  std::string message;
  ASSERT_TRUE(reply && fleet::decode_error(*reply, message))
      << "the daemon answered no ERROR frame";
  EXPECT_NE(message.find("protocol version mismatch"), std::string::npos)
      << message;

  // The fleet is not poisoned: a current-version worker still drains it.
  fleet::SocketCellQueue good(sock_, "good");
  register_all(good);
  good.connect_and_hello();
  while (const std::optional<core::CellQueue::Claim> c = good.claim(0)) {
    good.complete(*c, false, 0.1);
  }
  server.join();
  EXPECT_EQ(out.error, "");
  EXPECT_EQ(out.stats.computed, 4);
  EXPECT_EQ(out.stats.workers_seen, 1);  // the rejected HELLO never joined
}

TEST_F(FleetDaemonTest, WorkerReportsRejectedHello) {
  // The other end of a version mismatch: a daemon, played by hand, that
  // reads the worker's HELLO and answers it with one ERROR frame.
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr = address();
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  fleet::HelloFrame hello{0, ""};
  std::thread daemon([listener, &hello] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (const std::optional<fleet::Frame> frame = read_frame(fd)) {
      fleet::decode_hello(*frame, hello);
    }
    const std::string error =
        fleet::encode_error("protocol version mismatch: daemon speaks 99");
    (void)::send(fd, error.data(), error.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  fleet::SocketCellQueue worker(sock_, "worker");
  std::string error;
  try {
    worker.connect_and_hello();
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  daemon.join();
  ::close(listener);
  EXPECT_EQ(hello.version, fleet::kProtocolVersion);
  EXPECT_NE(error.find("daemon rejected HELLO: protocol version mismatch"),
            std::string::npos)
      << "connect_and_hello() threw '" << error << "'";
}

TEST_F(FleetDaemonTest, WorkerErrorFailsTheFleet) {
  fleet::Daemon daemon(fleet::DaemonOptions{sock_}, four_cells());
  daemon.bind_and_listen();
  ServeOutcome out;
  std::thread server = serve(daemon, out);

  fleet::SocketCellQueue w(sock_, "w");
  register_all(w);
  w.connect_and_hello();
  const std::optional<core::CellQueue::Claim> c = w.claim(0);
  ASSERT_TRUE(c.has_value());
  w.fail(*c, "cell exploded");

  server.join();
  EXPECT_NE(out.error.find("cell exploded"), std::string::npos) << out.error;
}

// The whole worker stack end to end: a SweepRunner whose claims come
// over the socket publishes to the store, and the resulting table is
// byte-identical to the plain in-process run's.
TEST_F(FleetDaemonTest, SocketFedRunnerMatchesInProcessByteForByte) {
  const auto scenarios = [] {
    std::vector<core::Scenario> out;
    for (int i = 0; i < 5; ++i) {
      core::Scenario s;
      s.key = "a=" + std::to_string(i);
      s.fault_count = i;
      s.cost_hint = 1.0 + i;
      out.push_back(s);
    }
    return out;
  }();
  const auto store_opts = [this](const std::string& sub) {
    core::SweepStoreOptions st;
    st.dir = dir_ + "/" + sub;
    st.bench = "bench_a";
    st.config = {{"epochs", "4"}};
    return st;
  };
  std::atomic<int> computed{0};
  const core::ScenarioFn fn =
      [&computed](const core::Scenario& s, const core::SweepContext&) {
        ++computed;
        core::ScenarioResult out;
        out.metrics = {{"value", 10.0 * static_cast<double>(s.fault_count)}};
        return out;
      };

  // In-process reference.
  core::WorkloadOptions ref_opts;
  ref_opts.sweep_parallel = 2;
  core::SweepRunner ref(ref_opts);
  ref.set_prepare_baselines(false);
  ref.add_grid({store_opts("ref"), scenarios, fn});
  const std::vector<core::ResultTable> ref_tables = ref.run();
  ASSERT_EQ(computed.load(), 5);

  // Socket-fed run against a separate store.
  core::WorkloadOptions wopts;
  wopts.sweep_parallel = 1;  // one claim slot per connection
  const core::SweepStoreOptions st = store_opts("socket");
  std::vector<fleet::DaemonCell> cells;
  for (const core::Scenario& s : scenarios) {
    cells.push_back(fleet::DaemonCell{
        st.bench, s.key, core::fingerprint_cell(st, wopts, s),
        core::scenario_cost_estimate(s)});
  }
  fleet::Daemon daemon(fleet::DaemonOptions{sock_}, cells);
  daemon.bind_and_listen();
  ServeOutcome out;
  std::thread server = serve(daemon, out);

  fleet::SocketCellQueue queue(sock_, "w");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    queue.register_cell(st.bench, scenarios[i].key, cells[i].fingerprint, 0,
                        static_cast<int>(i));
  }
  queue.connect_and_hello();
  core::SweepRunner worker(wopts);
  worker.set_prepare_baselines(false);
  worker.set_cell_queue(&queue);
  worker.add_grid({st, scenarios, fn});
  const std::vector<core::ResultTable> tables = worker.run();
  server.join();

  ASSERT_EQ(out.error, "");
  EXPECT_EQ(out.stats.computed, 5);
  EXPECT_EQ(computed.load(), 10);
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].to_csv(), ref_tables[0].to_csv());

  // Warm replay against the socket run's store: zero new computes, same
  // bytes again — the store is interchangeable between the modes.
  core::SweepRunner warm(ref_opts);
  warm.set_prepare_baselines(false);
  warm.add_grid({st, scenarios, fn});
  const std::vector<core::ResultTable> warmed = warm.run();
  EXPECT_EQ(computed.load(), 10);
  EXPECT_EQ(warmed[0].cached_cells(), 5u);
  EXPECT_EQ(warmed[0].to_csv(), ref_tables[0].to_csv());
}

// ------------------------------------------------ in-progress markers

TEST(InProgressGuard, MarksWhilePublishingAndGarbageCollectsDeadPids) {
  const std::string root =
      ::testing::TempDir() + "falvolt_inprogress_test";
  fs::remove_all(root);
  const std::string marker =
      root + "/tmp/inprogress." + std::to_string(::getpid());
  {
    store::InProgressGuard guard(root);
    EXPECT_TRUE(fs::exists(marker));
    // The caller's own marker is not "another fleet".
    EXPECT_TRUE(store::live_inprogress_pids(root).empty());
  }
  EXPECT_FALSE(fs::exists(marker));  // released on destruction

  // A marker from a SIGKILLed run (dead pid) is invisible AND unlinked,
  // so one crash never wedges future merges.
  const std::string dead = root + "/tmp/inprogress.999999999";
  std::ofstream(dead) << "999999999\n";
  EXPECT_TRUE(store::live_inprogress_pids(root).empty());
  EXPECT_FALSE(fs::exists(dead));

  // A marker from a LIVE foreign process (pid 1 always exists) is
  // reported and left alone.
  const std::string live = root + "/tmp/inprogress.1";
  std::ofstream(live) << "1\n";
  const std::vector<int> pids = store::live_inprogress_pids(root);
  ASSERT_EQ(pids.size(), 1u);
  EXPECT_EQ(pids[0], 1);
  EXPECT_TRUE(fs::exists(live));
  fs::remove_all(root);
}

}  // namespace
}  // namespace falvolt
