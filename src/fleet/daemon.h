#pragma once
// The fleet scheduler daemon: owns the cost-ordered cell queue and
// hands one cell at a time to worker processes over the protocol.h
// frames. Control plane only — workers publish record payloads
// directly to the shared store; the daemon never sees one.
//
// Scheduling contract:
//   - Cells are served most-expensive-first (stable on the order given,
//     so equal costs keep grid-major order — the same policy as the
//     in-process SweepRunner queue, which is what makes the two modes
//     byte-identical).
//   - Start barrier: no claim is served until every live worker process
//     has said HELLO (one dead before it stops counting), so a worker
//     slow to start still gets its share of the queue.
//   - A worker holds at most one claim at a time (CLAIM_REQ -> CLAIM ->
//     RESULT). A worker that disconnects with a claim outstanding — a
//     crash, a SIGKILL, a pulled plug — has its cell pushed back to the
//     FRONT of the queue and re-served to the next claimant: worker
//     death is a scheduled event, not a fleet failure, and no paid work
//     is lost (the re-claimant re-probes the store first; see
//     core::CellQueue::at_least_once).
//   - When the queue is empty but claims are still in flight, a
//     requesting worker is parked; it is woken with a re-queued cell or
//     a SHUTDOWN, whichever comes first.
//   - A worker ERROR frame fails the whole fleet (same fail-fast
//     contract as the in-process SweepRunner).
//
// The daemon is single-threaded (poll over the listen socket and every
// client); all state lives on one thread, so there are no locks and no
// data races by construction.

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "fleet/protocol.h"

namespace falvolt::fleet {

/// One schedulable cell, by name. `bench` + `key` identify the cell to
/// a worker that built the same grids; `fingerprint` is the
/// content-address its result must land under (validated on RESULT).
struct DaemonCell {
  std::string bench;
  std::string key;
  std::string fingerprint;
  double cost = 0.0;
};

struct DaemonOptions {
  std::string socket_path;
};

struct DaemonStats {
  int computed = 0;       ///< RESULTs with cached=0 (fresh compute)
  int cached = 0;         ///< RESULTs with cached=1 (store replay)
  int requeued = 0;       ///< cells re-queued after a worker died
  int workers_seen = 0;   ///< distinct accepted connections
  int worker_deaths = 0;  ///< disconnects before SHUTDOWN
  /// Per-worker tail of the fleet summary: what each connection
  /// reported back (busy_seconds sums the RESULT frames' seconds).
  struct WorkerLoad {
    int worker_id = 0;
    std::string name;
    int cells = 0;
    double busy_seconds = 0.0;
  };
  std::vector<WorkerLoad> workers;
};

class Daemon {
 public:
  /// `cells` in any order; the daemon cost-sorts them (stable,
  /// most-expensive-first).
  Daemon(DaemonOptions opts, std::vector<DaemonCell> cells);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Create, bind and listen on the UNIX socket. Call BEFORE forking
  /// workers so no worker can race the bind. Throws on failure.
  void bind_and_listen();

  const std::string& socket_path() const { return opts_.socket_path; }

  /// Serve until every cell has a RESULT, then SHUTDOWN all workers
  /// and return. `live_workers` is polled between socket events (the
  /// parent's waitpid bookkeeping): the start barrier waits for that
  /// many HELLOs, and when it reports zero live workers, none are
  /// connected, and cells remain, the fleet is unrecoverable and
  /// serve() throws. Also throws on a worker ERROR frame.
  DaemonStats serve(const std::function<int()>& live_workers);

 private:
  struct Client;
  void close_client(Client& c, bool expected);
  void enqueue_bytes(Client& c, const std::string& bytes);
  void serve_claim(Client& c);
  void handle_frame(Client& c, const Frame& frame);
  void pump_waiters();
  bool all_done() const { return done_ == cells_.size(); }

  DaemonOptions opts_;
  std::vector<DaemonCell> cells_;
  std::deque<std::size_t> queue_;  ///< pending cell indices, cost-ordered
  std::size_t done_ = 0;
  bool barrier_open_ = false;  ///< every live worker has said HELLO
  int listen_fd_ = -1;
  std::vector<Client> clients_;
  int next_worker_id_ = 0;
  DaemonStats stats_;
  std::string failure_;  ///< first worker ERROR, empty = healthy
};

}  // namespace falvolt::fleet
