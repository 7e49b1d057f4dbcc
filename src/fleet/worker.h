#pragma once
// Worker side of the fleet protocol: a core::CellQueue fed over the
// daemon socket. SweepRunner's claim loop calls claim() /
// complete() / fail() exactly as it would on an in-process queue; this
// class turns those into CLAIM_REQ / RESULT / ERROR frames and maps
// the daemon's (bench, key) cell names onto the worker's own grid
// ordinals and scenario indices.
//
// The map is built by the worker from the SAME grid construction the
// daemon ran (same binary, same forwarded flags), and every claim's
// fingerprint is checked against the worker's own fingerprint for that
// cell — any drift between the two processes' configurations is a
// fatal protocol error, not a silently-wrong table.
//
// Claims are served at-least-once: a cell claimed by a worker that was
// SIGKILLed is re-queued and handed out again, and the original may in
// fact have published before dying. at_least_once() tells the runner
// to re-probe the store before computing (core/sweep.cpp), which is
// what makes worker death lose zero paid work.
//
// One claim slot per connection: the daemon hands a connection at most
// one cell at a time, so the worker process runs its SweepRunner with
// sweep_parallel=1 (the per-cell GEMM pool still uses every thread the
// worker was given).

#include <map>
#include <optional>
#include <string>

#include "core/sweep.h"
#include "fleet/protocol.h"

namespace falvolt::fleet {

class SocketCellQueue : public core::CellQueue {
 public:
  /// `worker_name` is the display name sent in HELLO (logs only).
  SocketCellQueue(std::string socket_path, std::string worker_name);
  ~SocketCellQueue() override;
  SocketCellQueue(const SocketCellQueue&) = delete;
  SocketCellQueue& operator=(const SocketCellQueue&) = delete;

  /// Register one local cell the daemon may claim-hand to us:
  /// bench+key name it on the wire, grid/index locate it in the
  /// runner, fingerprint cross-checks the two sides agree.
  void register_cell(const std::string& bench, const std::string& key,
                     const std::string& fingerprint, int grid, int index);

  /// Connect and complete the HELLO/WELCOME handshake at
  /// kProtocolVersion (the first claim() does it when no caller did).
  /// Throws on connection failure, version rejection, or a malformed
  /// reply.
  void connect_and_hello();

  int worker_id() const { return worker_id_; }

  // core::CellQueue
  std::optional<Claim> claim(int worker) override;
  void complete(const Claim& claim, bool cached, double seconds) override;
  void fail(const Claim& claim, const std::string& error) override;
  bool at_least_once() const override { return true; }

 private:
  struct CellRef {
    std::string fingerprint;
    int grid = 0;
    int index = 0;
  };
  void send_bytes(const std::string& bytes);
  Frame read_frame();
  const CellRef& resolve(const Claim& claim) const;

  std::string socket_path_;
  std::string worker_name_;
  int fd_ = -1;
  int worker_id_ = -1;
  FrameBuffer in_;
  /// (bench, key) -> local cell; reverse_ maps (grid, index) back to
  /// the wire name for RESULT frames.
  std::map<std::pair<std::string, std::string>, CellRef> cells_;
  std::map<std::pair<int, int>, std::pair<std::string, std::string>> reverse_;
};

}  // namespace falvolt::fleet
