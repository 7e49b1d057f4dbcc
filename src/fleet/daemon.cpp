#include "fleet/daemon.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"

namespace falvolt::fleet {

namespace {

// poll() timeout: how long an idle daemon waits between liveness checks.
constexpr int kPollMs = 200;

obs::Counter& claims_counter() {
  static obs::Counter& c = obs::counter("fleet.daemon.claims");
  return c;
}
obs::Counter& results_counter() {
  static obs::Counter& c = obs::counter("fleet.daemon.results");
  return c;
}
obs::Counter& requeued_counter() {
  static obs::Counter& c = obs::counter("fleet.daemon.requeued");
  return c;
}
obs::Counter& workers_counter() {
  static obs::Counter& c = obs::counter("fleet.daemon.workers");
  return c;
}
obs::Counter& deaths_counter() {
  static obs::Counter& c = obs::counter("fleet.daemon.worker_deaths");
  return c;
}

}  // namespace

/// Per-connection state. `inflight` is an index into cells_ (npos =
/// none); `out` buffers bytes the socket could not take yet (POLLOUT
/// drains it — a slow worker must never block the daemon).
struct Daemon::Client {
  int fd = -1;
  int worker_id = -1;
  std::string name;
  FrameBuffer in;
  std::string out;
  bool ready = false;    ///< HELLO accepted
  bool parked = false;   ///< claim requested, queue was empty
  bool shutdown_sent = false;
  std::size_t inflight = static_cast<std::size_t>(-1);
  int cells = 0;
  double busy_seconds = 0.0;

  bool has_inflight() const {
    return inflight != static_cast<std::size_t>(-1);
  }
};

Daemon::Daemon(DaemonOptions opts, std::vector<DaemonCell> cells)
    : opts_(std::move(opts)), cells_(std::move(cells)) {
  // Same policy as the in-process queue: most-expensive-first, stable
  // so equal costs keep the caller's (grid-major) order.
  std::vector<std::size_t> order(cells_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return cells_[a].cost > cells_[b].cost;
                   });
  queue_.assign(order.begin(), order.end());
}

Daemon::~Daemon() {
  for (Client& c : clients_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
  }
}

void Daemon::bind_and_listen() {
  if (opts_.socket_path.empty()) {
    throw std::invalid_argument("fleet daemon: empty socket path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("fleet daemon: socket path '" +
                                opts_.socket_path + "' exceeds the " +
                                std::to_string(sizeof(addr.sun_path) - 1) +
                                "-byte UNIX socket limit");
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("fleet daemon: socket(): " +
                             std::string(std::strerror(errno)));
  }
  ::unlink(opts_.socket_path.c_str());  // stale path from a killed run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("fleet daemon: cannot listen on '" +
                             opts_.socket_path + "': " + why);
  }
}

void Daemon::enqueue_bytes(Client& c, const std::string& bytes) {
  // Try the socket directly first; buffer whatever it refuses.
  // MSG_NOSIGNAL: a worker that died between poll and send must surface
  // as EPIPE (handled at the caller's next poll), not kill the daemon.
  std::size_t off = 0;
  if (c.out.empty()) {
    while (off < bytes.size()) {
      const ssize_t n = ::send(c.fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
  }
  c.out.append(bytes, off, bytes.size() - off);
}

void Daemon::serve_claim(Client& c) {
  if (!failure_.empty() || all_done()) {
    if (!c.shutdown_sent) {
      enqueue_bytes(c, encode_shutdown());
      c.shutdown_sent = true;
      // Nothing left to say: close as soon as the frame is out the door
      // (an orderly close still delivers buffered bytes before EOF), so
      // serve() never waits on a worker's exit timing to return.
      if (c.out.empty()) close_client(c, /*expected=*/true);
    }
    return;
  }
  if (queue_.empty()) {
    // Claims are outstanding elsewhere; park this worker. It wakes on
    // a re-queued cell (the other claimant died) or on SHUTDOWN.
    c.parked = true;
    return;
  }
  const std::size_t idx = queue_.front();
  queue_.pop_front();
  c.inflight = idx;
  c.parked = false;
  const DaemonCell& cell = cells_[idx];
  enqueue_bytes(c, encode_claim(ClaimFrame{cell.bench, cell.key,
                                           cell.fingerprint, cell.cost}));
  claims_counter().add(1);
}

void Daemon::pump_waiters() {
  for (Client& c : clients_) {
    if (c.fd >= 0 && c.ready && c.parked) serve_claim(c);
  }
  if (all_done() || !failure_.empty()) {
    // Release every idle worker; ones mid-compute get theirs when the
    // RESULT arrives and they request again.
    for (Client& c : clients_) {
      if (c.fd >= 0 && c.ready && !c.has_inflight() && !c.shutdown_sent) {
        enqueue_bytes(c, encode_shutdown());
        c.shutdown_sent = true;
        if (c.out.empty()) close_client(c, /*expected=*/true);
      }
    }
  }
}

void Daemon::close_client(Client& c, bool expected) {
  if (c.fd < 0) return;
  ::close(c.fd);
  c.fd = -1;
  if (c.has_inflight()) {
    // The crash contract: an in-flight cell from a dead worker goes
    // back to the FRONT of the queue (it was the most expensive cell
    // available when claimed — it still is).
    queue_.push_front(c.inflight);
    c.inflight = static_cast<std::size_t>(-1);
    ++stats_.requeued;
    requeued_counter().add(1);
    pump_waiters();
  }
  if (!expected && !c.shutdown_sent) {
    ++stats_.worker_deaths;
    deaths_counter().add(1);
  }
}

void Daemon::handle_frame(Client& c, const Frame& frame) {
  if (!c.ready) {
    HelloFrame hello;
    if (!decode_hello(frame, hello)) {
      enqueue_bytes(c, encode_error("fleet daemon: expected HELLO"));
      close_client(c, /*expected=*/true);
      return;
    }
    if (hello.version != kProtocolVersion) {
      // Equal-or-nothing at v1: a stale binary must not join the fleet.
      enqueue_bytes(
          c, encode_error("fleet daemon: protocol version mismatch (daemon " +
                          std::to_string(kProtocolVersion) + ", worker " +
                          std::to_string(hello.version) + ")"));
      close_client(c, /*expected=*/true);
      return;
    }
    c.ready = true;
    c.name = hello.worker;
    c.worker_id = next_worker_id_++;
    ++stats_.workers_seen;
    workers_counter().add(1);
    enqueue_bytes(c, encode_welcome(
                         WelcomeFrame{kProtocolVersion, c.worker_id}));
    return;
  }
  switch (frame.type) {
    case FrameType::kClaimRequest:
      serve_claim(c);
      return;
    case FrameType::kResult: {
      ResultFrame result;
      if (!decode_result(frame, result) || !c.has_inflight()) {
        enqueue_bytes(c, encode_error("fleet daemon: unexpected RESULT"));
        close_client(c, /*expected=*/false);
        return;
      }
      const DaemonCell& cell = cells_[c.inflight];
      if (result.bench != cell.bench || result.key != cell.key ||
          result.fingerprint != cell.fingerprint) {
        // The worker computed a different cell than it was handed —
        // config drift between daemon and worker; fail loudly.
        failure_ = "worker '" + c.name + "' answered claim " + cell.bench +
                   ":" + cell.key + " with " + result.bench + ":" +
                   result.key;
        close_client(c, /*expected=*/false);
        pump_waiters();
        return;
      }
      c.inflight = static_cast<std::size_t>(-1);
      ++done_;
      ++c.cells;
      c.busy_seconds += result.seconds;
      if (result.cached) {
        ++stats_.cached;
      } else {
        ++stats_.computed;
      }
      results_counter().add(1);
      pump_waiters();
      return;
    }
    case FrameType::kError: {
      std::string message;
      decode_error(frame, message);
      if (failure_.empty()) {
        failure_ = "worker '" + c.name + "' failed: " +
                   (message.empty() ? "(malformed ERROR frame)" : message);
      }
      close_client(c, /*expected=*/true);
      pump_waiters();
      return;
    }
    default:
      enqueue_bytes(c, encode_error("fleet daemon: unexpected frame type " +
                                    std::to_string(static_cast<int>(
                                        frame.type))));
      close_client(c, /*expected=*/false);
      return;
  }
}

DaemonStats Daemon::serve(const std::function<int()>& live_workers) {
  if (listen_fd_ < 0) {
    throw std::logic_error("fleet daemon: serve() before bind_and_listen()");
  }
  while (true) {
    // Exit when the work is finished (or doomed) AND every client has
    // drained its outbound buffer and hung up or been released.
    const bool finished = all_done() || !failure_.empty();
    bool clients_open = false;
    for (const Client& c : clients_) {
      if (c.fd >= 0) clients_open = true;
    }
    if (finished && !clients_open) break;

    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    std::vector<std::size_t> owner;  // fds[i+1] -> clients_[owner[i]]
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      Client& c = clients_[i];
      if (c.fd < 0) continue;
      short events = POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
      owner.push_back(i);
    }
    const int rc = ::poll(fds.data(), fds.size(), kPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("fleet daemon: poll(): " +
                               std::string(std::strerror(errno)));
    }
    if (rc == 0) {
      // Liveness: cells remain, nobody is connected, and the parent
      // says every worker process is gone — nothing will ever claim
      // again.
      if (!finished && !clients_open && live_workers() <= 0) {
        throw std::runtime_error(
            "fleet daemon: all workers died with " +
            std::to_string(cells_.size() - done_) + " cell(s) unfinished");
      }
      continue;
    }
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        Client c;
        c.fd = fd;
        clients_.push_back(std::move(c));
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      Client& c = clients_[owner[i - 1]];
      if (c.fd < 0) continue;
      if (fds[i].revents & POLLOUT) {
        while (!c.out.empty()) {
          const ssize_t n =
              ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
          if (n <= 0) break;
          c.out.erase(0, static_cast<std::size_t>(n));
        }
        // A released worker hangs up on SHUTDOWN; once the buffer is
        // drained there is nothing more to say.
        if (c.out.empty() && c.shutdown_sent) {
          close_client(c, /*expected=*/true);
          continue;
        }
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char chunk[4096];
        bool closed = false;
        while (true) {
          const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
          if (n > 0) {
            c.in.feed(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) closed = true;  // orderly EOF
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
              errno != EINTR) {
            closed = true;  // reset — a SIGKILLed worker lands here
          }
          break;
        }
        try {
          while (c.fd >= 0) {
            const std::optional<Frame> frame = c.in.next();
            if (!frame) break;
            handle_frame(c, *frame);
          }
        } catch (const std::exception& e) {
          // Damaged stream (bad length word): drop the connection; an
          // in-flight claim re-queues like any other death.
          close_client(c, /*expected=*/false);
        }
        if (closed && c.fd >= 0) {
          close_client(c, /*expected=*/c.shutdown_sent);
        }
      }
    }
  }
  if (!failure_.empty()) {
    throw std::runtime_error("fleet daemon: " + failure_);
  }
  for (const Client& c : clients_) {
    if (c.worker_id >= 0) {
      stats_.workers.push_back(DaemonStats::WorkerLoad{
          c.worker_id, c.name, c.cells, c.busy_seconds});
    }
  }
  return stats_;
}

}  // namespace falvolt::fleet
