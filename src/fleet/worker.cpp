#include "fleet/worker.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace falvolt::fleet {

SocketCellQueue::SocketCellQueue(std::string socket_path,
                                 std::string worker_name)
    : socket_path_(std::move(socket_path)),
      worker_name_(std::move(worker_name)) {}

SocketCellQueue::~SocketCellQueue() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketCellQueue::register_cell(const std::string& bench,
                                    const std::string& key,
                                    const std::string& fingerprint, int grid,
                                    int index) {
  cells_[{bench, key}] = CellRef{fingerprint, grid, index};
  reverse_[{grid, index}] = {bench, key};
}

void SocketCellQueue::send_bytes(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("fleet worker: daemon connection lost (send)");
    }
    off += static_cast<std::size_t>(n);
  }
}

Frame SocketCellQueue::read_frame() {
  while (true) {
    if (std::optional<Frame> frame = in_.next()) return *frame;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in_.feed(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("fleet worker: daemon connection lost (recv)");
  }
}

void SocketCellQueue::connect_and_hello() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("fleet worker: socket path '" + socket_path_ +
                                "' exceeds the UNIX socket limit");
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("fleet worker: socket(): " +
                             std::string(std::strerror(errno)));
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("fleet worker: cannot connect to daemon at '" +
                             socket_path_ + "': " + why);
  }
  send_bytes(encode_hello({kProtocolVersion, worker_name_}));
  const Frame reply = read_frame();
  if (reply.type == FrameType::kError) {
    std::string message;
    decode_error(reply, message);
    throw std::runtime_error("fleet worker: daemon rejected HELLO: " +
                             message);
  }
  WelcomeFrame welcome;
  if (!decode_welcome(reply, welcome)) {
    throw std::runtime_error("fleet worker: malformed WELCOME from daemon");
  }
  worker_id_ = welcome.worker_id;
}

std::optional<core::CellQueue::Claim> SocketCellQueue::claim(int /*worker*/) {
  // The first claim says HELLO: the runner claims once it has triaged
  // and prepared its baselines, i.e. once it is ready to work.
  if (fd_ < 0) connect_and_hello();
  // A daemon that is done closes right after its final frame, so this
  // CLAIM_REQ may hit EPIPE with a SHUTDOWN already sitting in our
  // receive buffer — fall through to the read and let IT decide whether
  // the connection ended cleanly.
  try {
    send_bytes(encode_claim_request());
  } catch (const std::exception&) {
    // Drain what the daemon said before closing (recv still yields
    // buffered bytes after the peer's close, then EOF).
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        in_.feed(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    while (const std::optional<Frame> buffered = in_.next()) {
      if (buffered->type == FrameType::kShutdown) return std::nullopt;
    }
    throw;
  }
  // May block indefinitely: an empty queue with claims in flight
  // elsewhere parks us until the daemon re-queues or shuts down.
  const Frame frame = read_frame();
  if (frame.type == FrameType::kShutdown) return std::nullopt;
  if (frame.type == FrameType::kError) {
    std::string message;
    decode_error(frame, message);
    throw std::runtime_error("fleet worker: daemon error: " + message);
  }
  ClaimFrame c;
  if (!decode_claim(frame, c)) {
    throw std::runtime_error("fleet worker: malformed CLAIM from daemon");
  }
  const auto it = cells_.find({c.bench, c.key});
  if (it == cells_.end()) {
    throw std::runtime_error("fleet worker: claimed cell " + c.bench + ":" +
                             c.key + " is not in this worker's grids");
  }
  if (it->second.fingerprint != c.fingerprint) {
    // Daemon and worker disagree on what this cell IS — config drift.
    throw std::runtime_error(
        "fleet worker: fingerprint mismatch for " + c.bench + ":" + c.key +
        " (daemon " + c.fingerprint.substr(0, 16) + "…, worker " +
        it->second.fingerprint.substr(0, 16) + "…) — daemon and worker were "
        "launched with different configurations");
  }
  return Claim{it->second.grid, it->second.index, c.cost};
}

const SocketCellQueue::CellRef& SocketCellQueue::resolve(
    const Claim& claim) const {
  const auto name = reverse_.find({claim.grid, claim.index});
  if (name == reverse_.end()) {
    throw std::logic_error("fleet worker: completing an unregistered cell");
  }
  return cells_.at(name->second);
}

void SocketCellQueue::complete(const Claim& claim, bool cached,
                               double seconds) {
  const auto name = reverse_.find({claim.grid, claim.index});
  if (name == reverse_.end()) {
    throw std::logic_error("fleet worker: completing an unregistered cell");
  }
  ResultFrame result;
  result.bench = name->second.first;
  result.key = name->second.second;
  result.fingerprint = resolve(claim).fingerprint;
  result.cached = cached;
  result.seconds = seconds;
  send_bytes(encode_result(result));
}

void SocketCellQueue::fail(const Claim& /*claim*/, const std::string& error) {
  // Best-effort: the runner is about to throw and this process to exit
  // nonzero either way; the frame just gives the daemon the message.
  try {
    send_bytes(encode_error(error));
  } catch (const std::exception&) {
  }
}

}  // namespace falvolt::fleet
