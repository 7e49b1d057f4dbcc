#include "io/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/fault_injector.h"

namespace fs = std::filesystem;

namespace falvolt::io {

std::optional<std::string> Env::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in && !in.eof()) return std::nullopt;
  return bytes;
}

std::optional<std::string> Env::read_range(const std::string& path,
                                           std::uint64_t offset,
                                           std::uint64_t length) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  in.seekg(static_cast<std::streamoff>(offset));
  std::string bytes(length, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in) return std::nullopt;
  return bytes;
}

std::optional<std::uint64_t> Env::file_size(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) return std::nullopt;
  return static_cast<std::uint64_t>(size);
}

bool Env::write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return static_cast<bool>(out);
}

bool Env::rename_file(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  return !ec;
}

bool Env::fsync_path(const std::string& path) {
  // Read-only open is enough for fsync on every platform we build for
  // (Linux/macOS).
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool Env::unlink_file(const std::string& path) {
  std::error_code ec;
  return fs::remove(path, ec) && !ec;
}

bool Env::mkdirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  return !ec;
}

namespace {

Env& real_env_instance() {
  static Env* instance = new Env();  // immortal: cached refs never dangle
  return *instance;
}

std::atomic<Env*> g_env{nullptr};

}  // namespace

Env& env() {
  Env* e = g_env.load(std::memory_order_acquire);
  return e ? *e : real_env_instance();
}

void set_env(Env* e) { g_env.store(e, std::memory_order_release); }

void atomic_publish(const std::string& staging_dir, const std::string& prefix,
                    const std::string& final_path, const std::string& bytes) {
  Env& e = env();
  if (!e.mkdirs(staging_dir)) {
    throw std::runtime_error("atomic_publish: cannot create staging dir " +
                             staging_dir);
  }
  // Unique staging name: pid + a process-wide counter. Concurrent
  // writers (threads of one sweep, or several shard processes sharing a
  // store) each stage privately and race only on the final rename,
  // which is atomic.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      (fs::path(staging_dir) /
       (prefix + "." + std::to_string(::getpid()) + "." +
        std::to_string(seq.fetch_add(1)) + ".tmp"))
          .string();

  // A plug pulled before anything is staged loses nothing.
  FALVOLT_PTP();
  if (!e.write_file(tmp, bytes)) {
    e.unlink_file(tmp);
    throw std::runtime_error("atomic_publish: cannot stage " + tmp);
  }
  // Staged but not durable: a crash here leaves only tmp garbage
  // (reclaimed by GC), never a visible partial record.
  FALVOLT_PTP(FaultSensitivity::kHigh);
  // Data first: the rename must never publish a name whose bytes are
  // still only in the page cache.
  if (!e.fsync_path(tmp)) {
    e.unlink_file(tmp);
    throw std::runtime_error("atomic_publish: cannot fsync " + tmp);
  }
  // Durable bytes, not yet visible under the final name.
  FALVOLT_PTP(FaultSensitivity::kHigh);
  if (!e.rename_file(tmp, final_path)) {
    e.unlink_file(tmp);
    throw std::runtime_error("atomic_publish: cannot publish " + final_path);
  }
  // Visible but the directory entry itself is not yet durable — without
  // the fsync below a host crash can forget the rename and lose a
  // record the writer already reported durable.
  FALVOLT_PTP(FaultSensitivity::kHigh);
  const std::string dir = fs::path(final_path).parent_path().string();
  if (!e.fsync_path(dir.empty() ? "." : dir)) {
    throw std::runtime_error("atomic_publish: cannot fsync directory of " +
                             final_path);
  }
  // Fully published; a crash now must find the complete record.
  FALVOLT_PTP();
}

}  // namespace falvolt::io
