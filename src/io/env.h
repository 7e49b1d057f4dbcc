#pragma once
// io::Env — the process-wide injectable I/O environment behind every
// durable byte the store stack writes or reads.
//
// The store's crash-safety story (atomic tmp+rename publishes, fsync'd
// directory entries, degrade-to-recompute reads) was previously claimed
// by construction but never exercised: nothing could tear a write, flip
// a bit, or pull the plug between a rename and its directory fsync. Env
// is that seam. Every file-content operation of the store stack —
// record/manifest/segment reads and writes, renames, fsyncs, unlinks,
// directory creation — goes through the one process-wide env(), whose
// default implementation is a straight passthrough to the real
// filesystem. Installing an io::FaultInjector (fault_injector.h)
// replaces it with an environment that injects torn writes, bit flips,
// and PullThePlug process kills at exactly these boundaries, which is
// how tests/test_fault_injection.cpp and leg 7 of the fleet_smoke ctest
// prove the guarantees instead of asserting them.
//
// Scope: Env covers file CONTENT operations — the ones whose partial or
// reordered effects a crash can expose. Directory listing (enumerating
// records, manifests, segments) stays on std::filesystem: a listing is
// re-derived on every call and has no persistent effect to tear.
//
// Overhead: one relaxed atomic pointer load plus a virtual call per
// file operation — noise next to the file I/O itself, so the seam costs
// nothing when no injector is installed (the perf gate holds either
// way).

#include <cstdint>
#include <optional>
#include <string>

namespace falvolt::io {

/// The injectable environment. The base class IS the real environment
/// (plain POSIX/std::filesystem behavior); an injector overrides the
/// write-side hooks and delegates the real work back to the base.
class Env {
 public:
  virtual ~Env() = default;

  /// Whole-file read; nullopt when the file cannot be opened or fully
  /// read. Never throws.
  virtual std::optional<std::string> read_file(const std::string& path);

  /// Exactly `length` bytes at `offset`; nullopt on open failure or a
  /// short read. Never throws.
  virtual std::optional<std::string> read_range(const std::string& path,
                                                std::uint64_t offset,
                                                std::uint64_t length);

  /// Size of a regular file; nullopt when it does not exist (the
  /// miss-vs-degraded probe of the read path).
  virtual std::optional<std::uint64_t> file_size(const std::string& path);

  /// Create/truncate `path` with exactly `bytes` (write + flush +
  /// close). False on any failure — a partial file may remain; callers
  /// unlink it.
  virtual bool write_file(const std::string& path, const std::string& bytes);

  /// Atomic rename; false on failure.
  virtual bool rename_file(const std::string& from, const std::string& to);

  /// fsync the file or directory at `path`; false on failure.
  virtual bool fsync_path(const std::string& path);

  /// Remove one file; false when nothing was removed.
  virtual bool unlink_file(const std::string& path);

  /// mkdir -p; false on failure (an existing directory is success).
  virtual bool mkdirs(const std::string& path);
};

/// The current environment — the passthrough Env (immortal) unless an
/// injector is installed. One relaxed load; safe from any thread.
Env& env();

/// Install `e` as the process-wide environment (nullptr restores the
/// real one). The pointed-to Env must outlive the installation; callers
/// (bench FaultScope, tests) disarm before destroying it.
void set_env(Env* e);

/// THE atomic-publish idiom, shared by records, manifests, and segments
/// (previously four hand-rolled copies): stage `bytes` into a uniquely
/// named "<prefix>.<pid>.<seq>.tmp" file under `staging_dir` (created
/// if missing), fsync the staged bytes, rename onto `final_path`
/// (atomic — readers only ever see the complete file), then fsync the
/// containing directory so a host crash after return cannot forget the
/// rename. Throws std::runtime_error on failure, removing the staged
/// file; on return the publish is durable. Carries PullThePlug kill
/// points before/between/after every step, so the crash harness can
/// pull the plug at each boundary and assert that a reader never
/// observes a partial record under its final name.
void atomic_publish(const std::string& staging_dir, const std::string& prefix,
                    const std::string& final_path, const std::string& bytes);

}  // namespace falvolt::io
