// sweep_merge — union sharded scenario-result stores, maintain the
// destination store (GC + segment compaction), and emit the final
// figure tables.
//
// A multi-machine sweep runs `sweep_fleet --shard i/n --store <dir_i>`
// once per shard; each shard publishes its cells (content-addressed) and
// every grid's full manifest into its own store. This tool then:
//
//   1. unions the shard stores into --into (records are re-validated
//      before import; a corrupt shard record is skipped and reported,
//      manifests are carried over; a --from that names a missing or
//      empty store is an error, not a silent no-op),
//   2. optionally garbage-collects --into (--prune): mark-and-sweep
//      over manifest reachability — records no manifest references are
//      deleted, reachable records are re-validated (frame checksum AND
//      payload codec, so stale-format records from an epoch bump are
//      reclaimed too) and dropped when damaged; fully-dead or damaged
//      segments are deleted whole. Deleting is always safe: the worst
//      case is a recompute on the next sweep,
//   3. optionally compacts --into (--compact): packs the loose `.rec`
//      records into one indexed append-only segment file (segment.h),
//      durably published BEFORE the loose copies are deleted, so a
//      crash mid-compact loses nothing and a re-run converges. Reads
//      keep working throughout: sweeps open the store as loose objects
//      layered over segments,
//   4. rebuilds the complete grid in manifest order from the merged
//      store (loose or segmented — the read chain is the same), and
//   5. emits the generic figure table (--csv) — byte-identical to what
//      a single unsharded sweep of the same grid produces, because every
//      cell value is content-addressed by everything that determines
//      it — and the machine-readable summary (--json), whose per-cell
//      metrics/fingerprints match the unsharded run's but whose timing
//      fields (per-cell seconds, the "run" line) reflect the shard runs
//      that actually computed the cells.
//
// The bench's own figure CSV and printed report come afterwards, with
// zero recomputation, from `sweep_fleet --grids <bench> --store <merged>`
// (every cell hits) — compacted or not.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/json.h"
#include "core/sweep.h"
#include "store/compact.h"
#include "store/fingerprint.h"
#include "store/gc.h"
#include "store/manifest.h"
#include "store/result_store.h"
#include "store/stats.h"

using namespace falvolt;

int main(int argc, char** argv) try {
  common::CliFlags cli("sweep_merge");
  cli.add_string("into", "",
                 "destination store directory (created if missing when "
                 "--from is given)");
  cli.add_string("from", "",
                 "comma list of shard store directories to union into "
                 "--into ('' = only emit tables from --into)");
  cli.add_string("bench", "",
                 "bench whose grid to emit (selects the manifest; "
                 "required with --csv/--json unless --manifest is given)");
  cli.add_string("manifest", "",
                 "explicit manifest file defining the grid and its order "
                 "(overrides --bench manifest discovery)");
  cli.add_string("csv", "", "write the merged generic figure table here");
  cli.add_string("json", "", "write the merged sweep JSON summary here");
  cli.add_bool("list", false,
               "print the merged store's usage stats (records + bytes per "
               "bench, loose/segment split, provenance epoch histogram, "
               "dedup/stale counts) and its manifests");
  cli.add_string("stats-json", "",
                 "write the --list usage stats machine-readably to this "
                 "path, in the same flat-sample JSON schema as the fleet "
                 "summary's \"metrics\" block ('' = disabled)");
  cli.add_bool("prune", false,
               "garbage-collect --into after merging: delete records no "
               "manifest references and reachable records that fail "
               "re-validation; delete fully-dead segments. Run only while "
               "no sweep is writing to the store");
  cli.add_bool("compact", false,
               "pack --into's loose records into an indexed segment file "
               "(published durably before any loose copy is deleted; "
               "corrupt loose records are left for --prune). Run only "
               "while no sweep is writing to the store");
  cli.add_string("faults", "",
                 "I/O fault-injection spec (see sweep_fleet --faults; '' "
                 "= disabled) — faults merge/compact/prune store I/O the "
                 "same way");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  // Command-line mistakes are usage errors, caught before any store I/O.
  const std::string& into = cli.get_string("into");
  if (into.empty()) throw bench::UsageError("--into is required");
  const std::string& csv_path = cli.get_string("csv");
  const std::string& json_path = cli.get_string("json");
  if ((!csv_path.empty() || !json_path.empty()) &&
      cli.get_string("bench").empty() && cli.get_string("manifest").empty()) {
    throw bench::UsageError(
        "--csv/--json need --bench or --manifest to define the grid");
  }
  bench::FaultScope fault_scope(bench::parse_faults_flag(cli));

  const std::vector<std::string> from_dirs =
      bench::split_list(cli.get_string("from"));
  // Creating --into is right when shard stores are being merged INTO
  // it; with no --from, every operation (prune, compact, list, table
  // emission) reads an existing store — a typo'd path must fail, not
  // materialize an empty store and report a successful no-op.
  if (from_dirs.empty() && !store::store_exists(into)) {
    std::fprintf(stderr,
                 "sweep_merge: --into %s: no result store there (and no "
                 "--from to merge into it)\n",
                 into.c_str());
    return 1;
  }
  // Every merge source must already BE a store with content: opening a
  // typo'd path would create an empty store there and "merge" nothing,
  // and a sharded pipeline that silently unions zero records emits an
  // empty table downstream instead of failing the merge step. Validated
  // BEFORE --into is created, so a failed merge does not leave behind
  // an empty destination husk that would satisfy the guard above next
  // time.
  for (const std::string& dir : from_dirs) {
    if (!store::store_exists(dir)) {
      std::fprintf(stderr, "sweep_merge: --from %s: no result store there\n",
                   dir.c_str());
      return 1;
    }
    const auto src = store::open_store(dir, {}, /*create=*/false);
    if (src->fingerprints().empty() && src->manifests("").empty()) {
      std::fprintf(stderr,
                   "sweep_merge: --from %s: store is empty (no records, no "
                   "manifests) — did the shard run with --store?\n",
                   dir.c_str());
      return 1;
    }
  }
  // A fleet still publishing into any involved store means a merge or
  // table emission would capture a half-published shard: a "complete"
  // looking CSV missing the cells that land a second later. The sweep
  // engine and the fleet daemon hold pid-stamped in-progress markers
  // (store::InProgressGuard) for exactly this check; dead markers from
  // SIGKILLed runs are reaped, only LIVE publishers block.
  {
    std::vector<std::string> roots = {into};
    roots.insert(roots.end(), from_dirs.begin(), from_dirs.end());
    bool busy = false;
    for (const std::string& root : roots) {
      for (const int pid : store::live_inprogress_pids(root)) {
        std::fprintf(stderr,
                     "sweep_merge: store %s: a sweep (pid %d) is still "
                     "publishing into it — wait for the fleet to finish "
                     "before merging or emitting tables\n",
                     root.c_str(), pid);
        busy = true;
      }
    }
    if (busy) return 1;
  }
  // The loose-objects handle (maintenance: prune/compact/list are
  // physical-layout operations) and the layered read chain over loose +
  // segments (everything content-addressed goes through this).
  store::LocalDirStore dst_local(into);
  const auto dst = store::open_store(into);

  for (const std::string& dir : from_dirs) {
    const auto src = store::open_store(dir, {}, /*create=*/false);
    const store::MergeStats stats = store::merge_records(*dst, *src);
    int manifests = 0;
    for (const store::Manifest& m : src->manifests("")) {
      dst->put_manifest(m);
      ++manifests;
    }
    std::printf("[merge] %s: %d record(s) imported, %d already present, "
                "%d corrupt skipped, %d manifest(s)\n",
                dir.c_str(), stats.copied, stats.present, stats.corrupt,
                manifests);
  }

  if (cli.get_bool("prune")) {
    // The payload check decodes through the record codecs (cell results
    // and baselines), so records whose frame survived but whose payload
    // an epoch/codec bump obsoleted are reclaimed as well (they could
    // only ever read as a miss).
    const store::GcStats gc =
        store::prune_store(dst_local, [](const std::string& payload) {
          core::ScenarioResult r;
          return core::decode_scenario_result(payload, r) ||
                 core::is_baseline_payload(payload);
        });
    std::printf("[prune] %s: %s\n", dst_local.root().c_str(),
                gc.to_string().c_str());
  }

  if (cli.get_bool("compact")) {
    const store::CompactStats stats = store::compact_store(dst_local);
    std::printf("[compact] %s: %s\n", dst_local.root().c_str(),
                store::to_text(stats).c_str());
  }

  if (cli.get_bool("list") || !cli.get_string("stats-json").empty()) {
    // Compaction/dedup accounting: bytes and records per bench (charged
    // through manifest reachability), the loose/segment split, the
    // provenance epoch histogram, and the stale/unreadable populations
    // --prune would reclaim. One scan serves both the human --list block
    // and the machine-readable --stats-json dump.
    const store::StoreStats stats = store::collect_store_stats(
        dst_local,
        [](const std::string& payload) -> std::optional<std::uint32_t> {
          core::ScenarioResult r;
          if (core::decode_scenario_result(payload, r)) {
            return r.provenance.store_epoch;
          }
          // A baseline carries no provenance: its frame's epoch, which
          // a readable record always has.
          if (core::is_baseline_payload(payload)) {
            return store::kStoreFormatEpoch;
          }
          return std::nullopt;
        });
    if (cli.get_bool("list")) {
      std::printf("[store] %s\n", dst_local.root().c_str());
      std::fputs(stats.to_text().c_str(), stdout);
      for (const std::string& path : store::list_manifests(dst_local)) {
        const auto m = store::read_manifest(path);
        std::printf("[store]   manifest %s (%s, %zu cell(s))\n", path.c_str(),
                    m ? m->bench.c_str() : "UNREADABLE",
                    m ? m->entries.size() : 0);
      }
    }
    if (!cli.get_string("stats-json").empty()) {
      std::ofstream out(cli.get_string("stats-json"));
      if (!out) {
        std::fprintf(stderr, "sweep_merge: cannot open %s\n",
                     cli.get_string("stats-json").c_str());
        return 1;
      }
      out << "{\n  \"store\": \"" << common::json_escape(dst_local.root())
          << "\",\n  \"store_stats\": " << stats.to_json(/*indent=*/2)
          << "\n}\n";
      std::printf("[store] usage stats written to %s\n",
                  cli.get_string("stats-json").c_str());
    }
  }

  if (csv_path.empty() && json_path.empty()) return 0;

  // Locate the grid definition.
  std::optional<store::Manifest> manifest;
  if (!cli.get_string("manifest").empty()) {
    manifest = store::read_manifest(cli.get_string("manifest"));
    if (!manifest) {
      std::fprintf(stderr, "sweep_merge: cannot read manifest %s\n",
                   cli.get_string("manifest").c_str());
      return 1;
    }
  } else {
    const std::vector<std::string> candidates =
        store::list_manifests(dst_local, cli.get_string("bench"));
    if (candidates.empty()) {
      std::fprintf(stderr,
                   "sweep_merge: no manifest for bench '%s' in %s (did "
                   "the shards run with --store?)\n",
                   cli.get_string("bench").c_str(), dst_local.root().c_str());
      return 1;
    }
    if (candidates.size() > 1) {
      std::fprintf(stderr,
                   "sweep_merge: %zu grids for bench '%s' — pick one "
                   "with --manifest:\n",
                   candidates.size(), cli.get_string("bench").c_str());
      for (const std::string& c : candidates) {
        std::fprintf(stderr, "  %s\n", c.c_str());
      }
      return 1;
    }
    manifest = store::read_manifest(candidates.front());
    if (!manifest) {
      std::fprintf(stderr, "sweep_merge: cannot read manifest %s\n",
                   candidates.front().c_str());
      return 1;
    }
  }

  // Rebuild the complete grid, in manifest (= grid) order, through the
  // layered read chain (a compacted store serves every cell from its
  // segments; a freshly written segment is NOT yet visible through a
  // chain opened earlier, so reopen after --compact).
  const auto reader = store::open_store(into);
  core::ResultTable table(manifest->entries.size());
  std::vector<std::string> missing;
  for (std::size_t i = 0; i < manifest->entries.size(); ++i) {
    const auto& [fp, key] = manifest->entries[i];
    std::optional<core::ScenarioResult> r = core::lookup_cell(*reader, fp, key);
    if (!r) {
      missing.push_back(key + " (" + fp.substr(0, 16) + "...)");
      continue;
    }
    table.put_cached(i, std::move(*r));
  }
  if (!missing.empty()) {
    std::fprintf(stderr,
                 "sweep_merge: grid '%s' is missing %zu of %zu cell(s) — "
                 "did every shard run and merge?\n",
                 manifest->bench.c_str(), missing.size(),
                 manifest->entries.size());
    for (const std::string& m : missing) {
      std::fprintf(stderr, "  %s\n", m.c_str());
    }
    return 1;
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "sweep_merge: cannot open %s\n",
                   csv_path.c_str());
      return 1;
    }
    out << table.to_csv();
    std::printf("[merge] %s: %zu-cell table written to %s\n",
                manifest->bench.c_str(), table.size(), csv_path.c_str());
  }
  if (!json_path.empty()) {
    table.write_json(json_path, manifest->bench);
    std::printf("[merge] %s: JSON summary written to %s\n",
                manifest->bench.c_str(), json_path.c_str());
  }
  return 0;
} catch (const bench::UsageError& e) {
  return bench::usage_exit("sweep_merge", e);
}
