// sweep_fleet — the study's one driver: run any selection of the
// registered grids as ONE cross-bench sweep and write their figures.
//
// Every selected grid (core::GridRegistry, populated by bench/grids/) is
// built from the command line, its cells fingerprinted, and the union
// of all pending cells run through one cost-ordered queue of
// --sweep-parallel workers against one shared store: a worker that
// finishes fig5b's cheap eval cells immediately steals fig8's expensive
// retrain cells instead of idling, and a dataset baseline is trained
// once per store (a record in it) no matter how many grids need it.
//
// Every grid whose table is complete then renders its figure
// (GridDef::aggregate): ./<bench>.csv in the bench's own schema, the
// printed report, and the generic <store>/tables/<bench>.csv. A warm
// re-run replays every cell (cells_computed: 0) and rewrites the same
// bytes. --shard i/n partitions every grid, so fleets can span machines
// and be unioned with sweep_merge; a shard that leaves cells to other
// shards writes no figure.
//
//   sweep_fleet --store fleet_store --sweep-parallel 8 --fast
//     --grids fig5b_fault_count,fig2_vth_sweep
//     --set fig5b_fault_count.eval-samples=24,fig2_vth_sweep.epochs=1
//
// Common flags (--fast, --seed, --datasets, --repeats, ...) apply to
// every grid; bench-specific flags are set per grid with --set (listed
// under --help).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/grid_registry.h"
#include "fleet/daemon.h"
#include "fleet/worker.h"
#include "grids/grids.h"
#include "io/env.h"
#include "store/result_store.h"
#include "store/store_api.h"

namespace fb = falvolt::bench;
using namespace falvolt;

namespace {

using fb::UsageError;

// Per-grid flag overrides from --set "bench.flag=value[,...]". Flags
// the fleet itself manages (the shared store, shard spec, worker
// counts) and the shared workload identity (fast/seed — the fleet has
// ONE baseline context) must not be overridden per grid: a diverted
// --store, for example, would silently publish a grid's records away
// from the advertised shared store.
std::map<std::string, std::vector<std::string>> parse_overrides(
    const std::string& spec) {
  static const std::set<std::string> kFleetManaged = {
      "store",   "shard",          "fast",          "seed",
      "threads", "sweep-parallel", "list-scenarios", "substituters"};
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& entry : fb::split_list(spec)) {
    const std::size_t dot = entry.find('.');
    const std::size_t eq = entry.find('=', dot == std::string::npos ? 0 : dot);
    if (dot == std::string::npos || eq == std::string::npos || dot == 0 ||
        eq <= dot + 1) {
      throw UsageError("--set entries must be bench.flag=value, got '" +
                       entry + "'");
    }
    const std::string flag = entry.substr(dot + 1, eq - dot - 1);
    // Every exec-table flag (telemetry, faults, process layout) is
    // fleet-managed by definition: one table keeps this list honest.
    if (kFleetManaged.count(flag) || fb::is_exec_flag(flag)) {
      throw UsageError("--set must not override fleet-managed flag --" +
                       flag + " per grid (set it at the fleet level instead)");
    }
    out[entry.substr(0, dot)].push_back("--" + entry.substr(dot + 1));
  }
  return out;
}

// One grid, fully resolved from the fleet command line.
struct FleetGridSpec {
  const core::GridDef* def = nullptr;
  common::CliFlags cli;
  std::vector<core::Scenario> scenarios;
  core::SweepStoreOptions store;
};

// --help appendix: every registered grid's title and bench-specific
// flags (the lines of its own CliFlags usage, minus the "usage:" line).
void print_grid_help(const core::GridRegistry& registry) {
  std::printf("\ngrids (bench flags are set per grid with --set "
              "<bench>.<flag>=<value>):\n");
  for (const std::string& name : registry.names()) {
    const core::GridDef& def = registry.get(name);
    common::CliFlags flags(def.name);
    def.add_flags(flags);
    const std::string usage = flags.usage();
    std::printf("  %s — %s\n", name.c_str(), def.title.c_str());
    for (const std::string& line : fb::split_list(
             usage.substr(usage.find('\n') + 1), '\n')) {
      std::printf("  %s\n", line.c_str());
    }
  }
}

// Each cell's owning shard: the same cost-balanced partition (greedy
// LPT over static cost estimates) SweepRunner computes, so the listing
// and the daemon's triage follow the plan every shard follows.
std::vector<int> shard_owners(const FleetGridSpec& spec) {
  std::vector<double> costs(spec.scenarios.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = core::scenario_cost_estimate(spec.scenarios[i]);
  }
  return core::shard_partition(costs, spec.store.shard_count);
}

// Print one grid's rows of the --list-scenarios listing ("bench:key"),
// numbered from `start_index`; returns the index after the last row.
// A cell is a HIT exactly when the sweep would replay it (lookup_cell),
// so a damaged record lists as MISS.
std::size_t list_scenario_rows(const FleetGridSpec& spec,
                               const core::WorkloadOptions& opts,
                               const store::StoreApi& rs,
                               std::size_t start_index) {
  const std::vector<int> owners = shard_owners(spec);
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    const std::string fp =
        core::fingerprint_cell(spec.store, opts, spec.scenarios[i]);
    const char* status =
        core::lookup_cell(rs, fp, spec.scenarios[i].key) ? "HIT" : "MISS";
    std::printf("%-5zu %-6d %-6s %-16s %s:%s\n", start_index + i, owners[i],
                status, fp.substr(0, 16).c_str(), spec.def->name.c_str(),
                spec.scenarios[i].key.c_str());
  }
  return start_index + spec.scenarios.size();
}

}  // namespace

int main(int argc, char** argv) try {
  fb::register_all_grids();
  const core::GridRegistry& registry = core::GridRegistry::instance();

  common::CliFlags cli("sweep_fleet");
  fb::add_common_flags(cli);
  fb::add_exec_flags(cli, fb::kExecFleet);
  cli.add_string("grids", "all",
                 "comma list of registered figure grids to sweep "
                 "(all = every registered grid)");
  cli.add_string("set", "",
                 "per-grid bench-specific flag overrides, "
                 "'bench.flag=value[,bench.flag=value...]' (e.g. "
                 "fig5b_fault_count.eval-samples=24)");
  cli.add_string("json", "",
                 "fleet summary JSON path ('' = disabled). A per-bench "
                 "sweep JSON comes from sweep_merge --json");
  if (!cli.parse_or_exit(argc, argv)) {
    print_grid_help(registry);
    return 0;
  }

  // Process layout (the kExecFleet exec flags): --hosts N runs this
  // invocation as the scheduler daemon forking N workers; a forked
  // worker re-runs this binary with --daemon-socket set (and --hosts 0)
  // and claims cells over the socket instead of its local queue.
  const int hosts = static_cast<int>(cli.get_int("hosts"));
  const std::string socket_flag = cli.get_string("daemon-socket");
  const bool daemon_mode = hosts > 0;
  const bool worker_mode = !daemon_mode && !socket_flag.empty();
  if (hosts < 0) throw UsageError("--hosts must be >= 0");
  if (cli.get_int("sweep-parallel") < 0) {
    throw UsageError("--sweep-parallel must be >= 0");
  }
  if (cli.get_int("threads") < 0) throw UsageError("--threads must be >= 0");
  int fault_worker = -1;  // --worker-faults "i:spec": arm worker i only
  std::string fault_spec;
  if (!cli.get_string("worker-faults").empty()) {
    if (!daemon_mode) {
      throw UsageError("--worker-faults needs --hosts (it names a forked "
                       "worker)");
    }
    const std::string& wf = cli.get_string("worker-faults");
    const std::size_t colon = wf.find(':');
    bool ok = colon != std::string::npos && colon > 0 && colon + 1 < wf.size();
    if (ok) {
      try {
        std::size_t used = 0;
        fault_worker = std::stoi(wf.substr(0, colon), &used);
        ok = used == colon && fault_worker >= 0 && fault_worker < hosts;
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) {
      throw UsageError("--worker-faults must be '<worker-index>:<fault-spec>' "
                       "with the index below --hosts, got '" + wf + "'");
    }
    fault_spec = wf.substr(colon + 1);
    // Validated here: worker i would reject a malformed spec and exit
    // before HELLO, silently running the fleet uninjected.
    try {
      (void)io::parse_fault_spec(fault_spec);
    } catch (const std::invalid_argument& e) {
      throw UsageError("--worker-faults '" + wf + "': " + e.what());
    }
  }
  // The process's own spec, armed by ExecScope below.
  const io::FaultSpec faults = fb::parse_faults_flag(cli);

  const std::string& store_dir = cli.get_string("store");
  if (store_dir.empty()) {
    throw UsageError("--store is required — the whole point of a fleet is "
                     "the shared store");
  }

  // Grid selection, registration order preserved for "all". An unknown
  // name is a hard error up front — a typo'd --grids must not silently
  // sweep the wrong subset for hours.
  const bool implicit_all = cli.get_string("grids") == "all";
  std::vector<core::DatasetKind> dataset_filter;
  try {
    dataset_filter = fb::parse_dataset_spec(cli.get_string("datasets"));
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  std::vector<std::string> names;
  if (implicit_all) {
    names = registry.names();
    // A dataset filter SKIPS non-intersecting grids of the implicit
    // "all" selection (e.g. --datasets mnist skips the DVS-only gesture
    // grid) — running their builders would trip the per-bench
    // strict-subset error, which is right only for a grid the user
    // named explicitly.
    const std::vector<core::DatasetKind>& filter = dataset_filter;
    if (!filter.empty()) {
      std::vector<std::string> kept;
      for (const std::string& name : names) {
        const std::vector<core::DatasetKind>& axis =
            registry.get(name).datasets;
        const bool overlaps =
            axis.empty() ||
            std::any_of(axis.begin(), axis.end(), [&](core::DatasetKind k) {
              return std::find(filter.begin(), filter.end(), k) !=
                     filter.end();
            });
        if (overlaps) {
          kept.push_back(name);
        } else {
          std::fprintf(stderr,
                       "[fleet] skipping %s: its dataset axis has no "
                       "overlap with --datasets %s\n",
                       name.c_str(), cli.get_string("datasets").c_str());
        }
      }
      names = std::move(kept);
    }
  } else {
    for (const std::string& name : fb::split_list(cli.get_string("grids"))) {
      if (!registry.find(name)) {
        std::string known;
        for (const std::string& n : registry.names()) {
          known += known.empty() ? "" : ", ";
          known += n;
        }
        throw UsageError("--grids names unknown grid '" + name +
                         "' (registered: " + known + ")");
      }
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);  // a repeated name must not double-compute
      }
    }
  }
  if (names.empty()) throw UsageError("no grids selected");
  std::map<std::string, std::vector<std::string>> overrides =
      parse_overrides(cli.get_string("set"));
  for (const auto& [bench, tokens] : overrides) {
    (void)tokens;
    if (std::find(names.begin(), names.end(), bench) == names.end()) {
      throw UsageError("--set names '" + bench +
                       "', which is not among the selected grids");
    }
  }

  // Common flags forwarded verbatim to every grid (the "--name=value"
  // form survives empty values). Derived from the fleet's own flag set
  // minus the fleet-only/fleet-managed ones, so a common flag added
  // later is forwarded automatically — and a future fleet-only flag
  // missing from this denylist fails each grid's parse loudly
  // ("unknown flag") instead of being dropped. A grid parses common +
  // its own flags, then its --set overrides, so its fingerprint config
  // does not depend on which other grids were selected with it.
  static const std::set<std::string> kNotForwarded = {
      "store",           // forwarded below as the resolved shared store dir
      "datasets",        // forwarded per grid, narrowed to the grid's axis
      "list-scenarios",  // fleet-handled, not per-grid
      "grids", "set", "json"};  // fleet-only flags
  std::vector<std::string> forwards;
  for (const auto& [flag, value] : cli.items()) {
    // Exec-table flags (telemetry, fault injection, process layout) are
    // one-per-fleet-process by definition and the grid CLIs don't even
    // register the fleet group — never forwarded.
    if (!kNotForwarded.count(flag) && !fb::is_exec_flag(flag)) {
      forwards.push_back("--" + flag + "=" + value);
    }
  }
  forwards.push_back("--store=" + store_dir);

  // Per-grid --datasets forward. Under the implicit "all" selection a
  // partially overlapping grid gets the INTERSECTION of the filter with
  // its axis (e.g. --datasets mnist,nmnist reaches fig2 — whose axis is
  // mnist+dvs — as just "mnist"): the fleet sweeps the cells that
  // apply instead of tripping the grid's strict-subset error. An
  // explicitly named grid gets the raw spec: asking a named grid for a
  // foreign dataset is an error.
  const auto datasets_for = [&](const core::GridDef& def) -> std::string {
    const std::string& raw = cli.get_string("datasets");
    if (!implicit_all || dataset_filter.empty() || def.datasets.empty()) {
      return raw;
    }
    std::string spec;
    for (const core::DatasetKind kind : def.datasets) {
      if (std::find(dataset_filter.begin(), dataset_filter.end(), kind) !=
          dataset_filter.end()) {
        spec += spec.empty() ? "" : ",";
        spec += fb::dataset_flag_token(kind);
      }
    }
    return spec;  // non-empty: zero-overlap grids were skipped above
  };

  const core::WorkloadOptions fleet_opts = fb::workload_options(cli);
  std::vector<FleetGridSpec> specs;
  for (const std::string& name : names) {
    const core::GridDef& def = registry.get(name);
    FleetGridSpec spec{&def, common::CliFlags(def.name), {}, {}};
    fb::add_common_flags(spec.cli);
    def.add_flags(spec.cli);
    std::vector<std::string> args = {def.name};
    args.insert(args.end(), forwards.begin(), forwards.end());
    args.push_back("--datasets=" + datasets_for(def));
    const auto it = overrides.find(name);
    if (it != overrides.end()) {
      args.insert(args.end(), it->second.begin(), it->second.end());
    }
    std::vector<const char*> argv_g;
    argv_g.reserve(args.size());
    for (const std::string& a : args) argv_g.push_back(a.c_str());
    try {
      spec.cli.parse(static_cast<int>(argv_g.size()), argv_g.data());
      spec.scenarios = def.scenarios(spec.cli);
      spec.store =
          fb::store_options(spec.cli, def.name, def.aggregation_only);
    } catch (const std::invalid_argument& e) {
      throw UsageError("grid " + name + ": " + e.what());
    }
    specs.push_back(std::move(spec));
  }

  // A typo'd substituter would read as "every cell misses": reject it
  // here, before anything creates the store.
  const std::vector<std::string> substituters =
      fb::split_list(cli.get_string("substituters"));
  for (const std::string& sub : substituters) {
    if (!store::store_exists(sub)) {
      throw UsageError("--substituters names '" + sub +
                       "', which is not a store (no objects/ or segments/ "
                       "directory)");
    }
  }

  // Every usage error is behind us: start telemetry and fault injection
  // before the first store I/O.
  fb::ExecScope obs_scope(cli, faults);

  // Shard-planning dry run: the full cross-bench cell listing, computed
  // with the same fingerprints the sweep would use. A pure dry run: it
  // computes nothing, writes nothing, and never creates the store; a
  // root that does not exist yet reads as empty while its substituters
  // still answer, exactly as in the sweep.
  if (cli.get_bool("list-scenarios")) {
    const std::unique_ptr<store::StoreApi> rs =
        store::open_store(store_dir, substituters, /*create=*/false);
    std::size_t total = 0;
    for (const FleetGridSpec& spec : specs) total += spec.scenarios.size();
    std::printf("# %zu grid(s), %zu cell(s), store %s\n", specs.size(),
                total, store_dir.c_str());
    std::printf("%-5s %-6s %-6s %-16s %s\n", "idx", "shard", "store",
                "fingerprint", "bench:key");
    std::size_t index = 0;
    for (const FleetGridSpec& spec : specs) {
      index = list_scenario_rows(spec, fleet_opts, *rs, index);
    }
    return 0;
  }

  // Probe the summary path BEFORE the sweep: an unwritable --json must
  // fail now, not after hours of retraining. Append mode leaves any
  // previous summary intact should this run die mid-sweep. (Figure CSVs
  // need no probe: every cell is in the store by the time they are
  // written, so an unwritable directory costs a warm re-run.)
  if (!cli.get_string("json").empty()) {
    std::ofstream probe(cli.get_string("json"), std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "sweep_fleet: cannot open %s\n",
                   cli.get_string("json").c_str());
      return 1;
    }
  }

  core::SweepRunner fleet(fleet_opts);
  fleet.set_on_baseline(fb::print_baseline);
  for (FleetGridSpec& spec : specs) {
    core::SweepStoreOptions store = spec.store;
    // Under --hosts the in-process pass runs after the workers have
    // published every owned miss: it must replay them, whatever
    // --resume said (that flag already steered the daemon's triage).
    if (daemon_mode) store.resume = true;
    fleet.add_grid({std::move(store), spec.scenarios,
                    spec.def->scenario_fn(spec.cli, fleet.context())});
  }

  // Worker mode (--daemon-socket without --hosts, i.e. a process the
  // daemon forked): build the same grids the daemon did, register every
  // cell under its wire name, and let the runner's claim loop pull work
  // over the socket instead of its in-process queue (its first claim
  // says HELLO, after triage and the baseline load). Workers publish
  // records directly to the shared store — the daemon only ever sees
  // metadata — then exit without tables or summaries of their own.
  if (worker_mode) {
    fleet::SocketCellQueue queue(socket_flag,
                                 "worker-" + std::to_string(getpid()));
    for (std::size_t g = 0; g < specs.size(); ++g) {
      const FleetGridSpec& spec = specs[g];
      for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
        queue.register_cell(
            spec.def->name, spec.scenarios[i].key,
            core::fingerprint_cell(spec.store, fleet_opts, spec.scenarios[i]),
            static_cast<int>(g), static_cast<int>(i));
      }
    }
    fleet.set_cell_queue(&queue);
    fleet.run();
    return 0;
  }

  // Daemon phase (--hosts N): triage the union of owned cells HERE,
  // serve the misses to N forked worker processes over the socket
  // protocol, then fall through to the normal in-process run below —
  // with every miss now published it is a warm replay, so the tables
  // and figure CSVs are byte-identical to a --hosts 0 run by
  // construction.
  fleet::DaemonStats dstats;
  double daemon_seconds = 0.0;
  std::size_t triage_cached = 0;
  std::string daemon_socket_path;
  if (daemon_mode) {
    std::vector<fleet::DaemonCell> cells;
    std::set<core::DatasetKind> kinds;  // of the cells to compute
    const std::unique_ptr<store::StoreApi> rs =
        store::open_store(store_dir, substituters, /*create=*/true);
    for (const FleetGridSpec& spec : specs) {
      const std::vector<int> owners = shard_owners(spec);
      for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
        if (spec.store.shard_count > 1 &&
            owners[i] != spec.store.shard_index) {
          continue;  // another machine's shard; unioned by sweep_merge
        }
        const std::string fp = core::fingerprint_cell(
            spec.store, fleet_opts, spec.scenarios[i]);
        if (spec.store.resume &&
            core::lookup_cell(*rs, fp, spec.scenarios[i].key)) {
          ++triage_cached;
          continue;  // already paid for — nothing to schedule
        }
        cells.push_back(fleet::DaemonCell{
            spec.def->name, spec.scenarios[i].key, fp,
            core::scenario_cost_estimate(spec.scenarios[i])});
        kinds.insert(spec.scenarios[i].dataset);
      }
    }

    const std::size_t misses = cells.size();
    if (misses == 0) {
      std::printf("[fleet] daemon: every owned cell already published "
                  "(%zu replayed at triage) — no workers forked\n",
                  triage_cached);
    } else {
      // The pid-stamped marker lets a concurrent sweep_merge see a live
      // fleet mid-publish and refuse to emit half-baked tables.
      store::InProgressGuard inprogress(store_dir);
      // Every baseline the misses need is in the store before the fork:
      // the workers load it instead of each training its own.
      for (const core::DatasetKind kind : kinds) {
        fb::print_baseline(
            core::prepare_workload(kind, fleet_opts, rs.get()));
      }
      daemon_socket_path =
          socket_flag.empty()
              ? "/tmp/falvolt-fleet-" + std::to_string(getpid()) + ".sock"
              : socket_flag;
      fleet::Daemon daemon(fleet::DaemonOptions{daemon_socket_path},
                           std::move(cells));
      daemon.bind_and_listen();  // before fork: no worker can race the bind

      // The worker command line is this command line minus the exec
      // flags and daemon-only outputs, plus the fixed worker layout:
      // the resolved store, ONE claim slot (fleet/worker.h), a fair
      // share of the machine's threads, and the daemon socket.
      static const std::set<std::string> kNotReexeced = {
          "hosts", "daemon-socket", "worker-faults",   // layout, set below
          "trace", "metrics-json", "faults",  // telemetry owned by daemon
          "json", "list-scenarios",           // daemon-only outputs
          "store", "sweep-parallel", "threads"};  // forced below
      const long want_threads = cli.get_int("threads");
      const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
      const int worker_threads =
          want_threads > 0
              ? static_cast<int>(want_threads)
              : static_cast<int>(
                    std::max(1u, hw / static_cast<unsigned>(hosts)));
      std::vector<std::string> wargs = {std::string(argv[0])};
      for (const auto& [flag, value] : cli.items()) {
        if (!kNotReexeced.count(flag)) {
          wargs.push_back("--" + flag + "=" + value);
        }
      }
      wargs.push_back("--store=" + store_dir);
      wargs.push_back("--sweep-parallel=1");
      wargs.push_back("--threads=" + std::to_string(worker_threads));
      wargs.push_back("--daemon-socket=" + daemon_socket_path);

      std::vector<pid_t> pids;
      std::vector<bool> reaped;
      for (int w = 0; w < hosts; ++w) {
        // Fault injection is strictly per-worker: the fleet's own
        // --faults is not re-executed, and --worker-faults "i:spec"
        // reaches exactly worker i as its --faults. The argv is built
        // before fork() so the child only execs.
        std::vector<std::string> args = wargs;
        if (w == fault_worker) args.push_back("--faults=" + fault_spec);
        std::vector<char*> cargv;
        cargv.reserve(args.size() + 1);
        for (std::string& a : args) cargv.push_back(a.data());
        cargv.push_back(nullptr);
        const pid_t pid = fork();
        if (pid < 0) {
          std::fprintf(stderr, "sweep_fleet: fork: %s\n",
                       std::strerror(errno));
          for (const pid_t p : pids) kill(p, SIGTERM);
          for (const pid_t p : pids) waitpid(p, nullptr, 0);
          return 1;
        }
        if (pid == 0) {
          execv("/proc/self/exe", cargv.data());
          std::fprintf(stderr, "sweep_fleet: execv: %s\n",
                       std::strerror(errno));
          _exit(127);
        }
        pids.push_back(pid);
        reaped.push_back(false);
      }

      // Parent-side liveness for the daemon's poll loop: reap any dead
      // worker (so a SIGKILLed one never lingers as a zombie) and count
      // the rest. Zero live + cells remaining = unrecoverable, and
      // serve() throws instead of hanging forever.
      const auto live_workers = [&pids, &reaped]() {
        int alive = 0;
        for (std::size_t i = 0; i < pids.size(); ++i) {
          if (reaped[i]) continue;
          const pid_t r = waitpid(pids[i], nullptr, WNOHANG);
          if (r == 0) {
            ++alive;
          } else {
            reaped[i] = true;  // exited (or ECHILD) — gone either way
          }
        }
        return alive;
      };

      std::printf("[fleet] daemon: %zu miss(es) over %d worker(s) on %s "
                  "(%zu replayed at triage)\n",
                  misses, hosts, daemon_socket_path.c_str(), triage_cached);
      common::Timer wall;
      try {
        dstats = daemon.serve(live_workers);
      } catch (const std::exception& e) {
        for (std::size_t i = 0; i < pids.size(); ++i) {
          if (!reaped[i]) kill(pids[i], SIGTERM);
        }
        for (std::size_t i = 0; i < pids.size(); ++i) {
          if (!reaped[i]) waitpid(pids[i], nullptr, 0);
        }
        std::fprintf(stderr, "sweep_fleet: daemon: %s\n", e.what());
        return 1;
      }
      daemon_seconds = wall.seconds();
      for (std::size_t i = 0; i < pids.size(); ++i) {
        if (!reaped[i]) waitpid(pids[i], nullptr, 0);  // clean SHUTDOWN exits
      }
      std::printf("[fleet] daemon: %d computed, %d cached, %d re-queued "
                  "after %d worker death(s) in %.1f s\n",
                  dstats.computed, dstats.cached, dstats.requeued,
                  dstats.worker_deaths, daemon_seconds);
      for (const fleet::DaemonStats::WorkerLoad& wl : dstats.workers) {
        std::printf("[fleet] worker %d (%s): %d cell(s), %.1f s busy\n",
                    wl.worker_id, wl.name.c_str(), wl.cells,
                    wl.busy_seconds);
      }
    }
  }

  std::printf("=== sweep_fleet ===\n%zu grid(s) against store %s "
              "(cost-ordered queue)\n\n",
              specs.size(), store_dir.c_str());
  const std::vector<core::ResultTable> tables = fleet.run();
  const double total_seconds = tables.front().total_seconds();

  // The run's numbers, computed once for the stdout total and the JSON
  // run block. In daemon mode they are the DAEMON's ledger — what the
  // forked workers actually computed — not the warm replay above (which
  // by construction computes zero cells).
  std::size_t computed = 0, cached = 0, absent = 0;
  for (std::size_t g = 0; g < tables.size(); ++g) {
    const core::ResultTable& t = tables[g];
    computed += t.computed_cells();
    cached += t.cached_cells();
    absent += t.absent_cells();
    std::printf("[fleet] %-22s %3zu cell(s): %zu computed, %zu cached, "
                "%zu left to other shards\n",
                specs[g].def->name.c_str(), t.size(), t.computed_cells(),
                t.cached_cells(), t.absent_cells());
  }
  const int run_workers =
      daemon_mode ? hosts : tables.front().sweep_parallel();
  const double run_seconds = daemon_mode ? daemon_seconds : total_seconds;
  if (daemon_mode) {
    computed = static_cast<std::size_t>(dstats.computed);
    cached = triage_cached + static_cast<std::size_t>(dstats.cached);
  }
  std::printf("[fleet] total: %zu computed, %zu cached, %zu absent in "
              "%.1f s at %d worker(s)\n",
              computed, cached, absent, run_seconds, run_workers);
  // Per-worker tail utilization: the cost-ordered queue exists so no
  // worker shows a near-zero busy fraction while one drains a late
  // retrain cell.
  const std::vector<core::WorkerStats>& workers = fleet.worker_stats();
  if (!daemon_mode) {  // daemon mode printed its socket workers above
    for (std::size_t w = 0; w < workers.size(); ++w) {
      std::printf("[fleet] worker %zu: %zu cell(s), %.1f s busy (%.0f%% "
                  "utilization)\n",
                  w, workers[w].cells, workers[w].busy_seconds,
                  total_seconds > 0.0
                      ? 100.0 * workers[w].busy_seconds / total_seconds
                      : 0.0);
    }
  }

  // Figures: a table with no absent cells is the whole grid (for a
  // sharded fleet, the LAST shard just landed), so the grid renders its
  // figure — ./<bench>.csv plus its report — and the generic table
  // under <store>/tables/. Earlier shards still see foreign cells absent
  // and leave both to the finisher.
  std::size_t figures = 0;
  for (std::size_t g = 0; g < tables.size(); ++g) {
    if (!tables[g].complete() || tables[g].size() == 0) continue;
    const core::GridDef& def = *specs[g].def;
    const std::string table_dir = store_dir + "/tables";
    const std::string table_path = table_dir + "/" + def.name + ".csv";
    if (!io::env().mkdirs(table_dir) ||
        !io::env().write_file(table_path, tables[g].to_csv())) {
      std::fprintf(stderr, "sweep_fleet: cannot write %s\n",
                   table_path.c_str());
      return 1;
    }
    // A plain CsvWriter, not io::env(): --faults exercises the store's
    // I/O and must never tear a figure. An unwritable CWD throws (exit
    // 1, naming the path) with every cell already in the store.
    const core::Figure fig = def.aggregate(specs[g].cli, tables[g]);
    const std::string path = def.name + ".csv";
    common::CsvWriter csv(path, fig.csv_header);
    for (const std::vector<std::string>& row : fig.csv_rows) csv.row(row);
    csv.close();
    std::printf("\n=== %s ===\n%s\n\n%s[fleet] %s complete — figure "
                "written to %s\n",
                def.name.c_str(), def.title.c_str(), fig.report.c_str(),
                def.name.c_str(), path.c_str());
    ++figures;
  }
  if (figures == 0) {
    std::printf("[fleet] no grid is complete yet (cells left to other "
                "shards): the run that completes a grid writes its "
                "figure, or use sweep_merge\n");
  }

  if (!cli.get_string("json").empty()) {
    std::ofstream out(cli.get_string("json"));
    if (!out) {
      std::fprintf(stderr, "sweep_fleet: cannot open %s\n",
                   cli.get_string("json").c_str());
      return 1;
    }
    out << "{\n  \"driver\": \"sweep_fleet\",\n  \"store\": \""
        << common::json_escape(store_dir)
        << "\",\n  \"run\": {\"workers\": " << run_workers
        << ", \"total_seconds\": " << run_seconds
        << ", \"cells_computed\": " << computed
        << ", \"cells_cached\": " << cached
        << ", \"cells_absent\": " << absent << "},\n";
    if (daemon_mode) {
      out << "  \"daemon\": {\"socket\": \""
          << common::json_escape(daemon_socket_path)
          << "\", \"hosts\": " << hosts
          << ", \"requeued\": " << dstats.requeued
          << ", \"worker_deaths\": " << dstats.worker_deaths << "},\n";
    }
    out << "  \"workers\": [\n";
    if (daemon_mode) {
      for (std::size_t w = 0; w < dstats.workers.size(); ++w) {
        const fleet::DaemonStats::WorkerLoad& wl = dstats.workers[w];
        out << "    {\"worker\": " << wl.worker_id << ", \"name\": \""
            << common::json_escape(wl.name) << "\", \"cells\": " << wl.cells
            << ", \"busy_seconds\": " << wl.busy_seconds
            << ", \"utilization\": "
            << (daemon_seconds > 0.0 ? wl.busy_seconds / daemon_seconds : 0.0)
            << "}" << (w + 1 == dstats.workers.size() ? "\n" : ",\n");
      }
    } else {
      for (std::size_t w = 0; w < workers.size(); ++w) {
        out << "    {\"worker\": " << w << ", \"cells\": " << workers[w].cells
            << ", \"busy_seconds\": " << workers[w].busy_seconds
            << ", \"utilization\": "
            << (total_seconds > 0.0
                    ? workers[w].busy_seconds / total_seconds
                    : 0.0)
            << "}" << (w + 1 == workers.size() ? "\n" : ",\n");
      }
    }
    out << "  ],\n  \"grids\": [\n";
    for (std::size_t g = 0; g < tables.size(); ++g) {
      out << "    {\"bench\": \"" << specs[g].def->name
          << "\", \"cells\": " << tables[g].size()
          << ", \"computed\": " << tables[g].computed_cells()
          << ", \"cached\": " << tables[g].cached_cells()
          << ", \"absent\": " << tables[g].absent_cells() << "}"
          << (g + 1 == tables.size() ? "\n" : ",\n");
    }
    // The full metrics registry rides along in the (already volatile)
    // fleet summary: store hit/miss per layer, kernel path mix, pool and
    // sweep counters — everything perf_gate.py and the nightly job
    // summary read. Figure tables and cell records never carry it.
    out << "  ],\n  \"metrics\": "
        << obs::encode_metrics_json(obs::snapshot_metrics(), 2) << "\n}\n";
    std::printf("[fleet] summary JSON written to %s\n",
                cli.get_string("json").c_str());
  }
  return 0;
} catch (const UsageError& e) {
  return fb::usage_exit("sweep_fleet", e);
} catch (const std::exception& e) {
  std::fprintf(stderr, "sweep_fleet: %s\n", e.what());
  return 1;
}
