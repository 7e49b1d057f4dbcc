#pragma once
// Registry of the study's scenario grids.
//
// A GridDef captures everything a driver needs to run one bench end to
// end without bench-specific code: the bench's flag schema, its grid
// construction, its scenario function, and its figure aggregation.
// Every grid registers itself (bench/grids/) and the sweep_fleet driver
// runs any selection of them through one queue, so a cell computed for
// one selection is the same store record for every other.

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/sweep.h"

namespace falvolt::core {

/// One bench's rendered figure: the header and rows of its own CSV
/// schema, and the report a driver prints (text tables plus the
/// "Expected shape (paper)" line).
struct Figure {
  std::vector<std::string> csv_header;
  std::vector<std::vector<std::string>> csv_rows;
  std::string report;
};

/// One bench's grid, self-describing enough for a foreign driver.
struct GridDef {
  /// Canonical bench name — the store's bench id (e.g.
  /// "fig5b_fault_count"); also the registry key and the stem of the
  /// figure CSV a driver writes.
  std::string name;
  /// One-line description for listings.
  std::string title;
  /// Registers the bench-SPECIFIC flags; the caller adds the common set
  /// (bench::add_common_flags) first.
  std::function<void(common::CliFlags&)> add_flags;
  /// The grid's full dataset axis (before any --datasets subsetting).
  /// Drivers sweeping many grids use it to SKIP a grid whose axis does
  /// not intersect a dataset filter — running the grid's own builder
  /// with a foreign filter is an error by the strict-subset contract
  /// (bench::dataset_list), which is right for a bench asked for
  /// explicitly but wrong for "every grid that applies".
  std::vector<DatasetKind> datasets;
  /// Flags that shape only `aggregate`, never a cell value — exempted
  /// from cell fingerprints (e.g. fig8's --target-drop).
  std::set<std::string> aggregation_only;
  /// Builds the scenario grid from the parsed flags. Cells should carry
  /// an honest cost estimate for the runner's cost-ordered queue: set
  /// Scenario::retrain/epochs (the default estimate scales with them)
  /// or tag Scenario::cost_hint explicitly when the grid knows better
  /// (e.g. fig5c derives per-array-size eval cost from
  /// systolic::cost_model). Cost never enters a fingerprint.
  std::function<std::vector<Scenario>(const common::CliFlags&)> scenarios;
  /// Builds the scenario function. `ctx` is the context the running
  /// sweep prepares baselines into (SweepRunner::context());
  /// the returned closure must own every other value it needs — capture
  /// flag-derived values by value, shared state by shared_ptr — because
  /// the CliFlags it was built from may be gone by the time it runs.
  std::function<ScenarioFn(const common::CliFlags&, const SweepContext&)>
      scenario_fn;
  /// Renders a COMPLETE table (every cell filled, in the order
  /// `scenarios` built them) into the bench's figure. Reads only the
  /// cells' stored values and the flags, never a workload: on a warm
  /// store no baseline is prepared.
  std::function<Figure(const common::CliFlags&, const ResultTable&)>
      aggregate;
};

/// Process-global name -> GridDef map. Grids register at startup
/// (bench::register_all_grids()); drivers enumerate or look up by name.
class GridRegistry {
 public:
  static GridRegistry& instance();

  /// Registers a grid. Throws std::logic_error on a duplicate name or a
  /// def with any callback missing.
  void add(GridDef def);

  /// nullptr when `name` is not registered.
  const GridDef* find(const std::string& name) const;
  /// Throws std::out_of_range, listing the registered names, on a miss.
  const GridDef& get(const std::string& name) const;

  /// Registered names, in registration order.
  std::vector<std::string> names() const;
  std::size_t size() const { return defs_.size(); }

 private:
  std::vector<GridDef> defs_;
};

}  // namespace falvolt::core
