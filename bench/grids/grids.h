#pragma once
// The study's grid definitions, registered into core::GridRegistry (see
// grid_registry.h). Each bench/grids/<name>_grid.cpp is its bench's
// single source of truth: grid axes, scenario-key scheme, scenario
// function, and figure aggregation all live in that one file, so the
// cells a figure reads are exactly the cells its grid built.

namespace falvolt::bench {

/// Register every grid — the seven figure benches, the design-choice
/// ablation, and the example-derived workloads — into
/// core::GridRegistry::instance(). Idempotent — every driver calls it
/// first.
void register_all_grids();

namespace fig2 {
void register_grid();
}  // namespace fig2

namespace fig5a {
void register_grid();
}  // namespace fig5a

namespace fig5b {
void register_grid();
}  // namespace fig5b

namespace fig5c {
void register_grid();
}  // namespace fig5c

namespace fig6 {
void register_grid();
}  // namespace fig6

namespace fig7 {
void register_grid();
}  // namespace fig7

namespace fig8 {
void register_grid();
}  // namespace fig8

// FalVolt design-choice ablations (MNIST at 30% faulty PEs); see
// ablation_grid.cpp for the arm definitions.
namespace ablation {
void register_grid();
}  // namespace ablation

// Example-derived workload: chip-salvage triage over a fab lot (one
// cell per manufactured die; MNIST).
namespace chip_salvage {
/// Deterministic defect count of die `chip` (0 for a clean die).
int chip_defects(int chip, double defect_rate, int total_pes);
void register_grid();
}  // namespace chip_salvage

// Example-derived workload: in-field gesture pipeline on a damaged edge
// accelerator (fault-rate x mitigation cells; DVS-Gesture).
namespace gesture {
void register_grid();
}  // namespace gesture

}  // namespace falvolt::bench
