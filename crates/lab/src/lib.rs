//! # tn-lab — declarative scenario sweeps with a deterministic parallel
//! # batch runner
//!
//! The paper's conclusions are all sweeps — demand vs. mroute capacity
//! (§3), consumer counts for filter placement (§3), design-by-design
//! reaction distributions (§4) — and every experiment binary used to
//! hand-roll its own loop over one config at a time on one core. This
//! crate is the fan-out layer:
//!
//! * [`SweepSpec`] — a serializable (`tn-lab-spec/v1`) template over
//!   [`tn_core::ScenarioConfig`]: a base preset, design list, fixed
//!   overrides, parameter axes (list / range / log-range), and seed
//!   replication, expanded deterministically into an ordered
//!   [`RunPlan`] manifest of at most [`spec::MAX_RUNS`] runs.
//! * [`run_batch`] — a `std::thread` worker pool that executes the
//!   manifest concurrently and merges outcomes in manifest order.
//!   N-thread and 1-thread executions are byte-identical, and every
//!   per-run trace digest equals its standalone single-run counterpart
//!   (`tn-audit divergence` pins both).
//! * [`LabReport`] — cross-run aggregation via `tn-stats`: per-cell
//!   pooled p50/p99/p999, min/max, and cross-seed spread, serialized as
//!   `tn-lab/v1` plus a human summary table.
//!
//! Both documents are built and parsed with the workspace's one JSON
//! module, [`tn_sim::json`], whose raw number tokens make
//! serialize → parse → serialize a byte identity.
//!
//! The `tn-lab` binary exposes `expand`, `run`, and `summarize`;
//! `tn-bench` experiments reuse the runner through the [`RunExecutor`]
//! trait (see tn-bench's `mcast-exhaustion` experiment for a custom
//! executor).

pub mod agg;
pub mod runner;
pub mod spec;

pub use agg::{LabReport, REPORT_SCHEMA};
pub use runner::{
    build_config, resolve_design, run_batch, RunExecutor, RunOutcome, ScenarioExecutor,
};
pub use spec::{Axis, AxisValues, RunPlan, SweepSpec, SPEC_SCHEMA};
/// The workspace's JSON module (`tn_sim::json`), also reachable here
/// because the benchmark package's contract test imports it by this path.
pub use tn_sim::json;

#[cfg(test)]
mod tests {
    use super::*;

    /// End to end on one real (single-cell) scenario: spec → expand →
    /// run → aggregate, with the cell pinned to the golden quickstart
    /// digest. The full grid versions live in the tn-audit divergence
    /// registry; this keeps one fast in-crate proof.
    #[test]
    fn single_cell_sweep_reproduces_the_quickstart_digest() {
        let mut spec = SweepSpec::smoke();
        spec.axes.clear(); // overrides only: the trimmed quickstart cell
        let manifest = spec.expand().unwrap();
        assert_eq!(manifest.len(), 1);
        let outcomes = run_batch(&manifest, 1, &ScenarioExecutor::new()).unwrap();
        assert_eq!(outcomes[0].digest, 0xc9ef3e6d16dadef0);
        assert_eq!(outcomes[0].events, 19_924);
        let report = LabReport::build(&spec.name, &spec.base, &manifest, &outcomes);
        assert_eq!(report.runs[0].digest, 0xc9ef3e6d16dadef0);
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0].count > 0, "reaction samples pooled");
        let back = LabReport::parse(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}
