//! Shared helpers for the benchmark harness.
//!
//! Each Criterion bench and table binary regenerates one table or figure of
//! the paper's evaluation section; `DESIGN.md` maps experiment ids to
//! targets, and `EXPERIMENTS.md` records paper-vs-measured results. The
//! CI perf gate (`tables gate` → `BENCH_gate.json`) measures
//! four layers — [`kernels`] (GF(2), reduction and frame kernels),
//! [`solver_bench`] (CDCL throughput), [`dd_bench`] (decision-diagram
//! compiles) and [`engine_bench`] (correction-job work) — as rows of one
//! schema, which [`gate`] writes and checks
//! against `bench_baselines.json`. [`json`] is the minimal parser the gate
//! and the artifact schema tests read with (the tree is offline — no serde;
//! the parser itself lives in `veriqec_serve`, which also feeds it the
//! daemon's line protocol), and [`trace`] validates the Chrome trace-event
//! artifacts `tables --trace` emits before they are written or uploaded.

use veriqec::scenario::{memory_scenario, ErrorModel, Scenario};
use veriqec::tasks::build_problem;
use veriqec_codes::{rotated_surface, StabilizerCode};
use veriqec_vcgen::VcProblem;

pub mod dd_bench;
pub mod engine_bench;
pub mod gate;
pub use veriqec_serve::json;
pub mod kernels;
pub mod solver_bench;
pub mod trace;

/// The rotated-surface memory workload of Figs. 4/6/7 at distance `d`.
pub fn surface_workload(d: usize) -> (StabilizerCode, Scenario) {
    let code = rotated_surface(d);
    let scenario = memory_scenario(&code, ErrorModel::YErrors);
    (code, scenario)
}

/// The fully assembled general-verification problem for distance `d`.
pub fn surface_problem(d: usize) -> (Scenario, VcProblem) {
    let (_, scenario) = surface_workload(d);
    let t = (d as i64 - 1) / 2;
    let problem = build_problem(&scenario, t, vec![]);
    (scenario, problem)
}

/// Deterministic "random" qubit subset for the locality constraint.
pub fn locality_set(d: usize) -> Vec<usize> {
    let n = d * d;
    let count = (n - 1) / 2;
    (0..count).map(|i| (i * 7 + 3) % n).collect()
}

/// Deterministic xorshift so every run times an identical workload.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}
