//! Engine-layer rows of the perf gate: the work of correction jobs under
//! the engine's cube order and clause exchange.
//!
//! Both workloads run the rotated surface code d=5 (the Fig. 4 memory
//! scenario, `ET` split with distance 5 and threshold 14) on one worker,
//! which makes their counts exact and repeatable: the summed conflicts of
//! the t=2 job, which verifies, and the cubes the t=3 job issues before its
//! first counterexample cancels it. A change to the cube order, the claim
//! order or the solver's learning moves them.

use veriqec::engine::{Engine, EngineConfig, Job, JobOutcome, JobReport};
use veriqec::parallel::SplitConfig;
use veriqec::tasks::build_problem;
use veriqec_sat::SolverConfig;

use crate::gate::Row;
use crate::surface_workload;

/// One correction job on surface d=5 at weight bound `t`, on one worker.
fn surface5_job(t: i64) -> JobReport {
    let (_, scenario) = surface_workload(5);
    let job = Job::correction(
        format!("surface5_t{t}"),
        build_problem(&scenario, t, vec![]),
        scenario.error_vars,
        SplitConfig {
            heuristic_distance: 5,
            et_threshold: 14,
        },
    );
    let engine = Engine::new(EngineConfig {
        workers: 1,
        solver: SolverConfig::default(),
    });
    engine.run(vec![job]).jobs.remove(0)
}

/// Measures the engine rows, asserting both verdicts. The same in quick
/// and full runs (the two jobs take about a tenth of a second).
pub fn run_engine_bench() -> Vec<Row> {
    let unsat = surface5_job(2);
    assert!(unsat.outcome.is_verified(), "surface d=5 corrects t=2");
    let cex = surface5_job(3);
    assert!(
        matches!(cex.outcome, JobOutcome::CounterExample(_)),
        "surface d=5 fails at t=3: {:?}",
        cex.outcome
    );
    vec![
        Row::lower(
            "engine",
            "surface5_t2_unsat",
            "conflicts",
            unsat.stats.conflicts as f64,
            "count",
        ),
        Row::lower(
            "engine",
            "surface5_t3_cex",
            "cubes",
            cex.subtasks as f64,
            "count",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_rows_are_exact_counts() {
        let rows = run_engine_bench();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows, run_engine_bench(), "one worker repeats exactly");
        assert_eq!(rows[1].value, 2.0, "largest cube first: 2 cubes");
    }
}
