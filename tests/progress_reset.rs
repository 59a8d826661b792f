//! Regression test: heartbeat/progress globals must reset between batches.
//!
//! A resident process (the `veriqec_serve` daemon, a notebook, a long
//! REPL) runs many engine batches in one process. The progress globals in
//! `veriqec_obs::heartbeat` are process-wide; before the engine called
//! `reset_progress` at batch start, the second batch inherited the first
//! batch's done counters and job totals, reporting a bogus jobs-done
//! fraction (e.g. `jobs=5/2`) and a negative-drift ETA. This lives in its
//! own integration-test binary so no concurrently running engine test can
//! touch the globals mid-assertion, and its tests take [`GLOBALS`] so they
//! do not race each other either.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use veriqec::engine::{Engine, EngineConfig, Job, JobOutcome};
use veriqec::parallel::SplitConfig;
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec::tasks::build_problem;
use veriqec_codes::{five_qubit, steane};
use veriqec_obs::heartbeat;

/// Serializes the tests of this binary over the process-wide gauges.
static GLOBALS: Mutex<()> = Mutex::new(());

#[test]
fn second_batch_in_one_process_reports_only_its_own_jobs() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // A larger first batch, then a smaller second one — exactly the shape
    // that used to leave JOBS_DONE > JOBS_TOTAL.
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let first = engine.run(vec![
        Job::distance("first_steane", steane(), 3),
        Job::detection("first_five_qubit", five_qubit(), 3),
        Job::count("first_count", five_qubit()),
    ]);
    assert!(first.incomplete_jobs().is_empty());
    assert_eq!(heartbeat::JOBS_TOTAL.get(), 3);
    assert_eq!(heartbeat::JOBS_DONE.get(), 3);

    let second = engine.run(vec![Job::distance("second_steane", steane(), 3)]);
    assert!(second.incomplete_jobs().is_empty());
    assert_eq!(
        heartbeat::JOBS_TOTAL.get(),
        1,
        "second batch must not inherit the first batch's job total"
    );
    assert_eq!(
        heartbeat::JOBS_DONE.get(),
        1,
        "second batch must not inherit the first batch's done counter"
    );

    // The rendered status line agrees: one job of one, not five of three.
    let line = heartbeat::status_line(Duration::from_secs(1));
    assert!(
        line.contains("jobs=1/1"),
        "status line reports stale progress: {line}"
    );
}

#[test]
fn cancelled_jobs_are_counted_done_exactly_once() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
    let correction = |name: &str, t| {
        Job::correction(
            name,
            build_problem(&scenario, t, vec![]),
            scenario.error_vars.clone(),
            SplitConfig::default(),
        )
    };
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    // Steane fails at t = 2: its first counterexample cancels the job
    // while cubes are still left to hand out.
    let batch = engine.run(vec![
        correction("steane_t2", 2),
        correction("steane_t1", 1),
        Job::detection("five_qubit_dt3", five_qubit(), 3),
    ]);
    assert!(matches!(
        batch.jobs[0].outcome,
        JobOutcome::CounterExample(_)
    ));
    assert!(
        batch.jobs[0].subtasks < 10,
        "cancelled before its last cube"
    );
    assert_eq!(heartbeat::JOBS_TOTAL.get(), 3);
    assert_eq!(heartbeat::JOBS_DONE.get(), 3);

    // A batch cancelled before it starts counts every job as done too.
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    engine.cancel_flag().store(true, Ordering::Relaxed);
    let batch = engine.run(vec![correction("steane_t1", 1), correction("steane_t2", 2)]);
    assert!(batch
        .jobs
        .iter()
        .all(|j| matches!(j.outcome, JobOutcome::Cancelled)));
    assert_eq!(heartbeat::JOBS_TOTAL.get(), 2);
    assert_eq!(heartbeat::JOBS_DONE.get(), 2);
}
