//! Schema tests for the machine-readable BENCH artifacts.
//!
//! CI uploads `BENCH_enumerators.json`, `BENCH_fault_tolerance.json` and
//! `BENCH_gate.json`; downstream tooling (the perf gate, plotting scripts)
//! parses them without serde. These tests generate each artifact
//! in-process through the same writers the `tables` binary uses —
//! `BatchReport::to_json` for the engine batches, `gate::to_json` for the
//! perf gate — then parse them back with `veriqec_bench::json` and assert
//! the keys and invariants the consumers rely on.

use veriqec::engine::{Engine, EngineConfig, Job};
use veriqec::scenario::{faulty_memory_scenario, ErrorModel};
use veriqec_bench::gate::{self, Row};
use veriqec_bench::json::Json;
use veriqec_codes::{five_qubit, repetition, steane};

/// Every engine batch shares this envelope.
fn check_envelope(doc: &Json) -> Vec<Json> {
    assert!(doc.get("wall_time_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(doc.get("workers").unwrap().as_f64().unwrap() >= 1.0);
    let jobs = doc.get("jobs").unwrap().as_arr().unwrap();
    assert!(!jobs.is_empty(), "batch report must list its jobs");
    for job in jobs {
        assert!(job.get("name").unwrap().as_str().is_some());
        assert!(job.get("outcome").unwrap().as_str().is_some());
        assert!(job.get("busy_ms").unwrap().as_f64().unwrap() >= 0.0);
        // Queue wait is measured from enqueue to first worker claim and is
        // reported separately from busy time (busy excludes it).
        assert!(job.get("queue_wait_ms").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("subtasks").unwrap().as_f64().unwrap() >= 0.0);
        // Solver-statistics block: the clause-database counters added with
        // the arena rewrite ride along on every job.
        assert!(job.get("minimized_lits").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("gc_runs").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("arena_bytes").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("mean_lbd").unwrap().as_f64().unwrap() >= 0.0);
    }
    jobs.to_vec()
}

#[test]
fn enumerators_report_has_counts_matching_group_theory() {
    // The same shape `tables enumerators` writes, on the CI-cheap codes.
    let codes = [five_qubit(), steane()];
    let jobs: Vec<Job> = codes
        .iter()
        .map(|code| Job::count(code.name().to_string(), code.clone()))
        .collect();
    let batch = Engine::new(EngineConfig::default()).run(jobs);
    assert!(batch.incomplete_jobs().is_empty());

    let doc = Json::parse(&batch.to_json()).expect("engine emits valid JSON");
    let jobs = check_envelope(&doc);
    assert_eq!(jobs.len(), codes.len());
    for (code, job) in codes.iter().zip(&jobs) {
        assert_eq!(job.get("outcome").unwrap().as_str(), Some("enumerator"));
        // Counting jobs carry the decision-diagram block: allocation and
        // cache counters plus the memory-management telemetry added with
        // the packed-arena engine.
        assert!(job.get("dd_nodes").unwrap().as_f64().unwrap() > 0.0);
        assert!(job.get("dd_peak_nodes").unwrap().as_f64().unwrap() > 0.0);
        assert!(job.get("dd_cache_lookups").unwrap().as_f64().unwrap() > 0.0);
        assert!(job.get("dd_cache_hits").unwrap().as_f64().unwrap() >= 0.0);
        let hit_rate = job.get("dd_hit_rate").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&hit_rate));
        assert!(job.get("dd_probe_len").unwrap().as_f64().unwrap() >= 0.0);
        let load = job.get("dd_load_factor").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&load));
        assert!(job.get("dd_gc_runs").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("dd_gc_reclaimed").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("dd_arena_bytes").unwrap().as_f64().unwrap() > 0.0);
        let min_weight = job.get("min_weight").unwrap().as_f64().unwrap() as usize;
        assert_eq!(Some(min_weight), code.claimed_distance());
        let coeffs = job.get("coefficients").unwrap().as_arr().unwrap();
        assert_eq!(coeffs.len(), code.n() + 1);
        // Coefficients below the distance vanish; the full enumerator sums
        // to the group-theoretic failure total 2^(n+k) − 2^(n−k).
        for c in &coeffs[..min_weight] {
            assert_eq!(c.as_f64(), Some(0.0));
        }
        let total: f64 = coeffs.iter().map(|c| c.as_f64().unwrap()).sum();
        let (n, k) = (code.n() as u32, code.k() as u32);
        let expected = ((1u128 << (n + k)) - (1u128 << (n - k))) as f64;
        assert_eq!(total, expected, "{}", code.name());
    }
}

#[test]
fn fault_tolerance_report_exposes_the_frontier_grid() {
    // One cheap frontier job, exactly as `tables fault_tolerance --quick`
    // runs them: repetition-3 with a single extraction round.
    let scenario = faulty_memory_scenario(&repetition(3), ErrorModel::XErrors, 1);
    let batch = Engine::new(EngineConfig::default()).run(vec![Job::fault_tolerance(
        "repetition_3_r1",
        &scenario,
        1,
        1,
    )]);
    assert!(batch.incomplete_jobs().is_empty());

    let doc = Json::parse(&batch.to_json()).expect("engine emits valid JSON");
    let jobs = check_envelope(&doc);
    assert_eq!(jobs[0].get("outcome").unwrap().as_str(), Some("frontier"));
    let points = jobs[0].get("points").unwrap().as_arr().unwrap();
    assert_eq!(points.len(), 4, "full 2x2 (t_data, t_meas) grid");
    for p in points {
        assert!(p.get("t_data").unwrap().as_f64().unwrap() <= 1.0);
        assert!(p.get("t_meas").unwrap().as_f64().unwrap() <= 1.0);
        // Every grid point must carry a verdict (else the job would have
        // been flagged incomplete above).
        assert!(p.get("correctable").unwrap().as_bool().is_some());
    }
    // The degenerate budgets are always correctable.
    let verdict = |td: f64, tm: f64| {
        points
            .iter()
            .find(|p| {
                p.get("t_data").unwrap().as_f64() == Some(td)
                    && p.get("t_meas").unwrap().as_f64() == Some(tm)
            })
            .and_then(|p| p.get("correctable").unwrap().as_bool())
    };
    assert_eq!(verdict(0.0, 0.0), Some(true));
    assert_eq!(verdict(1.0, 0.0), Some(true));
}

#[test]
fn cancelled_before_claim_jobs_report_finite_queue_wait() {
    use std::sync::atomic::Ordering;

    // Cancel the batch before any worker can claim a job: every job's
    // internal queue-wait stays `None`, and this pins what the reports
    // emit for that case — a finite `queue_wait_ms` (the whole batch
    // wait), never a NaN or a missing field.
    let engine = Engine::new(EngineConfig::default());
    engine.cancel_flag().store(true, Ordering::Relaxed);
    let batch = engine.run(vec![
        Job::distance("precancelled_distance", steane(), 3),
        Job::detection("precancelled_detection", five_qubit(), 3),
    ]);

    let doc = Json::parse(&batch.to_json()).expect("engine emits valid JSON");
    // The shared envelope already requires queue_wait_ms to be present and
    // non-negative on every job.
    let jobs = check_envelope(&doc);
    assert_eq!(jobs.len(), 2);
    for job in &jobs {
        assert_eq!(job.get("outcome").unwrap().as_str(), Some("cancelled"));
        assert_eq!(job.get("reason").unwrap().as_str(), Some("cancelled"));
        let qw = job.get("queue_wait_ms").unwrap().as_f64().unwrap();
        assert!(qw.is_finite() && qw >= 0.0, "queue_wait_ms was {qw}");
        // Unclaimed jobs burned no worker time and issued no subtasks.
        assert_eq!(job.get("subtasks").unwrap().as_f64(), Some(0.0));
        assert_eq!(job.get("busy_ms").unwrap().as_f64(), Some(0.0));
    }

    // The markdown rendering rows the same jobs as cancelled, with a
    // rendered (non-NaN) queue column.
    let md = batch.to_markdown();
    assert!(md.contains("| precancelled_distance | cancelled | 0 |"));
    assert!(md.contains("| precancelled_detection | cancelled | 0 |"));
    assert!(!md.contains("NaN"));
}

/// Writes `rows` through the writer `tables gate` uses and checks the
/// `veriqec_gate_v1` envelope, the fields of every row and the gate's join
/// key, `(layer, workload, metric)`, which must be unique. Returns the
/// parsed rows.
fn check_gate_report(rows: &[Row]) -> Vec<Json> {
    let doc = Json::parse(&gate::to_json(true, rows)).expect("gate report is valid JSON");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
    let parsed = doc.get("rows").unwrap().as_arr().unwrap().to_vec();
    assert_eq!(parsed.len(), rows.len());
    let mut keys = Vec::new();
    for r in &parsed {
        let text = |k: &str| r.get(k).unwrap().as_str().unwrap();
        assert!(r.get("value").unwrap().as_f64().unwrap().is_finite());
        assert!(!text("unit").is_empty());
        assert!(matches!(text("better"), "lower" | "higher"));
        keys.push((text("layer"), text("workload"), text("metric")));
    }
    let count = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), count);
    parsed
}

/// The row of `rows` under `(layer, workload, metric)`.
fn find<'a>(rows: &'a [Json], layer: &str, workload: &str, metric: &str) -> &'a Json {
    rows.iter()
        .find(|r| {
            r.get("layer").unwrap().as_str() == Some(layer)
                && r.get("workload").unwrap().as_str() == Some(workload)
                && r.get("metric").unwrap().as_str() == Some(metric)
        })
        .unwrap_or_else(|| panic!("no {layer}/{workload}/{metric} row"))
}

#[test]
fn kernels_report_matches_the_gate_schema() {
    // Representative kernel rows — the measurement itself is covered by the
    // bench targets; this pins the artifact schema the CI gate and baseline
    // file depend on.
    let rows = check_gate_report(&[
        Row::lower("cexpr", "xor_chain_d5", "median_ns", 51234.5, "ns"),
        Row::lower("reduce", "branch_resolution_d5", "median_ns", 8123.0, "ns"),
        Row::lower("qsim", "frame_sequential_d5", "median_ns", 35900.0, "ns"),
        Row::lower("qsim", "frame_batch_d5", "median_ns", 87.2, "ns"),
        Row::higher("qsim", "frame_batch_d5", "speedup", 412.0, "x"),
    ]);
    for r in &rows {
        if r.get("metric").unwrap().as_str() == Some("median_ns") {
            assert!(r.get("value").unwrap().as_f64().unwrap() > 0.0);
            assert_eq!(r.get("unit").unwrap().as_str(), Some("ns"));
            assert_eq!(r.get("better").unwrap().as_str(), Some("lower"));
        }
    }
    let speedup = find(&rows, "qsim", "frame_batch_d5", "speedup");
    assert!(speedup.get("value").unwrap().as_f64().unwrap() >= 10.0);
    assert_eq!(speedup.get("better").unwrap().as_str(), Some("higher"));
}

#[test]
fn solver_report_matches_the_gate_schema() {
    // A representative instance plus the aggregate rates — the measurement
    // itself is covered by the crate's own tests; this pins the rows that
    // `bench_baselines.json` and the CI gate join against, and the fields
    // plotting scripts consume.
    let instance = |metric, value, unit| Row::lower("sat", "php_7_6", metric, value, unit);
    let rows = check_gate_report(&[
        instance("wall_ms", 3.2, "ms"),
        instance("propagations", 120_000.0, "count"),
        instance("conflicts", 4_000.0, "count"),
        Row::higher("sat", "php_7_6", "props_per_s", 3.75e7, "1/s"),
        instance("mean_lbd", 5.0, "lbd"),
        Row::higher("sat", "aggregate", "props_per_s", 3.75e7, "1/s"),
        Row::higher("sat", "aggregate", "conflicts_per_s", 1.25e6, "1/s"),
    ]);
    for metric in [
        "wall_ms",
        "propagations",
        "conflicts",
        "props_per_s",
        "mean_lbd",
    ] {
        let value = find(&rows, "sat", "php_7_6", metric).get("value").unwrap();
        assert!(value.as_f64().unwrap() >= 0.0, "{metric}");
    }
    for metric in ["props_per_s", "conflicts_per_s"] {
        let row = find(&rows, "sat", "aggregate", metric);
        assert!(row.get("value").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(row.get("better").unwrap().as_str(), Some("higher"));
    }
}

#[test]
fn gate_report_matches_the_gate_schema() {
    // One report holds every layer; a workload name may repeat across
    // metrics and layers, the full key may not.
    let rows = check_gate_report(&[
        Row::lower("cexpr", "xor_chain_d5", "median_ns", 1234.5, "ns"),
        Row::higher("qsim", "frame_batch_d5", "speedup", 412.0, "x"),
        Row::lower("sat", "php_7_6", "propagations", 9425.0, "count"),
        Row::higher("sat", "aggregate", "props_per_s", 3.75e6, "1/s"),
        Row::lower("dd", "Steane [[7,1,3]]", "peak_nodes", 4000.0, "count"),
        Row::higher("dd", "Steane [[7,1,3]]", "cache_hit_rate", 0.4, "ratio"),
    ]);
    let dd = find(&rows, "dd", "Steane [[7,1,3]]", "peak_nodes");
    assert_eq!(dd.get("value").unwrap().as_f64(), Some(4000.0));
}

#[test]
fn checked_in_baselines_are_well_formed() {
    // Against an empty report every row of `bench_baselines.json` must fail
    // only as unmeasured: a malformed row, or an empty list, would show up
    // as a different error.
    let doc = Json::parse(include_str!("../bench_baselines.json")).expect("baseline parses");
    let regressions = gate::check(&[], &doc);
    let rows = doc.get("gates").unwrap().as_arr().unwrap();
    assert_eq!(regressions.len(), rows.len());
    assert!(
        regressions.iter().all(|r| r.0.contains("was not measured")),
        "{regressions:?}"
    );
    // The two former floors are ordinary rows: 10x and 1.0e6/s at 3x.
    let value = |layer: &str, workload: &str, metric: &str| {
        rows.iter()
            .find(|r| {
                r.get("layer").unwrap().as_str() == Some(layer)
                    && r.get("workload").unwrap().as_str() == Some(workload)
                    && r.get("metric").unwrap().as_str() == Some(metric)
            })
            .and_then(|r| r.get("value").unwrap().as_f64())
    };
    assert_eq!(value("qsim", "frame_batch_d5", "speedup"), Some(30.0));
    assert_eq!(value("sat", "aggregate", "props_per_s"), Some(3.0e6));
}
