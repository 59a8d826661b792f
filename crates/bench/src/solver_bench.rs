//! CDCL solver throughput benchmarks behind the CI perf gate.
//!
//! [`run_solver_bench`] solves a pinned set of instances — pigeonhole and
//! seeded random 3-SAT at the pure-SAT layer, plus zoo workloads (a
//! distance sweep and incremental correction sweeps) through the same
//! sessions the engine uses — re-asserting every verdict, and returns
//! `sat` [`Row`]s for `tables gate`: per-instance wall time, propagations,
//! conflicts, propagation rate and mean learnt LBD, plus the aggregate
//! propagation and conflict rates (workload `aggregate`).

use std::time::Instant;

use veriqec::engine::{CorrectionSweep, DetectionSession};
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec::tasks::DistanceOutcome;
use veriqec_codes::{rotated_surface, steane, toric};
use veriqec_sat::{Lit, SatResult, Solver, SolverConfig, SolverStats, Var};
use veriqec_vcgen::VcOutcome;

use crate::gate::Row;
use crate::Lcg;

/// PHP(p, h): `p` pigeons into `h` holes — unsatisfiable when p > h, with a
/// propagation-heavy refutation. The canonical pure-SAT stress instance.
fn php_solver(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var().positive()).collect())
        .collect();
    for row in &vars {
        s.add_clause(row.iter().copied());
    }
    for p1 in 0..pigeons {
        for p2 in (p1 + 1)..pigeons {
            for (&a, &b) in vars[p1].iter().zip(&vars[p2]) {
                s.add_clause([!a, !b]);
            }
        }
    }
    s
}

/// Seeded random 3-SAT near the phase transition (ratio 4.2): a mixed
/// propagate/backtrack workload. The seed pins the formula, so the verdict
/// is an instance property, not a solver property.
fn rand3sat_solver(num_vars: usize, seed: u64) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
    let mut rng = Lcg(seed);
    let clauses = num_vars * 42 / 10;
    for _ in 0..clauses {
        let mut picks = [0usize; 3];
        for slot in 0..3 {
            loop {
                let v = (rng.next() as usize) % num_vars;
                if !picks[..slot].contains(&v) {
                    picks[slot] = v;
                    break;
                }
            }
        }
        let lits = picks.map(|v| Lit::new(vars[v], rng.next() & 1 == 0));
        s.add_clause(lits);
    }
    s
}

fn sat_verdict(r: SatResult) -> &'static str {
    match r {
        SatResult::Sat => "sat",
        SatResult::Unsat => "unsat",
        SatResult::Unknown => "unknown",
    }
}

/// Runs `f` (a full fresh-state solve returning its verdict tag and stats)
/// `runs + 1` times — one warm-up — asserts the verdict is the same every
/// time, and returns the wall time (ms) and stats of the median run.
fn measure<F: FnMut() -> (String, SolverStats)>(
    name: &'static str,
    runs: usize,
    mut f: F,
) -> (&'static str, f64, SolverStats) {
    assert!(runs > 0);
    let (verdict, _) = f();
    let mut timed: Vec<(f64, SolverStats)> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let (v, stats) = f();
            assert_eq!(v, verdict, "{name}: verdict must be pinned across runs");
            (t0.elapsed().as_secs_f64() * 1e3, stats)
        })
        .collect();
    timed.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    let (wall_ms, stats) = timed[timed.len() / 2];
    (name, wall_ms, stats)
}

/// `count` per second over `wall_ms` milliseconds (0 for an unmeasurably
/// short run).
fn per_sec(count: u64, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        count as f64 / (wall_ms / 1e3)
    } else {
        0.0
    }
}

/// The rows of one measured instance.
fn instance_rows(name: &'static str, wall_ms: f64, stats: SolverStats) -> [Row; 5] {
    let props = stats.propagations;
    [
        Row::lower("sat", name, "wall_ms", wall_ms, "ms"),
        Row::lower("sat", name, "propagations", props as f64, "count"),
        Row::lower("sat", name, "conflicts", stats.conflicts as f64, "count"),
        Row::higher("sat", name, "props_per_s", per_sec(props, wall_ms), "1/s"),
        Row::lower("sat", name, "mean_lbd", stats.mean_learnt_lbd(), "lbd"),
    ]
}

/// Runs every pinned instance and returns its rows. `quick` is the CI
/// mode: fewer timed runs and the small instances only; the full mode adds
/// PHP(8,7) and the surface-5 correction sweep.
pub fn run_solver_bench(quick: bool) -> Vec<Row> {
    let runs = if quick { 3 } else { 7 };
    let config = SolverConfig::default();
    let mut instances = Vec::new();

    instances.push(measure("php_7_6", runs, || {
        let mut s = php_solver(7, 6);
        let r = s.solve(&[]);
        assert_eq!(r, SatResult::Unsat);
        (sat_verdict(r).into(), s.stats())
    }));
    instances.push(measure("rand3sat_n150", runs, || {
        let mut s = rand3sat_solver(150, 0x5EED_CAFE);
        let r = s.solve(&[]);
        assert_ne!(r, SatResult::Unknown);
        (sat_verdict(r).into(), s.stats())
    }));
    instances.push(measure("steane_distance", runs, || {
        let mut session = DetectionSession::new(&steane(), config);
        let out = session.find_distance(4);
        assert_eq!(out, DistanceOutcome::Exact(3));
        ("distance_3".into(), session.solver_stats())
    }));
    instances.push(measure("surface3_sweep_w2", runs, || {
        let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
        let mut sweep = CorrectionSweep::new(&scenario, vec![], config);
        assert!(sweep.check_weight(1).is_verified());
        assert!(matches!(
            sweep.check_weight(2),
            VcOutcome::CounterExample(_)
        ));
        ("w1_verified_w2_cex".into(), sweep.session().solver_stats())
    }));
    if !quick {
        instances.push(measure("php_8_7", runs, || {
            let mut s = php_solver(8, 7);
            let r = s.solve(&[]);
            assert_eq!(r, SatResult::Unsat);
            (sat_verdict(r).into(), s.stats())
        }));
        instances.push(measure("toric3_distance", runs, || {
            let mut session = DetectionSession::new(&toric(3), config);
            let out = session.find_distance(4);
            assert_eq!(out, DistanceOutcome::Exact(3));
            ("distance_3".into(), session.solver_stats())
        }));
        instances.push(measure("surface5_sweep_w3", runs, || {
            let scenario = memory_scenario(&rotated_surface(5), ErrorModel::YErrors);
            let mut sweep = CorrectionSweep::new(&scenario, vec![], config);
            assert!(sweep.check_weight(2).is_verified());
            assert!(matches!(
                sweep.check_weight(3),
                VcOutcome::CounterExample(_)
            ));
            ("w2_verified_w3_cex".into(), sweep.session().solver_stats())
        }));
    }

    let mut rows: Vec<Row> = instances
        .iter()
        .flat_map(|&(name, wall_ms, stats)| instance_rows(name, wall_ms, stats))
        .collect();
    let wall_ms: f64 = instances.iter().map(|i| i.1).sum();
    let props: u64 = instances.iter().map(|i| i.2.propagations).sum();
    let conflicts: u64 = instances.iter().map(|i| i.2.conflicts).sum();
    rows.extend([
        Row::higher(
            "sat",
            "aggregate",
            "props_per_s",
            per_sec(props, wall_ms),
            "1/s",
        ),
        Row::higher(
            "sat",
            "aggregate",
            "conflicts_per_s",
            per_sec(conflicts, wall_ms),
            "1/s",
        ),
    ]);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::fixtures::{failures, gates};
    use crate::gate::to_json;
    use crate::json::Json;

    #[test]
    fn report_json_round_trips_through_parser() {
        let stats = SolverStats {
            propagations: 100_000,
            conflicts: 10_000,
            learned: 10_000,
            lbd_sum: 45_000,
            ..SolverStats::default()
        };
        let rows = instance_rows("php_7_6", 2.5, stats);
        let doc = Json::parse(&to_json(true, &rows)).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
        assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
        let parsed = doc.get("rows").unwrap().as_arr().unwrap();
        let value = |metric: &str| {
            let row = parsed
                .iter()
                .find(|r| r.get("metric").unwrap().as_str() == Some(metric))
                .unwrap_or_else(|| panic!("no {metric} row"));
            assert_eq!(row.get("layer").unwrap().as_str(), Some("sat"));
            assert_eq!(row.get("workload").unwrap().as_str(), Some("php_7_6"));
            row.get("value").unwrap().as_f64().unwrap()
        };
        assert_eq!(value("wall_ms"), 2.5);
        assert_eq!(value("propagations"), 100_000.0);
        assert_eq!(value("conflicts"), 10_000.0);
        assert!((value("props_per_s") - 4.0e7).abs() < 1.0);
        assert_eq!(value("mean_lbd"), 4.5);
    }

    #[test]
    fn baseline_gate_flags_only_hard_regressions() {
        let rows = [
            Row::lower("sat", "fast", "wall_ms", 2.0, "ms"),
            Row::lower("sat", "slow", "wall_ms", 100.0, "ms"),
        ];
        let regs = failures(
            &rows,
            &gates(&[
                ("sat", "fast", "wall_ms", 1.0),
                ("sat", "slow", "wall_ms", 10.0),
                ("sat", "gone", "wall_ms", 5.0),
            ]),
        );
        // 'fast' is 2x the baseline — inside the 3x tolerance. 'slow' is
        // 10x — a hard regression. 'gone' was never measured.
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("slow")));
        assert!(regs.iter().any(|r| r.contains("gone")));
    }

    /// The propagation-rate floor is a `higher` row: a baseline of 3.0e6
    /// fails below exactly 1.0e6.
    #[test]
    fn throughput_floor_is_enforced() {
        let baseline = gates(&[("sat", "aggregate", "props_per_s", 3.0e6)]);
        let rate = |v| {
            failures(
                &[Row::higher("sat", "aggregate", "props_per_s", v, "1/s")],
                &baseline,
            )
        };
        let regs = rate(10.0);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("aggregate/props_per_s"));
        assert!(rate(1.0e6).is_empty());
        assert_eq!(rate(0.99e6).len(), 1);
    }

    #[test]
    fn pinned_pure_sat_instances_solve_as_expected() {
        let mut php = php_solver(5, 4);
        assert_eq!(php.solve(&[]), SatResult::Unsat);
        // The seeded formula is identical across constructions.
        let mut a = rand3sat_solver(24, 7);
        let mut b = rand3sat_solver(24, 7);
        assert_eq!(a.solve(&[]), b.solve(&[]));
        assert_eq!(a.num_clauses(), b.num_clauses());
    }
}
