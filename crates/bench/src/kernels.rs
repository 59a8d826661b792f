//! Kernel microbenchmarks behind the CI perf gate.
//!
//! [`run_kernels`] times three hot-path kernels — the affine XOR chain
//! (`cexpr`), `ReducedVc::resolve_branches` (`reduce`), and
//! batch-vs-sequential Pauli frame sampling (`qsim`) — and returns median
//! ns/op per kernel plus the batch-frame speedup as [`Row`]s for
//! `tables gate`.

use std::time::Instant;

use veriqec::sampling::faulty_memory_frame;
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec_cexpr::{Affine, VarId};
use veriqec_codes::{rotated_surface, ExtractionSchedule};
use veriqec_qsim::LANES;
use veriqec_vcgen::{reduce_commuting, ReducedVc};
use veriqec_wp::qec_wp;

use crate::gate::Row;
use crate::Lcg;

/// Median wall time of `f` in nanoseconds over `samples` timed runs (one
/// untimed warm-up).
pub fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    assert!(samples > 0);
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The XOR-chain workload at distance `d`: 256 affine forms of weight 8
/// over the d×d memory scenario's variable-id span.
fn chain_forms(d: usize) -> Vec<Affine> {
    let nvars = (4 * d * d) as u64;
    let mut rng = Lcg(0x9E37_79B9 ^ d as u64);
    (0..256)
        .map(|_| Affine::sum_vars((0..8).map(|_| VarId((rng.next() % nvars) as u32))))
        .collect()
}

/// The unresolved rotated-surface memory VC at distance `d`.
fn surface_vc(d: usize) -> ReducedVc {
    let scenario = memory_scenario(&rotated_surface(d), ErrorModel::YErrors);
    let wp = qec_wp(&scenario.program, scenario.post.clone()).expect("QEC fragment");
    reduce_commuting(&scenario.lhs, &wp.pre).expect("commuting case")
}

/// The frame-sampling workload: the faulty-measurement memory protocol of
/// the rotated surface code at distance `d` over `rounds` extraction
/// rounds, with 64 deterministic weight-≤2 error configurations.
fn frame_workload(d: usize, rounds: usize) -> (veriqec_qsim::FrameCircuit, Vec<u64>) {
    let code = rotated_surface(d);
    let schedule = ExtractionSchedule::repeated(code.generators().len(), rounds);
    let frame = faulty_memory_frame(&code, ErrorModel::YErrors, &schedule);
    let sites = frame.circuit.num_error_sites();
    let mut rng = Lcg(0xD1B5_4A32 ^ d as u64);
    let mut masks = vec![0u64; sites];
    for lane in 0..LANES {
        for _ in 0..2 {
            masks[(rng.next() as usize) % sites] |= 1u64 << lane;
        }
    }
    (frame.circuit, masks)
}

/// Runs every kernel and returns its rows. `quick` is the CI mode: fewer
/// samples and d ≤ 5 workloads; the full mode adds the d=7 symbolic
/// kernels on top.
pub fn run_kernels(quick: bool) -> Vec<Row> {
    let samples = if quick { 24 } else { 64 };
    let mut rows = Vec::new();

    let symbolic_ds: &[usize] = if quick { &[5] } else { &[5, 7] };
    for &d in symbolic_ds {
        let forms = chain_forms(d);
        let ns = median_ns(samples, || {
            let mut acc = Affine::zero();
            for f in &forms {
                acc ^= f;
            }
            std::hint::black_box(&acc);
        });
        rows.push(Row::lower(
            "cexpr",
            format!("xor_chain_d{d}"),
            "median_ns",
            ns,
            "ns",
        ));
        let vc = surface_vc(d);
        let ns = median_ns(samples, || {
            let mut v = vc.clone();
            v.resolve_branches();
            std::hint::black_box(v.targets.len());
        });
        rows.push(Row::lower(
            "reduce",
            format!("branch_resolution_d{d}"),
            "median_ns",
            ns,
            "ns",
        ));
    }

    let (circuit, masks) = frame_workload(5, 3);
    let per_lane: Vec<Vec<bool>> = (0..LANES)
        .map(|lane| masks.iter().map(|w| w >> lane & 1 == 1).collect())
        .collect();
    // Both sides propagate the same 64 configurations; ns are per frame.
    let seq_ns = median_ns(samples, || {
        for cfg in &per_lane {
            std::hint::black_box(circuit.sample(cfg));
        }
    }) / LANES as f64;
    let batch_ns = median_ns(samples, || {
        std::hint::black_box(circuit.sample_batch(&masks));
    }) / LANES as f64;
    rows.push(Row::lower(
        "qsim",
        "frame_sequential_d5",
        "median_ns",
        seq_ns,
        "ns",
    ));
    rows.push(Row::lower(
        "qsim",
        "frame_batch_d5",
        "median_ns",
        batch_ns,
        "ns",
    ));
    rows.push(Row::higher(
        "qsim",
        "frame_batch_d5",
        "speedup",
        seq_ns / batch_ns,
        "x",
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::fixtures::{failures, gates};
    use crate::gate::to_json;
    use crate::json::Json;

    #[test]
    fn median_is_order_insensitive() {
        let mut calls = 0usize;
        let m = median_ns(5, || calls += 1);
        assert_eq!(calls, 6); // warm-up + samples
        assert!(m >= 0.0);
    }

    #[test]
    fn report_json_round_trips_through_parser() {
        let rows = [
            Row::lower("cexpr", "xor_chain_d5", "median_ns", 1234.5, "ns"),
            Row::higher("qsim", "frame_batch_d5", "speedup", 42.0, "x"),
        ];
        let v = Json::parse(&to_json(true, &rows)).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
        assert_eq!(v.get("quick").unwrap().as_bool(), Some(true));
        let parsed = v.get("rows").unwrap().as_arr().unwrap();
        let field = |i: usize, key: &str| parsed[i].get(key).unwrap().clone();
        assert_eq!(field(0, "layer").as_str(), Some("cexpr"));
        assert_eq!(field(0, "workload").as_str(), Some("xor_chain_d5"));
        assert_eq!(field(0, "metric").as_str(), Some("median_ns"));
        assert_eq!(field(0, "value").as_f64(), Some(1234.5));
        assert_eq!(field(0, "better").as_str(), Some("lower"));
        assert_eq!(field(1, "metric").as_str(), Some("speedup"));
        assert_eq!(field(1, "value").as_f64(), Some(42.0));
        assert_eq!(field(1, "better").as_str(), Some("higher"));
    }

    #[test]
    fn baseline_gate_flags_only_hard_regressions() {
        let rows = [
            Row::lower("qsim", "fast", "median_ns", 100.0, "ns"),
            Row::lower("qsim", "slow", "median_ns", 1000.0, "ns"),
        ];
        let regs = failures(
            &rows,
            &gates(&[
                ("qsim", "fast", "median_ns", 50.0),
                ("qsim", "slow", "median_ns", 100.0),
                ("qsim", "gone", "median_ns", 10.0),
            ]),
        );
        // 'fast' is 2x the baseline — inside the 3x tolerance. 'slow' is
        // 10x — a hard regression. 'gone' was never measured.
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("slow")));
        assert!(regs.iter().any(|r| r.contains("gone")));
    }

    /// The batch-frame speedup floor is a `higher` row: a baseline of 30
    /// fails below exactly 10.
    #[test]
    fn speedup_floor_is_enforced() {
        let baseline = gates(&[("qsim", "frame_batch_d5", "speedup", 30.0)]);
        let speedup = |v| {
            failures(
                &[Row::higher("qsim", "frame_batch_d5", "speedup", v, "x")],
                &baseline,
            )
        };
        let regs = speedup(2.0);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("speedup"));
        assert!(speedup(10.0).is_empty());
        assert_eq!(speedup(9.99).len(), 1);
    }
}
