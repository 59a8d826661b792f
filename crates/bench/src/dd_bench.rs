//! Decision-diagram compile benchmarks behind the `tables dd` CI gate.
//!
//! `tables dd [--quick]` compiles a pinned set of codes through the same
//! [`FailureEnumerator`] sessions the engine's counting jobs use — full
//! projected compilation plus the stratified count — and writes per-code
//! wall time, node traffic (allocations, peak and final live nodes), apply
//! cache hit rate, and garbage-collection telemetry (runs, reclaimed nodes)
//! to `BENCH_dd.json`. Every run re-asserts the enumerator coefficients
//! against the group-theoretic failure total and the claimed distance, and
//! the carbon \[\[12,2,4\]\] coefficients bit-for-bit, so the perf gate can
//! never green-light a fast-but-wrong kernel.
//!
//! With `--check <baseline.json>` the fresh measurements are gated against
//! the checked-in `bench_baselines.json` (`dd_metrics` section): wall time
//! and peak live nodes may not exceed [`crate::kernels::TOLERANCE`]× their
//! baselines — the same hard-regression-only philosophy as the kernel and
//! solver gates.

use std::time::Instant;

use veriqec::enumerator::FailureEnumerator;
use veriqec_codes::{carbon_12_2_4, five_qubit, rotated_surface, steane, toric, StabilizerCode};
use veriqec_dd::{CompileConfig, DdStats};

use crate::json::Json;
use crate::kernels::{Regression, TOLERANCE};

/// The carbon code's failure weight enumerator, pinned from the first
/// release of the counting backend. The dd gate re-asserts it on every run:
/// any storage, GC, or ordering change that perturbs a single coefficient
/// fails the build before any timing is compared.
pub const CARBON_COEFFICIENTS: [u128; 13] =
    [0, 0, 0, 0, 41, 199, 609, 1539, 2991, 4005, 3547, 1937, 492];

/// One measured code.
#[derive(Clone, Debug)]
pub struct DdMetric {
    /// Stable code name — the join key against `bench_baselines.json`.
    pub name: String,
    /// Median wall time of a full compile-and-count session, milliseconds.
    pub wall_ms: f64,
    /// Live nodes after compilation (the counted diagram).
    pub final_nodes: u64,
    /// Decision-diagram statistics of the median run.
    pub stats: DdStats,
    /// Enumerator coefficients by support weight (re-asserted, then
    /// recorded in the artifact so plots need no second run).
    pub coefficients: Vec<u128>,
}

/// The full dd report (serialized to `BENCH_dd.json`).
#[derive(Clone, Debug)]
pub struct DdReport {
    /// True for the CI `--quick` run (fewer runs, cheap codes plus carbon).
    pub quick: bool,
    /// Measured codes.
    pub metrics: Vec<DdMetric>,
}

impl DdReport {
    /// Code lookup by name.
    pub fn metric(&self, name: &str) -> Option<&DdMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes the report (stable field names; no external
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"schema\":\"veriqec_dd_v1\",\"quick\":{},\"codes\":[",
            self.quick
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"wall_ms\":{:.3},\"nodes\":{},\"peak_nodes\":{},\"final_nodes\":{}",
                m.name, m.wall_ms, m.stats.nodes, m.stats.peak_nodes, m.final_nodes,
            ));
            out.push_str(&format!(
                ",\"hit_rate\":{:.4},\"gc_runs\":{},\"gc_reclaimed\":{},\"arena_bytes\":{}",
                m.stats.cache_hit_rate(),
                m.stats.gc_runs,
                m.stats.gc_reclaimed,
                m.stats.arena_bytes,
            ));
            out.push_str(&format!(",\"coefficients\":{:?}}}", m.coefficients));
        }
        out.push_str("]}");
        out
    }
}

/// Compiles and counts one code `runs` times, keeping the median-wall run,
/// and re-asserts the coefficients: distance, group-theoretic total, and —
/// when `expect` pins them — every coefficient bit-for-bit.
fn measure(code: &StabilizerCode, runs: usize, expect: Option<&[u128]>) -> DdMetric {
    assert!(runs > 0);
    let mut timed: Vec<(f64, u64, DdStats, Vec<u128>)> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let mut fe = FailureEnumerator::new(code, &CompileConfig::default())
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", code.name()));
            let coefficients = fe.coefficients().to_vec();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            (wall_ms, fe.node_count() as u64, fe.dd_stats(), coefficients)
        })
        .collect();
    timed.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    let (wall_ms, final_nodes, stats, coefficients) = timed.swap_remove(timed.len() / 2);
    let d = coefficients
        .iter()
        .position(|&c| c > 0)
        .expect("every code has failures");
    assert_eq!(
        Some(d),
        code.claimed_distance(),
        "{}: enumerator distance disagrees with the claimed distance",
        code.name()
    );
    let (n, k) = (code.n() as u32, code.k() as u32);
    assert_eq!(
        coefficients.iter().sum::<u128>(),
        (1u128 << (n + k)) - (1u128 << (n - k)),
        "{}: total failures disagree with group counting",
        code.name()
    );
    if let Some(expect) = expect {
        assert_eq!(
            coefficients,
            expect,
            "{}: coefficients drifted from the pinned enumerator",
            code.name()
        );
    }
    DdMetric {
        name: code.name().to_string(),
        wall_ms,
        final_nodes,
        stats,
        coefficients,
    }
}

/// Runs every pinned code and assembles the report. `quick` is the CI mode:
/// one timed run per code over the cheap codes plus carbon \[\[12,2,4\]\] (the
/// headline instance the packed-arena engine was built for); the full mode
/// adds the larger surface/toric diagrams and takes medians of three.
pub fn run_dd_bench(quick: bool) -> DdReport {
    let runs = if quick { 1 } else { 3 };
    let mut metrics = vec![
        measure(&five_qubit(), runs, None),
        measure(&steane(), runs, None),
        measure(&rotated_surface(3), runs, None),
        measure(&carbon_12_2_4(), runs, Some(&CARBON_COEFFICIENTS)),
    ];
    if !quick {
        metrics.extend([
            measure(&toric(3), runs, None),
            measure(&rotated_surface(5), runs, None),
        ]);
    }
    DdReport { quick, metrics }
}

/// Compares a fresh report against a parsed `bench_baselines.json` document
/// (its `dd_metrics` section: `[{"name", "wall_ms", "peak_nodes"}, ...]`).
/// A code regresses when its wall time or peak live-node count exceeds
/// [`TOLERANCE`]× the baseline; baseline entries with no measured
/// counterpart are reported too (a silently dropped code must not pass the
/// gate), while measured codes absent from the baseline are ignored (new
/// codes land first, their baselines land with the measurement).
pub fn check_dd_baseline(report: &DdReport, baseline: &Json) -> Vec<Regression> {
    let mut regressions = Vec::new();
    let entries = baseline
        .get("dd_metrics")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for entry in entries {
        let (Some(name), Some(base_ms), Some(base_peak)) = (
            entry.get("name").and_then(Json::as_str),
            entry.get("wall_ms").and_then(Json::as_f64),
            entry.get("peak_nodes").and_then(Json::as_f64),
        ) else {
            regressions.push(Regression(format!(
                "malformed dd baseline entry: {entry:?}"
            )));
            continue;
        };
        match report.metric(name) {
            None => regressions.push(Regression(format!(
                "baseline dd code '{name}' was not measured"
            ))),
            Some(m) => {
                if m.wall_ms > base_ms * TOLERANCE {
                    regressions.push(Regression(format!(
                        "{name}: {:.2} ms exceeds {TOLERANCE}x baseline {base_ms:.2} ms",
                        m.wall_ms
                    )));
                }
                if m.stats.peak_nodes as f64 > base_peak * TOLERANCE {
                    regressions.push(Regression(format!(
                        "{name}: peak {} nodes exceeds {TOLERANCE}x baseline {base_peak:.0}",
                        m.stats.peak_nodes
                    )));
                }
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, wall_ms: f64, peak_nodes: u64) -> DdMetric {
        DdMetric {
            name: name.into(),
            wall_ms,
            final_nodes: peak_nodes / 2,
            stats: DdStats {
                nodes: peak_nodes * 2,
                peak_nodes,
                cache_lookups: 1000,
                cache_hits: 400,
                gc_runs: 2,
                gc_reclaimed: 500,
                arena_bytes: 12_000,
                ..DdStats::default()
            },
            coefficients: vec![0, 0, 2],
        }
    }

    #[test]
    fn report_json_round_trips_through_parser() {
        let report = DdReport {
            quick: true,
            metrics: vec![metric("steane", 2.5, 4_000)],
        };
        let doc = Json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("veriqec_dd_v1"));
        assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
        let codes = doc.get("codes").unwrap().as_arr().unwrap();
        assert_eq!(codes[0].get("name").unwrap().as_str(), Some("steane"));
        assert_eq!(codes[0].get("peak_nodes").unwrap().as_f64(), Some(4_000.0));
        assert_eq!(codes[0].get("hit_rate").unwrap().as_f64(), Some(0.4));
        assert_eq!(codes[0].get("gc_runs").unwrap().as_f64(), Some(2.0));
        let coeffs = codes[0].get("coefficients").unwrap().as_arr().unwrap();
        assert_eq!(coeffs.len(), 3);
        assert_eq!(coeffs[2].as_f64(), Some(2.0));
    }

    #[test]
    fn baseline_gate_flags_only_hard_regressions() {
        let report = DdReport {
            quick: true,
            metrics: vec![
                metric("fast", 2.0, 1_000),
                metric("slow", 100.0, 1_000),
                metric("bloated", 1.0, 90_000),
            ],
        };
        let baseline = Json::parse(
            r#"{"dd_metrics":[
                {"name":"fast","wall_ms":1.0,"peak_nodes":800},
                {"name":"slow","wall_ms":10.0,"peak_nodes":800},
                {"name":"bloated","wall_ms":1.0,"peak_nodes":10000},
                {"name":"gone","wall_ms":5.0,"peak_nodes":100}
            ]}"#,
        )
        .unwrap();
        let regs = check_dd_baseline(&report, &baseline);
        // 'fast' is 2x the wall baseline — inside the 3x tolerance. 'slow'
        // is 10x on wall, 'bloated' 9x on peak nodes, 'gone' unmeasured.
        assert_eq!(regs.len(), 3, "{regs:?}");
        assert!(regs.iter().any(|r| r.0.contains("slow")));
        assert!(regs.iter().any(|r| r.0.contains("bloated")));
        assert!(regs.iter().any(|r| r.0.contains("gone")));
    }

    #[test]
    fn missing_dd_section_gates_nothing() {
        let report = DdReport {
            quick: true,
            metrics: vec![metric("steane", 1.0, 100)],
        };
        let baseline = Json::parse(r#"{"metrics":[]}"#).unwrap();
        assert!(check_dd_baseline(&report, &baseline).is_empty());
    }

    #[test]
    fn cheap_codes_measure_and_pin_their_enumerators() {
        // The real measurement path on the two cheapest codes: coefficient
        // re-assertion (distance + group total) runs inside `measure`.
        let m = measure(&five_qubit(), 1, None);
        assert!(m.wall_ms > 0.0);
        assert!(m.stats.nodes > 0);
        assert!(m.final_nodes > 0);
        assert_eq!(m.coefficients.iter().sum::<u128>(), (1 << 6) - (1 << 4));
    }
}
