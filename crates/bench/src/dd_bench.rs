//! Decision-diagram compile benchmarks behind the CI perf gate.
//!
//! [`run_dd_bench`] compiles a pinned set of codes through the same
//! [`FailureEnumerator`] sessions the engine's counting jobs use — full
//! projected compilation plus the stratified count — and returns `dd`
//! [`Row`]s for `tables gate`: per-code wall time, node traffic
//! (allocations, peak and final live nodes), apply-cache hit rate, and
//! garbage-collection telemetry (runs, reclaimed nodes, arena bytes). Every
//! run re-asserts the enumerator coefficients against the group-theoretic
//! failure total and the claimed distance, and the carbon \[\[12,2,4\]\]
//! coefficients bit-for-bit, so the perf gate can never green-light a
//! fast-but-wrong kernel. The coefficients themselves are not rows; the
//! zoo's are in `BENCH_enumerators.json`.

use std::time::Instant;

use veriqec::enumerator::FailureEnumerator;
use veriqec_codes::{carbon_12_2_4, five_qubit, rotated_surface, steane, toric, StabilizerCode};
use veriqec_dd::{CompileConfig, DdStats};

use crate::gate::Row;

/// The carbon code's failure weight enumerator, pinned from the first
/// release of the counting backend. The dd bench re-asserts it on every
/// run: any storage, GC, or ordering change that perturbs a single
/// coefficient fails the build before any timing is compared.
pub const CARBON_COEFFICIENTS: [u128; 13] =
    [0, 0, 0, 0, 41, 199, 609, 1539, 2991, 4005, 3547, 1937, 492];

/// Compiles and counts one code `runs` times, keeping the median-wall run,
/// re-asserts the coefficients — distance, group-theoretic total, and, when
/// `expect` pins them, every coefficient bit-for-bit — and returns the
/// median run's rows.
fn measure(code: &StabilizerCode, runs: usize, expect: Option<&[u128]>) -> Vec<Row> {
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
    code_rows(code.name(), wall_ms, final_nodes, stats)
}

/// The rows of one measured code.
fn code_rows(name: &str, wall_ms: f64, final_nodes: u64, stats: DdStats) -> Vec<Row> {
    let count = |metric, value: u64| Row::lower("dd", name, metric, value as f64, "count");
    vec![
        Row::lower("dd", name, "wall_ms", wall_ms, "ms"),
        count("nodes", stats.nodes),
        count("peak_nodes", stats.peak_nodes),
        count("final_nodes", final_nodes),
        Row::higher(
            "dd",
            name,
            "cache_hit_rate",
            stats.cache_hit_rate(),
            "ratio",
        ),
        count("gc_runs", stats.gc_runs),
        count("gc_reclaimed", stats.gc_reclaimed),
        Row::lower("dd", name, "arena_bytes", stats.arena_bytes as f64, "bytes"),
    ]
}

/// Runs every pinned code and returns its rows. `quick` is the CI mode:
/// one timed run per code over the cheap codes plus carbon \[\[12,2,4\]\] (the
/// headline instance the packed-arena engine was built for); the full mode
/// adds the larger surface/toric diagrams and takes medians of three.
pub fn run_dd_bench(quick: bool) -> Vec<Row> {
    let runs = if quick { 1 } else { 3 };
    let mut rows = [
        measure(&five_qubit(), runs, None),
        measure(&steane(), runs, None),
        measure(&rotated_surface(3), runs, None),
        measure(&carbon_12_2_4(), runs, Some(&CARBON_COEFFICIENTS)),
    ]
    .concat();
    if !quick {
        rows.extend(measure(&toric(3), runs, None));
        rows.extend(measure(&rotated_surface(5), runs, None));
    }
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
        let stats = DdStats {
            nodes: 8_000,
            peak_nodes: 4_000,
            cache_lookups: 1000,
            cache_hits: 400,
            gc_runs: 2,
            gc_reclaimed: 500,
            arena_bytes: 12_000,
            ..DdStats::default()
        };
        let rows = code_rows("steane", 2.5, 2_000, stats);
        let doc = Json::parse(&to_json(true, &rows)).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
        assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
        let parsed = doc.get("rows").unwrap().as_arr().unwrap();
        let value = |metric: &str| {
            let row = parsed
                .iter()
                .find(|r| r.get("metric").unwrap().as_str() == Some(metric))
                .unwrap_or_else(|| panic!("no {metric} row"));
            assert_eq!(row.get("layer").unwrap().as_str(), Some("dd"));
            assert_eq!(row.get("workload").unwrap().as_str(), Some("steane"));
            row.get("value").unwrap().as_f64().unwrap()
        };
        assert_eq!(value("wall_ms"), 2.5);
        assert_eq!(value("nodes"), 8_000.0);
        assert_eq!(value("peak_nodes"), 4_000.0);
        assert_eq!(value("final_nodes"), 2_000.0);
        assert_eq!(value("cache_hit_rate"), 0.4);
        assert_eq!(value("gc_runs"), 2.0);
        assert_eq!(value("gc_reclaimed"), 500.0);
        assert_eq!(value("arena_bytes"), 12_000.0);
    }

    #[test]
    fn baseline_gate_flags_only_hard_regressions() {
        let code = |name: &str, wall_ms: f64, peak: f64| {
            [
                Row::lower("dd", name, "wall_ms", wall_ms, "ms"),
                Row::lower("dd", name, "peak_nodes", peak, "count"),
            ]
        };
        let rows = [
            code("fast", 2.0, 1_000.0),
            code("slow", 100.0, 1_000.0),
            code("bloated", 1.0, 90_000.0),
        ]
        .concat();
        let baseline: Vec<(&str, &str, &str, f64)> = [
            ("fast", 1.0, 800.0),
            ("slow", 10.0, 800.0),
            ("bloated", 1.0, 10_000.0),
            ("gone", 5.0, 100.0),
        ]
        .iter()
        .flat_map(|&(name, wall, peak)| {
            [
                ("dd", name, "wall_ms", wall),
                ("dd", name, "peak_nodes", peak),
            ]
        })
        .collect();
        let regs = failures(&rows, &gates(&baseline));
        // 'fast' is 2x the wall baseline — inside the 3x tolerance. 'slow'
        // is 10x on wall, 'bloated' 9x on peak nodes, 'gone' unmeasured —
        // once per baseline row it owns.
        assert_eq!(regs.len(), 4, "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("slow/wall_ms")));
        assert!(regs.iter().any(|r| r.contains("bloated/peak_nodes")));
        assert_eq!(regs.iter().filter(|r| r.contains("gone")).count(), 2);
    }

    #[test]
    fn cheap_codes_measure_and_pin_their_enumerators() {
        // The real measurement path on the cheapest code: coefficient
        // re-assertion (distance + group total) runs inside `measure`.
        let rows = measure(&five_qubit(), 1, None);
        let value = |metric: &str| {
            rows.iter()
                .find(|r| r.metric == metric)
                .unwrap_or_else(|| panic!("no {metric} row"))
                .value
        };
        assert!(value("wall_ms") > 0.0);
        assert!(value("nodes") > 0.0);
        assert!(value("final_nodes") > 0.0);
        assert!(value("peak_nodes") >= value("final_nodes"));
        assert!(rows.iter().all(|r| r.workload == "five-qubit [[5,1,3]]"));
    }
}
