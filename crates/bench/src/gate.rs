//! The CI perf gate: one row schema, one writer, one checker.
//!
//! Every micro-layer measurement ([`crate::kernels`], [`crate::solver_bench`],
//! [`crate::dd_bench`]) is a list of [`Row`]s `{layer, workload, metric,
//! value, unit, better}`. `tables gate [--quick]` writes them all to one
//! `BENCH_gate.json` ([`to_json`]) and prints them as one long-format table
//! ([`to_markdown`]); with `--check <baseline.json>` [`check`] compares them
//! against the `gates` list of the checked-in `bench_baselines.json` under
//! one rule: a measured value may be at most [`TOLERANCE`]× worse than its
//! baseline, in its row's `better` direction. Throughput floors are
//! ordinary `higher` rows (a baseline of 30 fails below 10), and
//! deterministic work counts are ordinary `lower` rows.

use veriqec::engine::json_escape;

use crate::json::Json;

/// How far a row may move in its worse direction before the gate fails:
/// `lower` rows may grow to this factor times their baseline, `higher`
/// rows may shrink to the baseline divided by it. Generous on purpose —
/// shared CI runners are noisy, and the gate is for hard regressions (an
/// accidentally quadratic loop, a lost fast path), not for
/// single-digit-percent drift.
pub const TOLERANCE: f64 = 3.0;

/// The direction in which a row's value improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times, node and work counts: smaller is better.
    Lower,
    /// Throughputs, speedups, hit rates: larger is better.
    Higher,
}

impl Better {
    fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One measured number. `(layer, workload, metric)` is the join key
/// against the baseline's `gates` list and is unique within a report.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Pipeline layer the number belongs to (`sat`, `dd`, `qsim`, …), in
    /// the per-layer vocabulary of the end-to-end benchmark.
    pub layer: &'static str,
    /// The pinned workload (instance, code or kernel name).
    pub workload: String,
    /// What was measured (`wall_ms`, `peak_nodes`, `props_per_s`, …).
    pub metric: &'static str,
    /// The measurement.
    pub value: f64,
    /// Unit of `value` (`ms`, `ns`, `count`, `1/s`, …).
    pub unit: &'static str,
    /// The direction in which `value` improves.
    pub better: Better,
}

impl Row {
    /// A row whose value improves downwards.
    pub fn lower(
        layer: &'static str,
        workload: impl Into<String>,
        metric: &'static str,
        value: f64,
        unit: &'static str,
    ) -> Row {
        Row {
            layer,
            workload: workload.into(),
            metric,
            value,
            unit,
            better: Better::Lower,
        }
    }

    /// A row whose value improves upwards.
    pub fn higher(
        layer: &'static str,
        workload: impl Into<String>,
        metric: &'static str,
        value: f64,
        unit: &'static str,
    ) -> Row {
        Row {
            better: Better::Higher,
            ..Row::lower(layer, workload, metric, value, unit)
        }
    }
}

/// Serializes a report as `{"schema":"veriqec_gate_v1","quick":…,"rows":[…]}`.
/// A non-finite value, which JSON cannot hold, is written as `null`.
pub fn to_json(quick: bool, rows: &[Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let value = if r.value.is_finite() {
                r.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "{{\"layer\":\"{}\",\"workload\":\"{}\",\"metric\":\"{}\",\"value\":{value},\"unit\":\"{}\",\"better\":\"{}\"}}",
                json_escape(r.layer),
                json_escape(&r.workload),
                json_escape(r.metric),
                json_escape(r.unit),
                r.better.tag(),
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"veriqec_gate_v1\",\"quick\":{quick},\"rows\":[{}]}}",
        rows.join(",")
    )
}

/// Renders a report as one long-format markdown table.
pub fn to_markdown(rows: &[Row]) -> String {
    let mut out = String::from(
        "| layer | workload | metric | value | unit |\n|-------|----------|--------|-------|------|\n",
    );
    for r in rows {
        let value = if r.value.fract() == 0.0 {
            format!("{:.0}", r.value)
        } else {
            format!("{:.4}", r.value)
        };
        out.push_str(&format!(
            "| {} | {} | {} | {value} | {} |\n",
            r.layer, r.workload, r.metric, r.unit
        ));
    }
    out
}

/// One gate violation, human-readable.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression(pub String);

/// Checks measured rows against a parsed `bench_baselines.json` (shape:
/// `{"gates": [{"layer", "workload", "metric", "value"}, …]}`). Each
/// baseline row fails when its measured counterpart is more than
/// [`TOLERANCE`]× worse in the row's `better` direction, when nothing was
/// measured under its key (a silently dropped workload must not pass), or
/// when it is malformed; an empty or missing `gates` list fails as a whole,
/// since it would gate nothing. Measured rows without a baseline are not
/// gated, so new rows can land before their baselines.
pub fn check(rows: &[Row], baseline: &Json) -> Vec<Regression> {
    match baseline.get("gates").and_then(Json::as_arr) {
        Some(gates) if !gates.is_empty() => gates
            .iter()
            .filter_map(|entry| check_row(rows, entry).err())
            .collect(),
        _ => vec![Regression(
            "baseline has no \"gates\" rows, so it would gate nothing".into(),
        )],
    }
}

fn check_row(rows: &[Row], entry: &Json) -> Result<(), Regression> {
    let text = |key: &str| entry.get(key).and_then(Json::as_str);
    let (Some(layer), Some(workload), Some(metric), Some(base)) = (
        text("layer"),
        text("workload"),
        text("metric"),
        entry
            .get("value")
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v > 0.0),
    ) else {
        return Err(Regression(format!("malformed baseline row: {entry:?}")));
    };
    let key = format!("{layer}/{workload}/{metric}");
    let row = rows
        .iter()
        .find(|r| r.layer == layer && r.workload == workload && r.metric == metric)
        .ok_or_else(|| Regression(format!("baseline row {key} was not measured")))?;
    // Written so that a NaN measurement fails both comparisons.
    let (limit, within) = match row.better {
        Better::Lower => (base * TOLERANCE, row.value <= base * TOLERANCE),
        Better::Higher => (base / TOLERANCE, row.value >= base / TOLERANCE),
    };
    if within {
        Ok(())
    } else {
        Err(Regression(format!(
            "{key}: {} {} is past the {TOLERANCE}x limit {limit} (baseline {base}, {} is better)",
            row.value,
            row.unit,
            row.better.tag()
        )))
    }
}

/// Baseline documents and verdicts for the layer modules' gate tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::{check, Row};
    use crate::json::Json;

    /// A `gates` document with one row per `(layer, workload, metric, value)`.
    pub fn gates(rows: &[(&str, &str, &str, f64)]) -> String {
        let rows: Vec<String> = rows
            .iter()
            .map(|(layer, workload, metric, value)| {
                format!(
                    r#"{{"layer":"{layer}","workload":"{workload}","metric":"{metric}","value":{value}}}"#
                )
            })
            .collect();
        format!(r#"{{"gates":[{}]}}"#, rows.join(","))
    }

    /// The gate's failure messages for `rows` against a baseline document.
    pub fn failures(rows: &[Row], baseline: &str) -> Vec<String> {
        check(rows, &Json::parse(baseline).unwrap())
            .into_iter()
            .map(|r| r.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{failures, gates};
    use super::*;

    #[test]
    fn report_json_round_trips_through_parser() {
        let rows = vec![
            Row::lower("dd", "five-qubit [[5,1,3]]", "peak_nodes", 4000.0, "count"),
            Row::higher("sat", "aggregate", "props_per_s", 2.5e6, "1/s"),
            Row::lower("sat", "quote\"d", "wall_ms", f64::NAN, "ms"),
        ];
        let doc = Json::parse(&to_json(true, &rows)).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
        assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
        let parsed = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(
            parsed[0].get("workload").unwrap().as_str(),
            Some("five-qubit [[5,1,3]]")
        );
        assert_eq!(parsed[0].get("value").unwrap().as_f64(), Some(4000.0));
        assert_eq!(parsed[1].get("value").unwrap().as_f64(), Some(2.5e6));
        assert_eq!(parsed[1].get("better").unwrap().as_str(), Some("higher"));
        assert_eq!(
            parsed[2].get("workload").unwrap().as_str(),
            Some("quote\"d")
        );
        assert_eq!(parsed[2].get("value"), Some(&Json::Null));
        assert!(to_markdown(&rows).contains("| sat | aggregate | props_per_s | 2500000 | 1/s |"));
    }

    #[test]
    fn nan_and_malformed_rows_fail() {
        let speedup = gates(&[("qsim", "frame_batch_d5", "speedup", 30.0)]);
        let speedup_row = |v| [Row::higher("qsim", "frame_batch_d5", "speedup", v, "x")];
        assert!(failures(&speedup_row(50.0), &speedup).is_empty());
        // A NaN measurement fails in either direction.
        assert_eq!(failures(&speedup_row(f64::NAN), &speedup).len(), 1);
        let wall = gates(&[("sat", "php_7_6", "wall_ms", 1.0)]);
        let wall_row = [Row::lower("sat", "php_7_6", "wall_ms", f64::NAN, "ms")];
        assert_eq!(failures(&wall_row, &wall).len(), 1);

        // A row without a metric, and rows with a zero, negative or
        // non-numeric value, are malformed.
        for entry in [
            r#"{"layer":"qsim","workload":"frame_batch_d5","value":30}"#,
            r#"{"layer":"qsim","workload":"frame_batch_d5","metric":"speedup","value":0}"#,
            r#"{"layer":"qsim","workload":"frame_batch_d5","metric":"speedup","value":-30}"#,
            r#"{"layer":"qsim","workload":"frame_batch_d5","metric":"speedup","value":"30"}"#,
        ] {
            let regs = failures(&speedup_row(50.0), &format!(r#"{{"gates":[{entry}]}}"#));
            assert!(regs.len() == 1 && regs[0].contains("malformed"), "{regs:?}");
        }
    }

    /// The old per-section gates read a missing or misspelt section as
    /// empty and gated nothing. One list that is empty, missing or
    /// misspelt now fails as a whole.
    #[test]
    fn empty_or_missing_gates_list_fails() {
        let rows = [
            Row::lower("dd", "steane", "wall_ms", 1.0, "ms"),
            Row::lower("dd", "steane", "peak_nodes", 100.0, "count"),
        ];
        for doc in [
            r#"{"gates":[]}"#,
            r#"{"metrics":[]}"#,
            r#"{"dd_metrics":[{"name":"steane","wall_ms":1.0,"peak_nodes":100}]}"#,
            r#"{"gates":{"layer":"dd","workload":"steane","metric":"wall_ms","value":1}}"#,
        ] {
            let regs = failures(&rows, doc);
            assert!(
                regs.len() == 1 && regs[0].contains("gates"),
                "{doc}: {regs:?}"
            );
        }
    }
}
