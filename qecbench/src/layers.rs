//! The traced layer-by-layer pass: every question goes through each
//! layer's public function in pipeline order, each call wrapped in a span
//! whose category is the layer; then the same questions run through the
//! engine, and the batch report is rendered. Self times come from the
//! recorded trace.

use std::collections::HashMap;
use std::time::Instant;

use veriqec::engine::{DetectionSession, Engine, EngineConfig, FaultToleranceSweep, Job, JobKind};
use veriqec::enumerator::FailureEnumerator;
use veriqec::scenario::{faulty_memory_scenario, memory_scenario, ErrorModel, Scenario};
use veriqec::tasks::DetectionOutcome;
use veriqec_cexpr::BExp;
use veriqec_dd::CompileConfig;
use veriqec_decoder::MinWeightSpec;
use veriqec_obs::{span, Event, EventKind};
use veriqec_sat::{SolverConfig, SolverStats};
use veriqec_vcgen::{reduce_commuting, VcOutcome, VcProblem, VcSession};
use veriqec_wp::qec_wp;

use crate::questions::{split_for, Ask, Question, Verdict};

/// Layer names, in pipeline order; also the span categories of this pass.
pub const LAYERS: [&str; 9] = [
    "scenario", "wp", "reduce", "encode", "sat", "dd", "engine", "serve", "report",
];

/// Counters and direct timings of one pass.
#[derive(Default)]
pub struct Pass {
    pub attempted: usize,
    pub failed: usize,
    pub wrong: Vec<String>,
    pub reduce_targets: usize,
    pub reduce_guards: usize,
    pub sat_vars: usize,
    pub clauses: usize,
    pub unsat_ms: f64,
    pub sat_ms: f64,
    pub solver: SolverStats,
    pub dd_compile_ms: f64,
    pub dd_count_ms: f64,
    pub dd_peak_nodes: u64,
    pub dd_cache_lookups: u64,
    pub dd_cache_hits: u64,
    pub dd_gc_runs: u64,
    /// Wall time of the direct calls the engine repeats, for the work ratio:
    /// the sequential solves of correction questions when there are any,
    /// else every direct encode, solve and compile.
    pub direct_correction_ms: f64,
    pub direct_all_ms: f64,
    pub engine_makespan_ms: f64,
    pub engine_busy_ms: f64,
    pub engine_correction_busy_ms: f64,
    pub engine_queue_wait_ms: f64,
    pub engine_cubes: usize,
}

impl Pass {
    fn record(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Correct => {}
            Verdict::Inconclusive => self.failed += 1,
            Verdict::Wrong(msg) => self.wrong.push(msg),
        }
    }

    /// Times a direct solver call and files it as UNSAT or SAT time.
    fn solve<T>(&mut self, correction: bool, call: impl FnOnce() -> (T, Option<bool>)) -> T {
        let t0 = Instant::now();
        let (out, sat) = {
            let _s = span("sat", "query");
            call()
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match sat {
            Some(true) => self.sat_ms += ms,
            Some(false) => self.unsat_ms += ms,
            None => {}
        }
        self.direct_all_ms += ms;
        if correction {
            self.direct_correction_ms += ms;
        }
        out
    }

    fn encode<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = {
            let _s = span("encode", "session");
            call()
        };
        self.direct_all_ms += t0.elapsed().as_secs_f64() * 1e3;
        out
    }
}

fn vc_sat(out: &VcOutcome) -> Option<bool> {
    match out {
        VcOutcome::Verified => Some(false),
        VcOutcome::CounterExample(_) => Some(true),
        VcOutcome::Unknown => None,
    }
}

/// Scenario, weakest precondition and reduction, each under its own span,
/// assembled into the unbounded problem exactly as
/// `veriqec::tasks::build_problem_unbounded` does.
fn front_half(pass: &mut Pass, scenario: impl FnOnce() -> Scenario) -> (Scenario, VcProblem) {
    let scenario = {
        let _s = span("scenario", "build");
        scenario()
    };
    let wp = {
        let _s = span("wp", "qec_wp");
        qec_wp(&scenario.program, scenario.post.clone()).expect("scenarios are in the QEC fragment")
    };
    let vc = {
        let _s = span("reduce", "reduce_commuting");
        let mut vc = reduce_commuting(&scenario.lhs, &wp.pre).expect("Pauli scenarios reduce");
        vc.resolve_branches();
        vc
    };
    pass.reduce_targets += vc.targets.len();
    pass.reduce_guards += vc.guards.len();
    let decoder_specs = scenario
        .decoders
        .iter()
        .map(|w| MinWeightSpec {
            checks: w.checks.clone(),
            syndromes: w.syndromes.clone(),
            corrections: w.corrections.clone(),
            errors: scenario.error_vars.clone(),
            flips: w.flips.clone(),
            meas_errors: w.meas_errors.clone(),
        })
        .collect();
    let problem = VcProblem {
        vc,
        error_constraints: Vec::new(),
        decoder_specs,
    };
    (scenario, problem)
}

/// Runs every question through the layers, then through the engine, then
/// renders the report. Wrong verdicts are collected in [`Pass::wrong`].
pub fn pipeline(questions: &[Question]) -> Pass {
    let mut pass = Pass::default();
    let config = SolverConfig::default();
    let mut jobs = Vec::new();
    for q in questions {
        match &q.ask {
            Ask::Correction { t } => {
                let (scenario, mut problem) =
                    front_half(&mut pass, || memory_scenario(&q.code, ErrorModel::YErrors));
                problem.error_constraints.insert(
                    0,
                    BExp::weight_le(scenario.error_vars.iter().copied(), *t as i64),
                );
                let mut session = pass.encode(|| VcSession::new(&problem, config));
                let out = pass.solve(true, || {
                    let out = session.query(&[]);
                    let sat = vc_sat(&out);
                    (out, sat)
                });
                pass.record(q.check_vc(&out));
                let stats = session.stats();
                pass.sat_vars += stats.sat_vars;
                pass.clauses += stats.clauses;
                pass.solver += session.solver_stats();
                jobs.push(Job::correction(
                    q.name.clone(),
                    problem,
                    scenario.error_vars,
                    split_for(q.distance),
                ));
            }
            Ask::Frontier {
                model,
                rounds,
                max_t_data,
                max_t_meas,
            } => {
                let (scenario, problem) = front_half(&mut pass, || {
                    faulty_memory_scenario(&q.code, *model, *rounds)
                });
                let (data, meas) = (&scenario.error_vars, &scenario.meas_error_vars);
                let mut sweep =
                    pass.encode(|| FaultToleranceSweep::from_problem(&problem, data, meas, config));
                let mut frontier = veriqec::engine::FaultToleranceFrontier::default();
                for td in 0..=*max_t_data {
                    for tm in 0..=*max_t_meas {
                        let out = pass.solve(false, || {
                            let out = sweep.check(td as i64, tm as i64);
                            let sat = vc_sat(&out);
                            (out, sat)
                        });
                        frontier.points.push(veriqec::engine::FrontierPoint {
                            t_data: td,
                            t_meas: tm,
                            correctable: vc_sat(&out).map(|sat| !sat),
                        });
                    }
                }
                pass.record(q.check_job(&veriqec::engine::JobOutcome::Frontier(frontier)));
                let stats = sweep.session().stats();
                pass.sat_vars += stats.sat_vars;
                pass.clauses += stats.clauses;
                pass.solver += sweep.session().solver_stats();
                jobs.push(Job {
                    name: q.name.clone(),
                    kind: JobKind::FaultTolerance {
                        problem,
                        data_vars: scenario.error_vars.clone(),
                        meas_vars: scenario.meas_error_vars.clone(),
                        max_t_data: *max_t_data,
                        max_t_meas: *max_t_meas,
                    },
                });
            }
            Ask::Detection { .. } | Ask::Distance { .. } => {
                let mut session = pass.encode(|| DetectionSession::new(&q.code, config));
                // A distance sweep is the detection queries dt = 2, 3, …
                // up to the first undetected logical, each timed on its own.
                let dts: Vec<usize> = match q.ask {
                    Ask::Detection { dt } => vec![dt],
                    Ask::Distance { max } => (2..=max + 1).collect(),
                    _ => unreachable!(),
                };
                let mut last = DetectionOutcome::Inconclusive;
                let mut distance = None;
                for dt in dts {
                    last = pass.solve(false, || {
                        let out = session.check(dt);
                        let sat = match out {
                            DetectionOutcome::AllDetected => Some(false),
                            DetectionOutcome::UndetectedLogical { .. } => Some(true),
                            DetectionOutcome::Inconclusive => None,
                        };
                        (out, sat)
                    });
                    if !matches!(last, DetectionOutcome::AllDetected) {
                        distance = Some(dt - 1);
                        break;
                    }
                }
                let outcome = match (&q.ask, distance, last) {
                    (Ask::Detection { .. }, _, last) => {
                        veriqec::engine::JobOutcome::Detection(last)
                    }
                    (_, Some(d), DetectionOutcome::UndetectedLogical { .. }) => {
                        veriqec::engine::JobOutcome::Distance(
                            veriqec::tasks::DistanceOutcome::Exact(d),
                        )
                    }
                    _ => veriqec::engine::JobOutcome::Unknown,
                };
                pass.record(q.check_job(&outcome));
                pass.solver += session.solver_stats();
                jobs.push(q.job());
            }
            Ask::Count => {
                let t0 = Instant::now();
                let compiled = {
                    let _s = span("dd", "compile");
                    FailureEnumerator::new(&q.code, &CompileConfig::default())
                };
                pass.dd_compile_ms += t0.elapsed().as_secs_f64() * 1e3;
                let Ok(mut fe) = compiled else {
                    pass.record(Verdict::Inconclusive);
                    continue;
                };
                let t1 = Instant::now();
                {
                    let _s = span("dd", "count");
                    fe.coefficients();
                }
                pass.dd_count_ms += t1.elapsed().as_secs_f64() * 1e3;
                pass.direct_all_ms += t0.elapsed().as_secs_f64() * 1e3;
                pass.record(q.check_job(&veriqec::engine::JobOutcome::Enumerator(fe.enumerator())));
                let stats = fe.dd_stats();
                pass.dd_peak_nodes = pass.dd_peak_nodes.max(stats.peak_nodes);
                pass.dd_cache_lookups += stats.cache_lookups;
                pass.dd_cache_hits += stats.cache_hits;
                pass.dd_gc_runs += stats.gc_runs;
                jobs.push(q.job());
            }
        }
    }

    let t0 = Instant::now();
    let batch = {
        let _s = span("engine", "run");
        Engine::new(EngineConfig::default()).run(jobs)
    };
    pass.engine_makespan_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (q, job) in questions.iter().zip(&batch.jobs) {
        pass.record(q.check_job(&job.outcome));
        let busy = job.busy_time.as_secs_f64() * 1e3;
        pass.engine_busy_ms += busy;
        pass.engine_queue_wait_ms += job.queue_wait.as_secs_f64() * 1e3;
        if matches!(q.ask, Ask::Correction { .. }) {
            pass.engine_cubes += job.subtasks;
            pass.engine_correction_busy_ms += busy;
        }
    }
    let json = {
        let _s = span("report", "to_json");
        batch.to_json()
    };
    std::hint::black_box(json);
    pass
}

/// Which layer a span belongs to: this pass's spans carry the layer as
/// their category; the program's own spans are mapped by crate.
fn layer_of(cat: &str, name: &str) -> Option<usize> {
    let layer = match cat {
        "vcgen" if name == "query" => "sat",
        "vcgen" => "encode",
        // The SMT context's spans are the solve and the CNF export.
        "smt" => "sat",
        other => other,
    };
    LAYERS.iter().position(|&l| l == layer)
}

struct SpanRec {
    tid: u64,
    start: u64,
    end: u64,
    layer: Option<usize>,
    /// `engine batch` (fans out to the pool's workers) or `serve request`
    /// (hands a miss to an executor thread).
    fan_out: Option<&'static str>,
    /// `engine job:*` (a worker's share of a batch) or `serve verify:*`
    /// (an executor's answer to a queued request).
    handed_from: Option<&'static str>,
    outermost: bool,
    children: Vec<usize>,
}

/// Per-layer self time in milliseconds: each span's duration minus the
/// part of it its child spans cover. A span's children are the spans nested
/// in it on its thread, plus the work it hands to other threads: an engine
/// batch adopts its workers' job spans (the latest batch open when a job
/// starts), and a serve request adopts the executor's verify span (the
/// longest-waiting open request, as the queue is first in, first out).
pub fn self_times(events: &[Event]) -> [f64; 9] {
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut stacks: HashMap<u64, Vec<usize>> = HashMap::new();
    for e in events {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            EventKind::Begin => {
                let id = spans.len();
                let fan_out = match (e.cat, &*e.name) {
                    ("engine", "batch") => Some("engine"),
                    ("serve", "request") => Some("serve"),
                    _ => None,
                };
                let handed_from = match e.cat {
                    "engine" if e.name.starts_with("job:") => Some("engine"),
                    "serve" if e.name.starts_with("verify:") => Some("serve"),
                    _ => None,
                };
                spans.push(SpanRec {
                    tid: e.tid,
                    start: e.ts_us,
                    end: e.ts_us,
                    layer: layer_of(e.cat, &e.name),
                    fan_out,
                    handed_from,
                    outermost: stack.is_empty(),
                    children: Vec::new(),
                });
                if let Some(&parent) = stack.last() {
                    spans[parent].children.push(id);
                }
                stack.push(id);
            }
            EventKind::End => {
                if let Some(id) = stack.pop() {
                    spans[id].end = e.ts_us;
                }
            }
            EventKind::Instant | EventKind::Counter => {}
        }
    }
    let mut handed: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].outermost && spans[i].handed_from.is_some())
        .collect();
    handed.sort_by_key(|&i| spans[i].start);
    // Sweep in start order, keeping the fan-out spans open at each start.
    let mut fans: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].fan_out.is_some())
        .collect();
    fans.sort_by_key(|&i| spans[i].start);
    let (mut next, mut active) = (0, Vec::new());
    for c in handed {
        let (tid, t, kind) = (spans[c].tid, spans[c].start, spans[c].handed_from);
        while next < fans.len() && spans[fans[next]].start <= t {
            active.push(fans[next]);
            next += 1;
        }
        active.retain(|&p| spans[p].end >= t);
        let candidates = active
            .iter()
            .copied()
            .filter(|&p| spans[p].fan_out == kind && spans[p].tid != tid);
        let parent = if kind == Some("engine") {
            candidates.max_by_key(|&p| spans[p].start)
        } else {
            candidates
                .filter(|&p| spans[p].children.is_empty())
                .min_by_key(|&p| spans[p].start)
        };
        if let Some(p) = parent {
            spans[p].children.push(c);
        }
    }
    let mut out = [0.0; 9];
    for s in &spans {
        let Some(layer) = s.layer else { continue };
        let mut covered: Vec<(u64, u64)> = s
            .children
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| a < b)
            .collect();
        covered.sort_unstable();
        let mut union = 0u64;
        let mut reach = s.start;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        out[layer] += (s.end - s.start).saturating_sub(union) as f64 / 1e3;
    }
    out
}
