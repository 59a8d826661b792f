//! End-to-end benchmark of the Veri-QEC verifier.
//!
//! ```text
//! qecbench --workload <verify|count|frontier|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so set-up time and peak memory never carry
//! over from another workload. With `--trace 0` the run measures the
//! end-to-end metrics with tracing off; with `--trace 1` it reports the
//! per-layer metrics of a traced layer-by-layer pass instead. Every verdict
//! is checked against an answer known without the verifier (see
//! `questions.rs`); a wrong one ends the run with exit code 3 and no result
//! line. No budget, deadline or queue bound is ever reached, so every
//! question must be decided: an operation that ends without a verdict ends
//! the run with exit code 5 and no result line. The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod layers;
mod questions;
mod serve_load;
mod workloads;

use std::time::{Duration, Instant};

use rand::prelude::*;
use veriqec::engine::{Engine, EngineConfig};

use crate::layers::{pipeline, self_times, Pass, LAYERS};
use crate::questions::{Question, Verdict};
use crate::serve_load::{closed_loop, Path, Round, PATHS};
use crate::workloads::{batch_questions, codes, Mix, Workload};

/// Set-ups timed before each batch pass; the median over the run is
/// reported. Spreading them over the run keeps a moment of host contention
/// from setting the figure.
const SETUPS_PER_PASS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Replace one reference answer with a wrong one (self-test).
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, 1, 10.0, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--corrupt-reference" => corrupt = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        corrupt,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out = match (args.workload, args.trace) {
        (Workload::Serve, false) => serve_untraced(&args),
        (Workload::Serve, true) => serve_traced(&args),
        (w, false) => batch_untraced(w, &args),
        (w, true) => batch_traced(w, &args),
    };
    if out.failed > 0 {
        // Nothing sets a budget, so an undecided question is a defect, and a
        // run that stopped answering must not read as a faster one.
        eprintln!(
            "error: {} of {} operations ended without a verdict",
            out.failed, out.attempted
        );
        std::process::exit(5);
    }
    out.print();
}

// ------------------------------------------------------------------ output

struct Output {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        for (name, value, unit) in &self.metrics {
            println!("# {name:<22} {value:>14.4} {unit}");
        }
        println!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

/// Ends the run on a verdict that contradicts the reference.
fn abort_wrong(msg: &str) -> ! {
    eprintln!("error: wrong verdict: {msg}");
    std::process::exit(3);
}

fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The index of the nearest-rank percentile `q` among `len` sorted values.
fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Nearest-rank percentile.
fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[rank(xs.len(), q)]
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------- batch workloads

/// Code construction plus `Engine::new`, the batch workloads' set-up, in
/// seconds.
fn batch_setup(w: Workload) -> f64 {
    let t0 = Instant::now();
    let built = codes(w);
    let engine = Engine::new(EngineConfig::default());
    std::hint::black_box((built, engine));
    t0.elapsed().as_secs_f64()
}

fn questions_for(w: Workload, args: &Args) -> Vec<Question> {
    let mut qs = batch_questions(w);
    if args.corrupt {
        qs[0].corrupt();
    }
    qs
}

struct BatchLoop {
    /// Wall time of each timed `Engine::run` pass, including building its
    /// jobs, in ms.
    passes: Vec<f64>,
    /// Per timed pass: correct verdicts per second of the pass.
    rates: Vec<f64>,
    /// Per timed pass: the nearest-rank median and 99th percentile of its
    /// questions' worker times (`JobReport::busy_time`), in ms.
    job_p50_ms: Vec<f64>,
    job_p99_ms: Vec<f64>,
    /// `VmHWM` after the untimed first pass.
    first_rss_mb: f64,
    /// `VmHWM` at the end of the run.
    peak_rss_mb: f64,
    /// Set-up times, in seconds.
    setups: Vec<f64>,
    attempted: usize,
    failed: usize,
    correct: usize,
}

impl BatchLoop {
    fn measured_s(&self) -> f64 {
        self.passes.iter().sum::<f64>() / 1e3
    }

    /// The median pass's rate, so a moment of host contention does not set
    /// the figure.
    fn verdicts_per_s(&self) -> f64 {
        median(&mut self.rates.clone())
    }
}

/// Passes over the whole question set, each in a seeded order on a fresh
/// engine, until `seconds` of measured time have passed. The first pass
/// runs the questions in their listed order, warms caches and the
/// allocator and is not timed. The process's peak memory is read after it
/// and at the end of the run, so memory that grows from pass to pass shows
/// as the difference.
fn batch_loop(w: Workload, qs: &[Question], seed: u64, seconds: f64) -> BatchLoop {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = BatchLoop {
        passes: Vec::new(),
        rates: Vec::new(),
        job_p50_ms: Vec::new(),
        job_p99_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: 0,
        first_rss_mb: 0.0,
        peak_rss_mb: 0.0,
        setups: Vec::new(),
    };
    let mut warm = true;
    while warm || out.passes.is_empty() || out.measured_s() < seconds {
        out.setups
            .extend((0..SETUPS_PER_PASS).map(|_| batch_setup(w)));
        let mut order: Vec<usize> = (0..qs.len()).collect();
        if !warm {
            order.shuffle(&mut rng);
        }
        let t0 = Instant::now();
        let jobs = order.iter().map(|&i| qs[i].job()).collect();
        let report = Engine::new(EngineConfig::default()).run(jobs);
        let took = ms(t0.elapsed());
        let mut correct = 0;
        for (&i, job) in order.iter().zip(&report.jobs) {
            out.attempted += 1;
            match qs[i].check_job(&job.outcome) {
                Verdict::Correct => correct += 1,
                Verdict::Inconclusive => out.failed += 1,
                Verdict::Wrong(msg) => abort_wrong(&msg),
            }
        }
        if warm {
            out.first_rss_mb = peak_rss_mb();
        } else {
            let mut busy: Vec<f64> = report.jobs.iter().map(|j| ms(j.busy_time)).collect();
            out.passes.push(took);
            out.rates.push(correct as f64 / (took / 1e3));
            out.job_p50_ms.push(median(&mut busy));
            out.job_p99_ms.push(percentile(&mut busy, 0.99));
            out.correct += correct;
        }
        warm = false;
    }
    out.peak_rss_mb = peak_rss_mb();
    out
}

fn batch_untraced(w: Workload, args: &Args) -> Output {
    let qs = questions_for(w, args);
    let mut run = batch_loop(w, &qs, args.seed, args.seconds);
    println!(
        "# {} passes of {} jobs, {} verdicts in {:.2} s",
        run.passes.len(),
        qs.len(),
        run.correct,
        run.measured_s()
    );
    println!(
        "# peak memory {:.1} MB after the first pass, {:.1} MB at the end",
        run.first_rss_mb, run.peak_rss_mb
    );
    Output {
        attempted: run.attempted,
        failed: run.failed,
        metrics: vec![
            ("setup_s", median(&mut run.setups), "s"),
            ("verdicts_per_s", run.verdicts_per_s(), "1/s"),
            ("latency_p50_ms", median(&mut run.job_p50_ms), "ms"),
            ("latency_p99_ms", median(&mut run.job_p99_ms), "ms"),
            ("peak_rss_mb", run.peak_rss_mb, "MB"),
        ],
    }
}

// ---------------------------------------------------------- serve workload

fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Requests per client and round: 40 blocks, so 120 fresh codes and at
/// most 320 distinct questions per client, below the server's 1024-entry
/// result cache.
const ROUND: usize = 1000;

fn mixes(args: &Args) -> Vec<Mix> {
    let n = clients();
    (0..n)
        .map(|c| {
            let mut mix = Mix::new(args.seed, c, n, ROUND);
            if args.corrupt && c == 0 {
                for q in &mut mix.questions {
                    q.corrupt();
                }
            }
            mix
        })
        .collect()
}

/// Requests answered on `path`, over every round.
fn path_count(rounds: &[Round], path: Path) -> usize {
    let i = PATHS.iter().position(|&p| p == path).expect("a path");
    rounds.iter().map(|r| r.path_count[i]).sum()
}

/// Median over the rounds of a per-round figure.
fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.iter().map(f).collect::<Vec<f64>>())
}

/// Median over the rounds that answered on `path` of its per-round median
/// round trip, in ms.
fn path_p50_ms(rounds: &[Round], path: Path) -> f64 {
    let i = PATHS.iter().position(|&p| p == path).expect("a path");
    let mut ms: Vec<f64> = rounds
        .iter()
        .filter(|r| r.path_count[i] > 0)
        .map(|r| r.path_p50_ms[i])
        .collect();
    median(&mut ms)
}

/// The path every round's percentile request took, or "mixed".
fn landing(rounds: &[Round], f: impl Fn(&Round) -> Path) -> String {
    let first = f(&rounds[0]);
    if rounds.iter().all(|r| f(r) == first) {
        format!("{first:?}")
    } else {
        "mixed".into()
    }
}

fn attempted(rounds: &[Round]) -> usize {
    rounds.iter().map(|r| r.correct + r.failed).sum()
}

fn failed(rounds: &[Round]) -> usize {
    rounds.iter().map(|r| r.failed).sum()
}

/// The median round's correct verdicts per second.
fn serve_verdicts_per_s(rounds: &[Round]) -> f64 {
    median_of(rounds, |r| r.correct as f64 / r.wall)
}

fn serve_untraced(args: &Args) -> Output {
    let rounds = closed_loop(&mixes(args), args.seconds);
    let requests = attempted(&rounds);
    println!(
        "# {} rounds, {} requests on {} connections in {:.2} s",
        rounds.len(),
        requests,
        clients(),
        rounds.iter().map(|r| r.wall).sum::<f64>(),
    );
    let share = |p| path_count(&rounds, p) as f64 / requests as f64;
    println!(
        "# paths: hit {:.3}, warm {:.3}, cold {:.3}; p50 lands on {}, p99 lands on {}",
        share(Path::Hit),
        share(Path::Warm),
        share(Path::Cold),
        landing(&rounds, |r| r.p50_path),
        landing(&rounds, |r| r.p99_path),
    );
    let peak = peak_rss_mb();
    println!(
        "# peak memory {:.1} MB after the first round, {peak:.1} MB at the end",
        rounds[0].peak_rss_mb
    );
    Output {
        attempted: requests,
        failed: failed(&rounds),
        metrics: vec![
            ("setup_s", median_of(&rounds, |r| r.setup), "s"),
            ("verdicts_per_s", serve_verdicts_per_s(&rounds), "1/s"),
            ("latency_p50_ms", median_of(&rounds, |r| r.p50_ms), "ms"),
            ("latency_p99_ms", median_of(&rounds, |r| r.p99_ms), "ms"),
            ("peak_rss_mb", peak, "MB"),
        ],
    }
}

// --------------------------------------------------------------- traced runs

/// Program categories each workload's traced pass must contain; a missing
/// one means instrumentation went dark.
fn required_categories(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Verify | Workload::Frontier => &["engine", "vcgen", "smt", "sat"],
        Workload::Count => &["engine", "smt", "sat", "dd"],
        Workload::Serve => &["serve", "engine", "vcgen", "smt", "sat", "dd"],
    }
}

/// Drains the trace recorded so far, validates it as a Chrome trace and
/// checks it covers `required` categories.
fn collect_trace(required: &[&str]) -> veriqec_obs::Collector {
    veriqec_obs::flush_thread();
    let mut collector = veriqec_obs::Collector::new();
    collector.drain();
    let json = collector.to_chrome_trace();
    let summary = veriqec_bench::trace::validate_chrome_trace(&json).unwrap_or_else(|e| {
        eprintln!("error: the trace fails validation: {e}");
        std::process::exit(4);
    });
    let missing: Vec<&&str> = required
        .iter()
        .filter(|c| !summary.categories.iter().any(|have| have == *c))
        .collect();
    if !missing.is_empty() {
        eprintln!("error: the trace lacks categories {missing:?}");
        std::process::exit(4);
    }
    collector
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(
    pass: &Pass,
    self_ms: &[f64; 9],
    serve: Option<&[Round]>,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let layer = |name: &str| self_ms[LAYERS.iter().position(|&l| l == name).expect("a layer")];
    let solve_s = (pass.unsat_ms + pass.sat_ms) / 1e3;
    let work_ratio = if pass.direct_correction_ms > 0.0 {
        pass.engine_correction_busy_ms / pass.direct_correction_ms
    } else {
        pass.engine_busy_ms / pass.direct_all_ms
    };
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (hit, warm, cold, hit_ratio, warm_ratio) = match serve {
        Some(run) => {
            let (nh, nw, nc) = (
                path_count(run, Path::Hit),
                path_count(run, Path::Warm),
                path_count(run, Path::Cold),
            );
            (
                path_p50_ms(run, Path::Hit),
                path_p50_ms(run, Path::Warm),
                path_p50_ms(run, Path::Cold),
                ratio(nh, nh + nw + nc),
                ratio(nw, nw + nc),
            )
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    vec![
        ("scenario.ms", layer("scenario"), "ms"),
        ("wp.ms", layer("wp"), "ms"),
        ("reduce.ms", layer("reduce"), "ms"),
        ("reduce.targets", pass.reduce_targets as f64, "count"),
        ("reduce.guards", pass.reduce_guards as f64, "count"),
        ("encode.ms", layer("encode"), "ms"),
        ("encode.sat_vars", pass.sat_vars as f64, "count"),
        ("encode.clauses", pass.clauses as f64, "count"),
        ("sat.self_ms", layer("sat"), "ms"),
        ("sat.unsat_ms", pass.unsat_ms, "ms"),
        ("sat.sat_ms", pass.sat_ms, "ms"),
        ("sat.conflicts", pass.solver.conflicts as f64, "count"),
        ("sat.propagations", pass.solver.propagations as f64, "count"),
        (
            "sat.props_per_s",
            if solve_s > 0.0 {
                pass.solver.propagations as f64 / solve_s
            } else {
                0.0
            },
            "1/s",
        ),
        ("dd.self_ms", layer("dd"), "ms"),
        ("dd.compile_ms", pass.dd_compile_ms, "ms"),
        ("dd.count_ms", pass.dd_count_ms, "ms"),
        ("dd.peak_nodes", pass.dd_peak_nodes as f64, "count"),
        (
            "dd.cache_hit_rate",
            if pass.dd_cache_lookups == 0 {
                0.0
            } else {
                pass.dd_cache_hits as f64 / pass.dd_cache_lookups as f64
            },
            "ratio",
        ),
        ("dd.gc_runs", pass.dd_gc_runs as f64, "count"),
        ("engine.self_ms", layer("engine"), "ms"),
        ("engine.makespan_ms", pass.engine_makespan_ms, "ms"),
        ("engine.busy_ms", pass.engine_busy_ms, "ms"),
        ("engine.queue_wait_ms", pass.engine_queue_wait_ms, "ms"),
        ("engine.cubes", pass.engine_cubes as f64, "count"),
        ("engine.work_ratio", work_ratio, "ratio"),
        ("serve.self_ms", layer("serve"), "ms"),
        ("serve.hit_p50_ms", hit, "ms"),
        ("serve.warm_p50_ms", warm, "ms"),
        ("serve.cold_p50_ms", cold, "ms"),
        ("serve.cache_hit_ratio", hit_ratio, "ratio"),
        ("serve.warm_ratio", warm_ratio, "ratio"),
        ("report.json_ms", layer("report"), "ms"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]
}

/// Prints which layer has the most self time, against the workload's
/// intended dominant layer.
fn print_dominance(w: Workload, self_ms: &[f64; 9], serve: Option<&[Round]>) {
    let layer = |name: &str| self_ms[LAYERS.iter().position(|&l| l == name).expect("a layer")];
    let rows: Vec<String> = LAYERS
        .iter()
        .zip(self_ms)
        .map(|(l, t)| format!("{l}={t:.1}"))
        .collect();
    println!("# self ms: {}", rows.join(" "));
    let (claim, holds) = match w {
        Workload::Verify | Workload::Count => {
            let want = if w == Workload::Verify { "sat" } else { "dd" };
            let top = LAYERS
                .iter()
                .zip(self_ms)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(l, _)| *l)
                .expect("nine layers");
            (
                format!("{want} has the most self time (top: {top})"),
                top == want,
            )
        }
        Workload::Frontier => {
            let front = layer("scenario") + layer("wp") + layer("reduce") + layer("encode");
            (
                format!(
                    "scenario+wp+reduce+encode {front:.1} ms exceeds sat {:.1} ms",
                    layer("sat")
                ),
                front > layer("sat"),
            )
        }
        Workload::Serve => {
            let run = serve.expect("the serve loop ran");
            let (h, c) = (path_p50_ms(run, Path::Hit), path_p50_ms(run, Path::Cold));
            (
                format!("hit p50 {h:.3} ms is below cold p50 {c:.3} ms"),
                h < c,
            )
        }
    };
    println!(
        "# dominant layer: {claim}: {}",
        if holds { "confirmed" } else { "NOT confirmed" }
    );
}

fn check_pass(pass: &Pass) {
    if let Some(msg) = pass.wrong.first() {
        abort_wrong(msg);
    }
}

fn batch_traced(w: Workload, args: &Args) -> Output {
    let qs = questions_for(w, args);
    let third = args.seconds / 3.0;
    let plain = batch_loop(w, &qs, args.seed, third);
    veriqec_obs::set_enabled(true);
    let traced = batch_loop(w, &qs, args.seed, third);
    collect_trace(required_categories(w));
    let pass = pipeline(&qs);
    let trace = collect_trace(required_categories(w));
    veriqec_obs::set_enabled(false);
    check_pass(&pass);
    let self_ms = self_times(trace.events());
    print_dominance(w, &self_ms, None);
    let overhead = traced.verdicts_per_s() / plain.verdicts_per_s();
    Output {
        attempted: plain.attempted + traced.attempted + pass.attempted,
        failed: plain.failed + traced.failed + pass.failed,
        metrics: layer_metrics(&pass, &self_ms, None, overhead),
    }
}

fn serve_traced(args: &Args) -> Output {
    let third = args.seconds / 3.0;
    let mixes = mixes(args);
    let plain = closed_loop(&mixes, third);
    let mut qs = workloads::serve_pass_questions(args.seed);
    if args.corrupt {
        qs[0].corrupt();
    }
    veriqec_obs::set_enabled(true);
    let pass = pipeline(&qs);
    let traced = closed_loop(&mixes, third);
    let trace = collect_trace(required_categories(Workload::Serve));
    veriqec_obs::set_enabled(false);
    check_pass(&pass);
    let self_ms = self_times(trace.events());
    print_dominance(Workload::Serve, &self_ms, Some(&plain));
    let overhead = serve_verdicts_per_s(&traced) / serve_verdicts_per_s(&plain);
    Output {
        attempted: attempted(&plain) + attempted(&traced) + pass.attempted,
        failed: failed(&plain) + failed(&traced) + pass.failed,
        metrics: layer_metrics(&pass, &self_ms, Some(&plain), overhead),
    }
}
