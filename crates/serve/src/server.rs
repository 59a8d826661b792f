//! The resident daemon: TCP accept loop, admission control, executor pool,
//! and the verification paths behind one request.
//!
//! Threading model: one accept thread (non-blocking, polling the shutdown
//! flag), one handler thread per connection, at most `MAX_CONNECTIONS`
//! of them (reads lines, answers cache hits and control ops inline,
//! enqueues verification work), and a small executor pool draining the
//! bounded pending queue. Admission control is the queue bound: past the
//! high-water mark new work is shed with a `"busy"` error instead of being
//! buffered without limit. Deadlines are lowered onto the sessions'
//! cooperative stop flags by a per-request watchdog thread. Shutdown (a
//! `{"op":"shutdown"}` request, SIGTERM when installed, or
//! [`ServerHandle::shutdown`]) stops the accept loop, drains the pending
//! queue, and joins every thread.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use veriqec::engine::{
    count, json_escape, BatchReport, FaultToleranceSweep, JobReport, Question, Session,
};
use veriqec::scenario::faulty_memory_scenario;
use veriqec_dd::CompileConfig;
use veriqec_sat::SolverConfig;

use crate::cache::{fnv1a, CacheEntry, ResultCache};
use crate::pool::SessionPool;
use crate::protocol::{
    canonical_request, parse_request, resolve_code, Request, RequestKind, VerifyRequest,
};

/// Longest request line read, in bytes including the newline. A longer
/// line gets a structured error and its connection is closed, so no client
/// can grow a handler's buffer without limit.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Most connections served at once, one handler thread each. A connection
/// past the cap, or one whose handler thread cannot be spawned, gets one
/// `"busy"` error line and is closed; the accept loop keeps running.
const MAX_CONNECTIONS: usize = 64;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of one [`Server`] instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Executor threads draining the pending queue.
    pub executors: usize,
    /// Admission high-water mark: verification requests beyond this many
    /// pending are shed with a `"busy"` error.
    pub max_pending: usize,
    /// Idle warm sessions kept in the pool.
    pub session_cap: usize,
    /// Verdicts kept in the result cache.
    pub cache_cap: usize,
    /// Solver configuration for every session the daemon opens
    /// (per-request `conflict_budget` overrides layer on top).
    pub solver: SolverConfig,
    /// Install a SIGTERM handler that triggers a graceful drain (daemon
    /// mode; the in-process smoke leaves the host process's disposition
    /// alone).
    pub install_sigterm: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            executors: 2,
            max_pending: 64,
            session_cap: 8,
            cache_cap: 1024,
            solver: SolverConfig::default(),
            install_sigterm: false,
        }
    }
}

/// Per-instance serve counters, surfaced through the `stats` op and the
/// [`veriqec_obs::MetricsSnapshot`] vocabulary. Instance-owned (not
/// globals) so parallel tests and stacked servers don't cross-talk.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Request lines received (any op).
    pub requests: veriqec_obs::metrics::Counter,
    /// Lines rejected with a parse/validation error.
    pub malformed: veriqec_obs::metrics::Counter,
    /// Verification requests shed by admission control.
    pub shed: veriqec_obs::metrics::Counter,
    /// Verification requests answered from the result cache.
    pub cache_hits: veriqec_obs::metrics::Counter,
    /// Verification requests that missed the result cache.
    pub cache_misses: veriqec_obs::metrics::Counter,
    /// Cache misses served by a pooled warm session (no re-encoding).
    pub warm_hits: veriqec_obs::metrics::Counter,
    /// Cache misses that built a fresh session or ran a count.
    pub cold_builds: veriqec_obs::metrics::Counter,
    /// Requests whose deadline tripped the stop flag.
    pub deadline_trips: veriqec_obs::metrics::Counter,
}

impl ServeMetrics {
    /// The counters as one [`veriqec_obs::MetricsSnapshot`].
    pub fn snapshot(&self) -> veriqec_obs::MetricsSnapshot {
        let mut m = veriqec_obs::MetricsSnapshot::new();
        m.push_count("serve_requests", self.requests.get());
        m.push_count("serve_malformed", self.malformed.get());
        m.push_count("serve_shed", self.shed.get());
        m.push_count("serve_cache_hits", self.cache_hits.get());
        m.push_count("serve_cache_misses", self.cache_misses.get());
        m.push_count("serve_warm_hits", self.warm_hits.get());
        m.push_count("serve_cold_builds", self.cold_builds.get());
        m.push_count("serve_deadline_trips", self.deadline_trips.get());
        m
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.snapshot().entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let veriqec_obs::MetricValue::Count(c) = value else {
                continue;
            };
            out.push_str(&format!("\"{name}\":{c}"));
        }
        out.push('}');
        out
    }
}

/// One admitted verification request waiting for an executor.
struct Pending {
    req: VerifyRequest,
    key: u64,
    canonical: String,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
}

/// State shared by every server thread.
struct Shared {
    config: ServeConfig,
    metrics: ServeMetrics,
    cache: ResultCache,
    pool: SessionPool,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
}

#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(sig: i32, handler: SigHandler) -> isize;
    }

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the drain-on-SIGTERM handler (async-signal-safe: the
    /// handler only stores a flag the accept loop polls).
    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    pub fn pending() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// The daemon. Start with [`Server::start`], stop via a `shutdown` request,
/// SIGTERM (when installed), or [`ServerHandle::shutdown`].
pub struct Server;

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serve counters.
    pub fn metrics(&self) -> veriqec_obs::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Requests a graceful drain without a network round-trip.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Waits for the drain to complete: accept loop stopped, every
    /// connection handler joined, pending queue empty, executors exited.
    pub fn join(self) -> Result<(), String> {
        self.accept.join().map_err(|_| "accept thread panicked")?;
        for h in self.executors {
            h.join().map_err(|_| "executor thread panicked")?;
        }
        Ok(())
    }
}

impl Server {
    /// Binds the listener and spawns the accept loop and executor pool.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        if config.install_sigterm {
            #[cfg(unix)]
            sigterm::install();
        }
        let shared = Arc::new(Shared {
            cache: ResultCache::new(config.cache_cap),
            pool: SessionPool::new(config.session_cap),
            metrics: ServeMetrics::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            config,
        });
        let executors = (0..shared.config.executors.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn executor")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept,
            executors,
        })
    }
}

fn shutting_down(shared: &Shared) -> bool {
    if shared.shutdown.load(Ordering::SeqCst) {
        return true;
    }
    #[cfg(unix)]
    if shared.config.install_sigterm && sigterm::pending() {
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.queue_cv.notify_all();
        return true;
    }
    false
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutting_down(shared) {
        match listener.accept() {
            Ok((stream, _)) => {
                handlers.retain(|h| !h.is_finished());
                if handlers.len() >= MAX_CONNECTIONS {
                    refuse_busy(&stream);
                    continue;
                }
                // Kept to answer "busy" if the spawn fails and drops `stream`.
                let Ok(refusal) = stream.try_clone() else {
                    refuse_busy(&stream);
                    continue;
                };
                let shared = Arc::clone(shared);
                let spawned =
                    std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &shared);
                            veriqec_obs::flush_thread();
                        });
                match spawned {
                    Ok(h) => handlers.push(h),
                    Err(_) => refuse_busy(&refusal),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: handlers poll the shutdown flag at their read timeout, so
    // every one exits promptly even on an idle keep-alive connection.
    for h in handlers {
        let _ = h.join();
    }
    veriqec_obs::flush_thread();
}

/// Answers a connection the server will not serve with one `"busy"` error
/// line; dropping the stream then closes it.
fn refuse_busy(stream: &TcpStream) {
    let _ = writeln!(&*stream, "{}", error_response(None, "busy"));
}

/// Reads newline-delimited requests off one connection until EOF, shutdown
/// or an over-long line. Read timeouts keep the thread responsive to the
/// drain flag without dropping a partially received line.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        if shutting_down(shared) {
            return;
        }
        let room = (MAX_LINE_BYTES - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // EOF
            Ok(_) if line.ends_with(b"\n") => {
                let response = match std::str::from_utf8(&line) {
                    Ok(text) => handle_line(text.trim(), shared),
                    Err(_) => {
                        shared.metrics.malformed.add(1);
                        error_response(None, "request line is not valid UTF-8")
                    }
                };
                line.clear();
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    return;
                }
            }
            Ok(_) if line.len() >= MAX_LINE_BYTES => {
                shared.metrics.malformed.add(1);
                let msg = format!("request line longer than {MAX_LINE_BYTES} bytes");
                let _ =
                    writeln!(writer, "{}", error_response(None, &msg)).and_then(|_| writer.flush());
                return;
            }
            Ok(_) => continue, // timeout mid-line
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Answers one request line: control ops and cache hits inline, the rest
/// through admission control and the executor pool.
fn handle_line(line: &str, shared: &Arc<Shared>) -> String {
    if line.is_empty() {
        return error_response(None, "empty request line");
    }
    shared.metrics.requests.add(1);
    let _g = veriqec_obs::span("serve", "request");
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(msg) => {
            shared.metrics.malformed.add(1);
            return error_response(None, &msg);
        }
    };
    match req {
        Request::Stats => format!("{{\"ok\":true,\"stats\":{}}}", shared.metrics.to_json()),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            "{\"ok\":true,\"draining\":true}".to_string()
        }
        Request::Verify(req) => {
            let canonical = canonical_request(&req);
            let key = fnv1a(canonical.as_bytes());
            if let Some(hit) = shared.cache.lookup(key, &canonical) {
                shared.metrics.cache_hits.add(1);
                veriqec_obs::instant("serve", "cache_hit", &[]);
                return verify_response(
                    &req.id,
                    key,
                    &hit.outcome,
                    true,
                    "cache",
                    0,
                    0,
                    &hit.report_json,
                    None,
                );
            }
            shared.metrics.cache_misses.add(1);
            let deadline = req
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let (reply_tx, reply_rx) = mpsc::channel();
            {
                let mut queue = lock(&shared.queue);
                if shutting_down(shared) {
                    return error_response(req.id.as_deref(), "shutting down");
                }
                if queue.len() >= shared.config.max_pending {
                    shared.metrics.shed.add(1);
                    veriqec_obs::instant("serve", "shed", &[]);
                    return error_response(req.id.as_deref(), "busy");
                }
                queue.push_back(Pending {
                    req: *req,
                    key,
                    canonical,
                    enqueued: Instant::now(),
                    deadline,
                    reply: reply_tx,
                });
            }
            shared.queue_cv.notify_one();
            match reply_rx.recv() {
                Ok(response) => response,
                Err(_) => error_response(None, "shutting down"),
            }
        }
    }
}

/// Executor thread body: drains the pending queue, exiting only once the
/// shutdown flag is set *and* the queue is empty (graceful drain —
/// admitted work is always answered).
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let pending = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(p) = queue.pop_front() {
                    break Some(p);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
                if shutting_down(shared) && queue.is_empty() {
                    break None;
                }
            }
        };
        let Some(pending) = pending else {
            break;
        };
        let reply = pending.reply.clone();
        let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_verify(pending, shared)
        })) {
            Ok(response) => response,
            Err(_) => error_response(None, "internal error: job panicked"),
        };
        let _ = reply.send(response);
    }
    veriqec_obs::flush_thread();
}

/// A watchdog that raises `flag` at `deadline` unless `done` is set first.
/// Detached: at worst it outlives the request by the remaining deadline,
/// holding only its two atomics.
fn spawn_watchdog(
    deadline: Instant,
    flag: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    tripped: Arc<AtomicBool>,
) {
    std::thread::Builder::new()
        .name("serve-deadline".into())
        .spawn(move || {
            while !done.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now >= deadline {
                    if !done.load(Ordering::SeqCst) {
                        tripped.store(true, Ordering::SeqCst);
                        flag.store(true, Ordering::SeqCst);
                    }
                    return;
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
            }
        })
        .expect("spawn watchdog");
}

struct DeadlineGuard {
    done: Arc<AtomicBool>,
    tripped: Arc<AtomicBool>,
}

impl DeadlineGuard {
    /// Arms a watchdog for `deadline` (if any) on `flag`.
    fn arm(deadline: Option<Instant>, flag: &Arc<AtomicBool>) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let tripped = Arc::new(AtomicBool::new(false));
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                // Already expired at claim time (queue wait ate the whole
                // budget): trip synchronously, so the outcome cannot race a
                // watchdog thread against a fast job.
                tripped.store(true, Ordering::SeqCst);
                flag.store(true, Ordering::SeqCst);
            } else {
                spawn_watchdog(
                    deadline,
                    Arc::clone(flag),
                    Arc::clone(&done),
                    Arc::clone(&tripped),
                );
            }
        }
        DeadlineGuard { done, tripped }
    }

    fn tripped(&self) -> bool {
        self.done.store(true, Ordering::SeqCst);
        self.tripped.load(Ordering::SeqCst)
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        self.done.store(true, Ordering::SeqCst);
    }
}

/// Runs one admitted verification request to completion and renders its
/// response.
fn handle_verify(pending: Pending, shared: &Arc<Shared>) -> String {
    let _g = veriqec_obs::span_with("serve", || format!("verify:{}", pending.req.kind.tag()));
    let Pending {
        req,
        key,
        canonical,
        enqueued,
        deadline,
        reply: _reply,
    } = pending;
    let queue_wait = enqueued.elapsed();
    let code = match resolve_code(&req.code) {
        Ok(code) => code,
        Err(msg) => {
            shared.metrics.malformed.add(1);
            return error_response(req.id.as_deref(), &msg);
        }
    };
    let mut solver = shared.config.solver;
    if req.conflict_budget.is_some() {
        solver.conflict_budget = req.conflict_budget;
    }
    let job_name = format!("{}:{}", req.kind.tag(), req.code.key());
    let started = Instant::now();
    let flag = Arc::new(AtomicBool::new(false));

    let (mut answer, tripped, session_kind) = if let RequestKind::Count = req.kind {
        let compile = CompileConfig {
            node_limit: req.node_limit.or(CompileConfig::default().node_limit),
            ..CompileConfig::default()
        };
        shared.metrics.cold_builds.add(1);
        let guard = DeadlineGuard::arm(deadline, &flag);
        let answer = count(&code, &compile, &flag);
        (answer, guard.tripped(), "engine")
    } else {
        let (pool_key, question) = match req.kind {
            RequestKind::Detection { dt } => (detection_key(&req), Question::Detection { dt }),
            RequestKind::Distance { max } => {
                let max = max
                    .or_else(|| code.claimed_distance().map(|d| d + 1))
                    .unwrap_or(code.n());
                (detection_key(&req), Question::Distance { max })
            }
            RequestKind::FaultTolerance {
                max_t_data,
                max_t_meas,
            } => (
                format!(
                    "ft|{}|{:?}|r{}|cb{:?}",
                    req.code.key(),
                    req.model,
                    req.rounds.max(1),
                    req.conflict_budget
                ),
                Question::Frontier {
                    max_t_data,
                    max_t_meas,
                },
            ),
            RequestKind::Count => unreachable!("answered by the count path"),
        };
        let (mut session, warm) = match shared.pool.checkout(&pool_key) {
            Some(session) => (session, true),
            None if matches!(question, Question::Frontier { .. }) => {
                let scenario = faulty_memory_scenario(&code, req.model, req.rounds.max(1));
                let sweep = FaultToleranceSweep::new(&scenario, vec![], solver);
                (Session::FaultTolerance(Box::new(sweep)), false)
            }
            None => (Session::detection(&code, req.rounds, solver), false),
        };
        if warm {
            shared.metrics.warm_hits.add(1);
        } else {
            shared.metrics.cold_builds.add(1);
        }
        let guard = DeadlineGuard::arm(deadline, &flag);
        let answer = session.ask(question, &flag);
        let tripped = guard.tripped();
        shared.pool.checkin(pool_key, session);
        (answer, tripped, if warm { "warm" } else { "cold" })
    };
    if tripped {
        shared.metrics.deadline_trips.add(1);
        answer.deadline_exceeded();
    }

    let report = BatchReport {
        jobs: vec![JobReport {
            name: job_name,
            outcome: answer.outcome,
            subtasks: 1,
            busy_time: started.elapsed(),
            queue_wait,
            reason: answer.reason,
            stats: answer.stats,
            dd: answer.dd,
        }],
        wall_time: started.elapsed(),
        workers: 1,
        phases: vec![],
    };
    let report_json = report.to_json();
    let job = &report.jobs[0];
    let outcome_tag = job.outcome.tag();
    if job.outcome.is_conclusive() {
        shared.cache.insert(
            key,
            CacheEntry {
                canonical,
                outcome: outcome_tag.to_string(),
                report_json: report_json.clone(),
            },
        );
    }
    verify_response(
        &req.id,
        key,
        outcome_tag,
        false,
        session_kind,
        answer.encodes,
        answer.queries,
        &report_json,
        job.reason.as_deref(),
    )
}

/// Pool key of the detection session serving detection and distance
/// requests: the request's identity minus its per-question parameters.
fn detection_key(req: &VerifyRequest) -> String {
    format!(
        "det|{}|r{}|cb{:?}",
        req.code.key(),
        req.rounds,
        req.conflict_budget
    )
}

fn error_response(id: Option<&str>, msg: &str) -> String {
    let id_field = id.map(|t| format!("\"id\":{t},")).unwrap_or_default();
    format!(
        "{{{id_field}\"ok\":false,\"error\":\"{}\"}}",
        json_escape(msg)
    )
}

#[allow(clippy::too_many_arguments)]
fn verify_response(
    id: &Option<String>,
    key: u64,
    outcome: &str,
    cached: bool,
    session: &str,
    encodes: usize,
    queries: usize,
    report_json: &str,
    reason: Option<&str>,
) -> String {
    let id_field = id
        .as_deref()
        .map(|t| format!("\"id\":{t},"))
        .unwrap_or_default();
    let reason_field = reason
        .map(|r| format!(",\"reason\":\"{}\"", json_escape(r)))
        .unwrap_or_default();
    format!(
        "{{{id_field}\"ok\":true,\"outcome\":\"{}\",\"cached\":{cached},\
         \"session\":\"{session}\",\"encodes\":{encodes},\"queries\":{queries},\
         \"cache_key\":\"{key:016x}\"{reason_field},\"report\":{report_json}}}",
        json_escape(outcome),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<Json> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").expect("write");
            let mut response = String::new();
            reader.read_line(&mut response).expect("read");
            out.push(Json::parse(response.trim()).expect("response parses"));
        }
        out
    }

    #[test]
    fn serves_cold_then_cached_then_warm() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let addr = handle.addr();
        let distance = r#"{"id":1,"kind":"distance","code":"five_qubit","max":4}"#;
        let rs = roundtrip(addr, &[distance, distance]);
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            rs[0].get("outcome").unwrap().as_str(),
            Some("distance_exact")
        );
        assert_eq!(rs[0].get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(rs[0].get("session").unwrap().as_str(), Some("cold"));
        assert_eq!(
            rs[0]
                .get("report")
                .unwrap()
                .get("jobs")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .get("distance")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(rs[1].get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(rs[1].get("session").unwrap().as_str(), Some("cache"));
        // A different dt against the same code reuses the pooled session.
        let rs = roundtrip(
            addr,
            &[r#"{"kind":"detection","code":"five_qubit","dt":3}"#],
        );
        assert_eq!(rs[0].get("session").unwrap().as_str(), Some("warm"));
        assert_eq!(rs[0].get("encodes").unwrap().as_f64(), Some(1.0));
        let m = handle.metrics();
        assert!(m.count("serve_cache_hits") >= 1);
        assert!(m.count("serve_warm_hits") >= 1);
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn malformed_and_unknown_requests_get_structured_errors() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let rs = roundtrip(
            handle.addr(),
            &[
                "{not json",
                r#"{"op":"frobnicate"}"#,
                r#"{"id":3,"kind":"distance","code":"bogus_code"}"#,
                r#"{"kind":"distance","code":"five_qubit","max":3}"#,
            ],
        );
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(false));
        assert!(rs[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("parse"));
        assert_eq!(rs[1].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[2].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[2].get("id").unwrap().as_f64(), Some(3.0));
        // The server survives all of it.
        assert_eq!(rs[3].get("ok").unwrap().as_bool(), Some(true));
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn admission_control_sheds_past_the_high_water_mark() {
        let config = ServeConfig {
            max_pending: 0,
            ..ServeConfig::default()
        };
        let handle = Server::start(config).expect("bind");
        // With a zero-length queue every verification request is shed; the
        // executor never sees it, so no session is built.
        let rs = roundtrip(
            handle.addr(),
            &[r#"{"kind":"distance","code":"steane","max":3}"#],
        );
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[0].get("error").unwrap().as_str(), Some("busy"));
        assert_eq!(handle.metrics().count("serve_shed"), 1);
        handle.shutdown();
        handle.join().expect("clean join");
    }

    /// The single job of a response's report.
    fn report_job(doc: &Json) -> &Json {
        &doc.get("report")
            .unwrap()
            .get("jobs")
            .unwrap()
            .as_arr()
            .unwrap()[0]
    }

    #[test]
    fn frontier_matches_the_batch_engine_under_a_conflict_budget() {
        use veriqec::engine::{Engine, EngineConfig, Job, JobOutcome};
        use veriqec::scenario::{faulty_memory_scenario, ErrorModel};
        let budget = 2;
        let scenario =
            faulty_memory_scenario(&veriqec_codes::repetition(3), ErrorModel::XErrors, 1);
        let engine = Engine::new(EngineConfig {
            workers: 1,
            solver: SolverConfig {
                conflict_budget: Some(budget),
                ..SolverConfig::default()
            },
        });
        let batch = engine.run(vec![Job::fault_tolerance("rep3", &scenario, 2, 2)]);
        let JobOutcome::Frontier(expected) = &batch.jobs[0].outcome else {
            panic!("{:?}", batch.jobs[0].outcome);
        };
        // The budget must trip on an early point and a later one must
        // still be decided, or the test pins nothing.
        let first_trip = expected
            .points
            .iter()
            .position(|p| p.correctable.is_none())
            .expect("some point trips the budget");
        assert!(
            expected.points[first_trip..]
                .iter()
                .any(|p| p.correctable.is_some()),
            "{expected:?}"
        );

        let handle = Server::start(ServeConfig::default()).expect("bind");
        let request = format!(
            r#"{{"kind":"fault_tolerance","code":"repetition_3","model":"x","rounds":1,"max_t_data":2,"max_t_meas":2,"conflict_budget":{budget}}}"#
        );
        let rs = roundtrip(handle.addr(), &[&request]);
        let points: Vec<(f64, f64, Option<bool>)> = report_job(&rs[0])
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| {
                let num = |k: &str| p.get(k).unwrap().as_f64().unwrap();
                (
                    num("t_data"),
                    num("t_meas"),
                    p.get("correctable").unwrap().as_bool(),
                )
            })
            .collect();
        let expected: Vec<(f64, f64, Option<bool>)> = expected
            .points
            .iter()
            .map(|p| (p.t_data as f64, p.t_meas as f64, p.correctable))
            .collect();
        assert_eq!(points, expected);
        assert_eq!(
            rs[0].get("reason").unwrap().as_str(),
            batch.jobs[0].reason.as_deref()
        );
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn distance_with_rounds_matches_the_batch_engine() {
        use veriqec::engine::{Engine, EngineConfig, Job, JobKind, JobOutcome};
        use veriqec::tasks::DistanceOutcome;
        let rounds = 1;
        let job = |rounds| Job {
            name: "steane".into(),
            kind: JobKind::Distance {
                code: veriqec_codes::steane(),
                max: 4,
                rounds,
            },
        };
        let batch = Engine::new(EngineConfig {
            workers: 1,
            solver: SolverConfig::default(),
        })
        .run(vec![job(rounds), job(0)]);
        let JobOutcome::Distance(DistanceOutcome::Exact(d)) = batch.jobs[0].outcome else {
            panic!("{:?}", batch.jobs[0].outcome);
        };
        // One noisy round lets a measurement flip hide a lighter error.
        assert!(matches!(
            batch.jobs[1].outcome,
            JobOutcome::Distance(DistanceOutcome::Exact(d0)) if d0 != d
        ));
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let request = format!(r#"{{"kind":"distance","code":"steane","max":4,"rounds":{rounds}}}"#);
        let rs = roundtrip(handle.addr(), &[&request]);
        assert_eq!(
            rs[0].get("outcome").unwrap().as_str(),
            Some("distance_exact")
        );
        assert_eq!(
            report_job(&rs[0]).get("distance").unwrap().as_f64(),
            Some(d as f64)
        );
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn expired_count_is_cancelled_with_the_deadline_reason() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let rs = roundtrip(
            handle.addr(),
            &[r#"{"kind":"count","code":"five_qubit","deadline_ms":0}"#],
        );
        assert_eq!(rs[0].get("outcome").unwrap().as_str(), Some("cancelled"));
        assert_eq!(
            rs[0].get("reason").unwrap().as_str(),
            Some("deadline_exceeded")
        );
        assert_eq!(
            report_job(&rs[0]).get("reason").unwrap().as_str(),
            Some("deadline_exceeded")
        );
        assert_eq!(rs[0].get("encodes").unwrap().as_f64(), Some(0.0));
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn over_long_lines_close_the_connection_not_the_server() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // Exactly the bound, no newline: the server consumes all of it, so
        // its close cannot reset the connection before the error arrives.
        writer
            .write_all(&vec![b'x'; MAX_LINE_BYTES])
            .expect("write");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        let doc = Json::parse(response.trim()).expect("response parses");
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("longer than"));
        response.clear();
        assert_eq!(reader.read_line(&mut response).expect("read"), 0, "closed");
        // The next connection is served as usual.
        let rs = roundtrip(
            handle.addr(),
            &[r#"{"kind":"detection","code":"five_qubit","dt":3}"#],
        );
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(handle.metrics().count("serve_malformed"), 1);
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn connections_past_the_cap_get_busy_and_are_closed() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
            .collect();
        // Connections are accepted in order, so this one finds every
        // handler slot taken.
        let extra = TcpStream::connect(handle.addr()).expect("connect");
        extra
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(extra);
        let mut response = String::new();
        reader.read_line(&mut response).expect("busy line");
        let doc = Json::parse(response.trim()).expect("response parses");
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("error").unwrap().as_str(), Some("busy"));
        response.clear();
        assert_eq!(reader.read_line(&mut response).expect("read"), 0, "closed");
        // Closing one connection frees its slot once its handler exits. A
        // refused probe reads "busy" at once; an accepted one reads nothing
        // until it sends a request, which is then served.
        drop(idle.pop());
        let deadline = Instant::now() + Duration::from_secs(10);
        let served = loop {
            let probe = TcpStream::connect(handle.addr()).expect("connect");
            probe
                .set_read_timeout(Some(Duration::from_millis(200)))
                .expect("timeout");
            let mut reader = BufReader::new(probe.try_clone().expect("clone"));
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => assert!(line.contains("busy"), "{line}"),
                _ => break (probe, reader),
            }
            assert!(Instant::now() < deadline, "the freed slot was never reused");
        };
        let (mut probe, mut reader) = served;
        probe
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        writeln!(
            probe,
            r#"{{"kind":"detection","code":"five_qubit","dt":3}}"#
        )
        .expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let doc = Json::parse(line.trim()).expect("response parses");
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        drop(idle);
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn shutdown_request_drains_cleanly() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let rs = roundtrip(handle.addr(), &[r#"{"op":"shutdown"}"#]);
        assert_eq!(rs[0].get("draining").unwrap().as_bool(), Some(true));
        handle.join().expect("clean join");
    }
}
