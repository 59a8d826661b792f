//! The `serve` workload's closed loop: each client connection sends its
//! next request only after the previous reply arrived.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use veriqec_serve::json::Json;
use veriqec_serve::server::{ServeConfig, Server, ServerHandle};

use crate::questions::Verdict;
use crate::workloads::Mix;

/// How the server answered a request, from the response's `cached` and
/// `session` fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Answered from the result cache.
    Hit,
    /// A pooled warm session, no re-encoding.
    Warm,
    /// A fresh session or engine.
    Cold,
}

pub const PATHS: [Path; 3] = [Path::Hit, Path::Warm, Path::Cold];

/// One answered request.
struct Sample {
    ms: f64,
    path: Path,
    verdict: Verdict,
}

/// One round: a fresh server answering every client's sequence. Only its
/// summary is kept, so the benchmark's own memory does not grow with the
/// number of rounds and `peak_rss_mb` stays the program's.
pub struct Round {
    /// From the first request to the last reply, in seconds.
    pub wall: f64,
    /// The server's start-up, in seconds.
    pub setup: f64,
    /// The process's peak memory after the round, in MB.
    pub peak_rss_mb: f64,
    pub correct: usize,
    pub failed: usize,
    /// Nearest-rank median and 99th percentile of the round trips, in ms,
    /// and the path of the request at each.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p50_path: Path,
    pub p99_path: Path,
    /// Per path, in [`PATHS`] order: the requests answered that way and
    /// their median round trip in ms (0 when there are none).
    pub path_count: [usize; 3],
    pub path_p50_ms: [f64; 3],
}

impl Round {
    /// Tallies a round's answers; a wrong one ends the run.
    fn summarize(mut samples: Vec<Sample>, wall: f64, setup: f64) -> Round {
        let (mut correct, mut failed) = (0, 0);
        for s in &samples {
            match &s.verdict {
                Verdict::Correct => correct += 1,
                Verdict::Inconclusive => failed += 1,
                Verdict::Wrong(msg) => crate::abort_wrong(msg),
            }
        }
        samples.sort_by(|a, b| a.ms.total_cmp(&b.ms));
        let at = |q: f64| &samples[crate::rank(samples.len(), q)];
        let (p50, p99) = (at(0.5), at(0.99));
        let mut path_count = [0; 3];
        let mut path_p50_ms = [0.0; 3];
        for (i, path) in PATHS.into_iter().enumerate() {
            let mut ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.path == path)
                .map(|s| s.ms)
                .collect();
            path_count[i] = ms.len();
            path_p50_ms[i] = crate::median(&mut ms);
        }
        Round {
            wall,
            setup,
            peak_rss_mb: crate::peak_rss_mb(),
            correct,
            failed,
            p50_ms: p50.ms,
            p99_ms: p99.ms,
            p50_path: p50.path,
            p99_path: p99.path,
            path_count,
            path_p50_ms,
        }
    }
}

/// Starts a server with the default configuration and waits until it
/// answers: the serve workload's set-up.
fn start() -> (ServerHandle, Duration) {
    let t0 = Instant::now();
    let handle = Server::start(ServeConfig::default()).expect("bind a loopback port");
    let (mut conn, mut reader) = connect(handle.addr());
    let reply = round_trip(&mut conn, &mut reader, "{\"op\":\"stats\"}");
    let took = t0.elapsed();
    assert!(reply.contains("\"ok\":true"), "stats reply: {reply}");
    (handle, took)
}

/// Drains a server and waits for its threads.
fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join().expect("server drains cleanly");
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).expect("connect to the server");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    let reader = BufReader::new(conn.try_clone().expect("clone the socket"));
    (conn, reader)
}

fn round_trip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.write_all(format!("{line}\n").as_bytes())
        .expect("send a request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read a reply");
    reply
}

/// Rounds of the closed loop until `seconds` of measured time have passed.
/// Every round starts a fresh server (empty cache and session pool; its
/// start-up is one set-up sample) and replays each client's seeded
/// sequence, so every round sees the same mix of cold, warm and cached
/// answers. A wrong verdict ends the run.
pub fn closed_loop(mixes: &[Mix], seconds: f64) -> Vec<Round> {
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.iter().map(|r| r.wall).sum::<f64>() < seconds || rounds.is_empty() {
        let (server, setup) = start();
        let addr = server.addr();
        let t0 = Instant::now();
        let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
            let handles: Vec<_> = mixes
                .iter()
                .map(|mix| scope.spawn(move || one_client(addr, mix)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        stop(server);
        let samples = per_client.into_iter().flatten().collect();
        rounds.push(Round::summarize(samples, wall, setup.as_secs_f64()));
    }
    rounds
}

/// One connection sending its sequence, each request after the previous
/// reply.
fn one_client(addr: SocketAddr, mix: &Mix) -> Vec<Sample> {
    let (mut conn, mut reader) = connect(addr);
    let mut samples = Vec::with_capacity(mix.sequence.len());
    for &i in &mix.sequence {
        let q = &mix.questions[i];
        let line = q.request();
        let sent = Instant::now();
        let reply = round_trip(&mut conn, &mut reader, &line);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let (verdict, path) = match Json::parse(reply.trim()) {
            Ok(doc) => (q.check_response(&doc), path_of(&doc)),
            Err(e) => (Verdict::Wrong(format!("unparsable reply: {e}")), Path::Cold),
        };
        let wrong = matches!(verdict, Verdict::Wrong(_));
        samples.push(Sample { ms, path, verdict });
        if wrong {
            break;
        }
    }
    samples
}

fn path_of(doc: &Json) -> Path {
    if doc.get("cached").and_then(Json::as_bool) == Some(true) {
        Path::Hit
    } else if doc.get("session").and_then(Json::as_str) == Some("warm") {
        Path::Warm
    } else {
        Path::Cold
    }
}
