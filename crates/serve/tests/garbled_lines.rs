//! Garbled input never costs the daemon a response or its life.
//!
//! One server per case receives random bytes, truncated requests and valid
//! requests with one field mutated, all on one connection. Every line must
//! get exactly one response line that parses as JSON and is either a
//! structured `"ok":false` error or a well-formed verdict; a closing
//! `stats` request must still be answered (so no line was answered twice),
//! and the server must then drain cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;
use proptest::{collection, Rng, TestRng};
use veriqec_serve::json::Json;
use veriqec_serve::{ServeConfig, Server};

/// Valid requests on small codes, as `(key, value)` members; every one
/// carries a deadline, so a mutation of another field cannot run long.
const VALID: &[&[(&str, &str)]] = &[
    &[
        ("id", "1"),
        ("kind", r#""detection""#),
        ("code", r#""five_qubit""#),
        ("dt", "3"),
        ("deadline_ms", "5000"),
    ],
    &[
        ("id", r#""d""#),
        ("kind", r#""distance""#),
        ("code", r#""steane""#),
        ("max", "4"),
        ("deadline_ms", "5000"),
    ],
    &[
        ("kind", r#""count""#),
        ("code", r#""five_qubit""#),
        ("node_limit", "100000"),
        ("deadline_ms", "5000"),
    ],
    &[
        ("op", r#""verify""#),
        ("kind", r#""fault_tolerance""#),
        ("code", r#""repetition_3""#),
        ("model", r#""x""#),
        ("rounds", "1"),
        ("max_t_data", "1"),
        ("max_t_meas", "1"),
        ("deadline_ms", "5000"),
    ],
    &[
        ("kind", r#""detection""#),
        ("stabilizers", r#"["ZZI","IZZ"]"#),
        ("distance", "3"),
        ("dt", "2"),
        ("deadline_ms", "5000"),
    ],
];

/// Values a mutation may put in a field: wrong types, out-of-range
/// numbers, unknown names and over-cap sizes.
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "65",
    "-1",
    "0.5",
    "1e300",
    "null",
    "true",
    "[]",
    "{}",
    "[1,2]",
    r#""""#,
    r#""s""#,
    r#""ZZ""#,
    r#""surface_99999""#,
    r#"["XQ"]"#,
];

fn render(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One request line (no newline): random bytes, a truncated valid
/// request, or a valid request with one field replaced, dropped, renamed
/// or duplicated.
struct GarbledLine;

impl Strategy for GarbledLine {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let valid = VALID[rng.gen_range(0..VALID.len())];
        let mut members: Vec<(String, String)> = valid
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        match rng.gen_range(0..3) {
            0 => collection::vec(any::<u8>(), 0..48)
                .generate(rng)
                .into_iter()
                .map(|b| if b == b'\n' { b' ' } else { b })
                .collect(),
            1 => {
                let line = render(&members);
                line.as_bytes()[..rng.gen_range(0..line.len())].to_vec()
            }
            _ => {
                let i = rng.gen_range(0..members.len());
                let value = VALUES[rng.gen_range(0..VALUES.len())].to_string();
                match rng.gen_range(0..4) {
                    0 => members[i].1 = value,
                    1 => {
                        members.remove(i);
                    }
                    2 => members[i].0.insert(0, 'x'),
                    _ => {
                        let key = members[i].0.clone();
                        members.insert(0, (key, value));
                    }
                }
                render(&members).into_bytes()
            }
        }
    }
}

/// Whether `response` is a structured error or a well-formed verdict.
fn well_formed(response: &Json) -> Result<(), String> {
    match response.get("ok").and_then(Json::as_bool) {
        Some(false) => match response.get("error").and_then(Json::as_str) {
            Some(msg) if !msg.is_empty() => Ok(()),
            _ => Err("an error response needs a non-empty \"error\"".into()),
        },
        Some(true) => {
            let outcome = response.get("outcome").and_then(Json::as_str);
            let cached = response.get("cached").and_then(Json::as_bool);
            let jobs = response
                .get("report")
                .and_then(|r| r.get("jobs"))
                .and_then(Json::as_arr);
            match (outcome, cached, jobs) {
                (Some(_), Some(_), Some(jobs)) if jobs.len() == 1 => Ok(()),
                _ => Err("a verdict needs an outcome, a cached flag and one job".into()),
            }
        }
        None => Err("no boolean \"ok\"".into()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_garbled_line_gets_one_structured_response(
        lines in collection::vec(GarbledLine, 40),
    ) {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut read_one = || -> Result<Json, String> {
            let mut response = String::new();
            reader
                .read_line(&mut response)
                .map_err(|e| format!("no response: {e}"))?;
            Json::parse(response.trim()).map_err(|e| format!("{response:?}: {e}"))
        };
        for line in &lines {
            // One write per line: a separate newline write would wait out
            // the peer's delayed ACK.
            writer.write_all(&[line, &b"\n"[..]].concat()).expect("write");
            let response = read_one()?;
            let shown = String::from_utf8_lossy(line);
            prop_assert!(
                well_formed(&response).is_ok(),
                "{shown:?} -> {response:?}: {:?}",
                well_formed(&response)
            );
        }
        writeln!(writer, r#"{{"op":"stats"}}"#).expect("write");
        let stats = read_one()?;
        prop_assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        prop_assert!(stats.get("stats").is_some(), "{stats:?}");
        drop((writer, reader));
        handle.shutdown();
        prop_assert_eq!(handle.join(), Ok(()));
    }
}
