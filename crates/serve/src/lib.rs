//! Verification as a service: a resident daemon in front of the engine's
//! query core.
//!
//! The paper's workflow is one-shot — encode, solve, print, exit — but a
//! production verifier is a process that stays up: dashboards re-ask the
//! same distance question, CI fleets submit bursts, operators attach with
//! `nc`. This crate puts the [`veriqec::engine`] query core — one
//! [`veriqec::engine::Session::ask`] per detection, distance or frontier
//! request, [`veriqec::engine::count`] per count request — behind a
//! hand-rolled newline-delimited-JSON line protocol over TCP
//! ([`std::net::TcpListener`], no external dependencies) with the three
//! subsystems a resident process needs:
//!
//! * **Result cache** ([`cache`]): verdicts are content-addressed by an
//!   FNV-1a hash of the canonical request (code × scenario × schedule ×
//!   budgets), so a repeated question is answered without touching a
//!   solver. Only conclusive outcomes are cached.
//! * **Warm sessions** ([`pool`]): the engine's
//!   [`veriqec::engine::Session`]s are pooled by code + scenario + budget
//!   and reused across requests — repeat queries skip re-encoding entirely
//!   (pinned by the answers' encode counters).
//! * **Admission control** ([`server`]): a bounded pending queue sheds
//!   load with `"busy"` past the high-water mark, per-request deadlines
//!   are lowered onto the existing cooperative stop flags by watchdog
//!   threads, request lines are bounded (1 MiB), so are code sizes (1024
//!   qubits) and extraction rounds (64), and
//!   shutdown (request, SIGTERM, or API) drains admitted work before the
//!   process exits.
//!
//! Responses carry the job outcome plus solver/diagram statistics in the
//! existing `BatchReport` JSON vocabulary, wrapped in a small envelope
//! (`id` echo, `cached`, `session`, `encodes`, `cache_key`). See
//! `DESIGN.md` ("Serving") for the protocol grammar and
//! [`smoke::run_smoke`] for a scripted end-to-end exchange — the same
//! script `tables serve --smoke` runs in CI.

pub mod cache;
pub mod json;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod smoke;

pub use cache::{fnv1a, ResultCache};
pub use pool::SessionPool;
pub use protocol::{canonical_request, parse_request, resolve_code, Request, VerifyRequest};
pub use server::{ServeConfig, ServeMetrics, Server, ServerHandle};
