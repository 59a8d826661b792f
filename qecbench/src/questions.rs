//! The questions a workload asks, each paired with an answer that is known
//! without running the verifier.
//!
//! Reference answers come from textbook facts about the codes, never from
//! the SAT or decision-diagram backends:
//!
//! - correction verifies at `t = ⌊(d−1)/2⌋`; at `t = ⌈d/2⌉` the
//!   nondeterministic minimum-weight decoder may complete half of a
//!   minimum-weight logical the wrong way, so a counterexample of weight
//!   exactly `⌈d/2⌉` exists (anything lighter is ruled out by the UNSAT half);
//! - detection at threshold `dt = d` finds nothing, at `dt = d + 1` it finds
//!   a logical whose weight is `d`, re-checked against the stabilizer group;
//! - a distance sweep ends at the claimed (or brute-forced) distance;
//! - a failure enumerator starts at weight `d` and sums to
//!   `|N(S)| − |S| = 2^{n+k} − 2^{n−k}`;
//! - repeated noisy extraction corrects `(t_d, t_m) = (1, 1)` only with
//!   `r ≥ 3` rounds, and every smaller budget at any `r`.

use veriqec::engine::{FaultToleranceFrontier, Job, JobOutcome};
use veriqec::parallel::SplitConfig;
use veriqec::scenario::{faulty_memory_scenario, memory_scenario, ErrorModel};
use veriqec::tasks::{build_problem, DetectionOutcome, DistanceOutcome};
use veriqec_cexpr::{CMem, VarId};
use veriqec_codes::StabilizerCode;
use veriqec_pauli::PauliString;
use veriqec_serve::json::Json;
use veriqec_vcgen::VcOutcome;

/// What is asked about a code.
#[derive(Clone, Debug)]
pub enum Ask {
    /// General verification of one round of correction under `Σe ≤ t`
    /// (Y errors), split into cubes by the engine.
    Correction { t: usize },
    /// Precise detection at threshold `dt`.
    Detection { dt: usize },
    /// Distance sweep up to `max`.
    Distance { max: usize },
    /// Failure weight enumerator.
    Count,
    /// Fault-tolerance frontier of `rounds` noisy extraction rounds.
    Frontier {
        model: ErrorModel,
        rounds: usize,
        max_t_data: usize,
        max_t_meas: usize,
    },
}

/// The answer known in advance.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    Verified,
    /// A counterexample whose error-indicator weight is exactly this.
    CounterExample(usize),
    AllDetected,
    /// An undetected logical of weight in `[distance, dt − 1]`.
    Undetected {
        distance: usize,
        dt: usize,
    },
    Distance(usize),
    Enumerator {
        distance: usize,
        total: u128,
    },
    /// `(t_data, t_meas, correctable)` for every grid point.
    Frontier(Vec<(usize, usize, bool)>),
}

/// Result of checking one answer against its reference.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Correct,
    /// No verdict (budget, cancellation, shed or error response).
    Inconclusive,
    /// A verdict that contradicts the reference.
    Wrong(String),
}

/// One question about one code.
#[derive(Clone, Debug)]
pub struct Question {
    pub name: String,
    pub code: StabilizerCode,
    /// The JSON fields naming the code on the serve protocol.
    pub wire: String,
    /// The reference distance.
    pub distance: usize,
    pub ask: Ask,
    pub expect: Expect,
    /// Error indicators of the correction scenario (counterexample weights).
    pub error_vars: Vec<VarId>,
}

fn total_failures(code: &StabilizerCode) -> u128 {
    let (n, k) = (code.n() as u32, code.k() as u32);
    (1u128 << (n + k)) - (1u128 << (n - k))
}

/// The textbook frontier of repeated noisy extraction.
fn textbook_frontier(rounds: usize, max_t_data: usize, max_t_meas: usize) -> Expect {
    assert!(max_t_data <= 1 && max_t_meas <= 1, "reference covers t ≤ 1");
    let mut points = Vec::new();
    for td in 0..=max_t_data {
        for tm in 0..=max_t_meas {
            points.push((td, tm, td == 0 || tm == 0 || rounds >= 3));
        }
    }
    Expect::Frontier(points)
}

impl Question {
    /// A question on `code` with reference distance `d`, named on the wire
    /// by `wire`.
    pub fn new(code: &StabilizerCode, d: usize, wire: String, ask: Ask) -> Question {
        let mut error_vars = Vec::new();
        let (tag, expect) = match &ask {
            Ask::Correction { t } => {
                error_vars = memory_scenario(code, ErrorModel::YErrors).error_vars;
                let expect = if 2 * t < d {
                    Expect::Verified
                } else {
                    assert_eq!(*t, d.div_ceil(2), "reference covers ⌈d/2⌉ only");
                    Expect::CounterExample(*t)
                };
                (format!("correction_t{t}"), expect)
            }
            Ask::Detection { dt } => {
                let expect = if *dt <= d {
                    Expect::AllDetected
                } else {
                    Expect::Undetected {
                        distance: d,
                        dt: *dt,
                    }
                };
                (format!("detection_dt{dt}"), expect)
            }
            Ask::Distance { max } => {
                assert!(d <= *max, "sweep must reach the distance");
                (format!("distance_max{max}"), Expect::Distance(d))
            }
            Ask::Count => (
                "count".to_string(),
                Expect::Enumerator {
                    distance: d,
                    total: total_failures(code),
                },
            ),
            Ask::Frontier {
                rounds,
                max_t_data,
                max_t_meas,
                ..
            } => (
                format!("frontier_r{rounds}_td{max_t_data}_tm{max_t_meas}"),
                textbook_frontier(*rounds, *max_t_data, *max_t_meas),
            ),
        };
        Question {
            name: format!("{}:{tag}", code.name()),
            code: code.clone(),
            wire,
            distance: d,
            ask,
            expect,
            error_vars,
        }
    }

    /// A question on a zoo code with its claimed distance, named on the
    /// wire by its zoo name.
    pub fn zoo(code: &StabilizerCode, zoo_name: &str, ask: Ask) -> Question {
        let d = code.claimed_distance().expect("zoo codes claim a distance");
        Question::new(code, d, format!("\"code\":\"{zoo_name}\""), ask)
    }

    /// Swaps the reference for a wrong one (the benchmark's self-test).
    pub fn corrupt(&mut self) {
        self.expect = match &self.expect {
            Expect::Verified => Expect::CounterExample(0),
            Expect::CounterExample(_) => Expect::Verified,
            Expect::AllDetected => Expect::Undetected { distance: 1, dt: 2 },
            Expect::Undetected { .. } => Expect::AllDetected,
            Expect::Distance(d) => Expect::Distance(d + 1),
            Expect::Enumerator { distance, total } => Expect::Enumerator {
                distance: *distance,
                total: total + 1,
            },
            Expect::Frontier(points) => {
                Expect::Frontier(points.iter().map(|&(a, b, ok)| (a, b, !ok)).collect())
            }
        };
    }

    /// The engine job as a user builds it: scenario assembly, weakest
    /// precondition and reduction happen here.
    pub fn job(&self) -> Job {
        match &self.ask {
            Ask::Correction { t } => {
                let scenario = memory_scenario(&self.code, ErrorModel::YErrors);
                let problem = build_problem(&scenario, *t as i64, vec![]);
                Job::correction(
                    self.name.clone(),
                    problem,
                    scenario.error_vars,
                    split_for(self.distance),
                )
            }
            Ask::Detection { dt } => Job::detection(self.name.clone(), self.code.clone(), *dt),
            Ask::Distance { max } => Job::distance(self.name.clone(), self.code.clone(), *max),
            Ask::Count => Job::count(self.name.clone(), self.code.clone()),
            Ask::Frontier {
                model,
                rounds,
                max_t_data,
                max_t_meas,
            } => {
                let scenario = faulty_memory_scenario(&self.code, *model, *rounds);
                Job::fault_tolerance(self.name.clone(), &scenario, *max_t_data, *max_t_meas)
            }
        }
    }

    /// The serve request line for this question.
    pub fn request(&self) -> String {
        let kind = match &self.ask {
            Ask::Detection { dt } => format!("\"kind\":\"detection\",\"dt\":{dt}"),
            Ask::Distance { max } => format!("\"kind\":\"distance\",\"max\":{max}"),
            Ask::Count => "\"kind\":\"count\"".to_string(),
            Ask::Frontier {
                model,
                rounds,
                max_t_data,
                max_t_meas,
            } => {
                let model = match model {
                    ErrorModel::XErrors => "x",
                    ErrorModel::ZErrors => "z",
                    ErrorModel::YErrors => "y",
                    ErrorModel::Depolarizing => "depolarizing",
                };
                format!(
                    "\"kind\":\"fault_tolerance\",\"model\":\"{model}\",\"rounds\":{rounds},\
                     \"max_t_data\":{max_t_data},\"max_t_meas\":{max_t_meas}"
                )
            }
            Ask::Correction { .. } => unreachable!("the serve protocol has no correction kind"),
        };
        format!("{{{kind},{}}}", self.wire)
    }

    /// Checks an engine outcome.
    pub fn check_job(&self, out: &JobOutcome) -> Verdict {
        if !out.is_conclusive() {
            return Verdict::Inconclusive;
        }
        match (out, &self.expect) {
            (JobOutcome::Verified, Expect::Verified) => Verdict::Correct,
            (JobOutcome::CounterExample(m), Expect::CounterExample(_)) => self.check_model(m),
            (JobOutcome::Detection(DetectionOutcome::AllDetected), Expect::AllDetected) => {
                Verdict::Correct
            }
            (
                JobOutcome::Detection(DetectionOutcome::UndetectedLogical {
                    x_support,
                    z_support,
                }),
                Expect::Undetected { .. },
            ) => self.check_logical(x_support, z_support),
            (JobOutcome::Distance(DistanceOutcome::Exact(got)), Expect::Distance(d))
                if got == d =>
            {
                Verdict::Correct
            }
            (JobOutcome::Enumerator(e), Expect::Enumerator { .. }) => {
                self.check_enumerator(e.min_weight, e.total())
            }
            (JobOutcome::Frontier(f), Expect::Frontier(_)) => self.check_frontier(f),
            _ => self.wrong(&format!("{out:?}")),
        }
    }

    /// Checks a direct session answer (the traced layer-by-layer pass).
    pub fn check_vc(&self, out: &VcOutcome) -> Verdict {
        match out {
            VcOutcome::Verified => self.check_job(&JobOutcome::Verified),
            VcOutcome::CounterExample(m) => self.check_job(&JobOutcome::CounterExample(m.clone())),
            VcOutcome::Unknown => Verdict::Inconclusive,
        }
    }

    /// Checks a serve response line.
    pub fn check_response(&self, doc: &Json) -> Verdict {
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Verdict::Inconclusive;
        }
        let tag = doc.get("outcome").and_then(Json::as_str).unwrap_or("");
        let job = doc
            .get("report")
            .and_then(|r| r.get("jobs"))
            .and_then(Json::as_arr)
            .and_then(|j| j.first());
        let Some(job) = job else {
            return self.wrong("response without a report");
        };
        let num = |key: &str| job.get(key).and_then(Json::as_f64);
        let list = |key: &str| -> Vec<usize> {
            job.get(key)
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_f64)
                        .map(|x| x as usize)
                        .collect()
                })
                .unwrap_or_default()
        };
        match (tag, &self.expect) {
            ("inconclusive" | "distance_inconclusive" | "unknown" | "cancelled", _) => {
                Verdict::Inconclusive
            }
            ("all_detected", Expect::AllDetected) => Verdict::Correct,
            ("undetected_logical", Expect::Undetected { .. }) => {
                self.check_logical(&list("x_support"), &list("z_support"))
            }
            ("distance_exact", Expect::Distance(d)) if num("distance") == Some(*d as f64) => {
                Verdict::Correct
            }
            ("enumerator", Expect::Enumerator { .. }) => {
                let coefficients = job.get("coefficients").and_then(Json::as_arr);
                let total = coefficients
                    .map(|c| c.iter().filter_map(Json::as_f64).map(|x| x as u128).sum())
                    .unwrap_or(0);
                self.check_enumerator(num("min_weight").map(|w| w as usize), total)
            }
            ("frontier", Expect::Frontier(_)) => {
                let mut frontier = FaultToleranceFrontier::default();
                for p in job.get("points").and_then(Json::as_arr).unwrap_or(&[]) {
                    let get = |k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(-1.0) as usize;
                    frontier.points.push(veriqec::engine::FrontierPoint {
                        t_data: get("t_data"),
                        t_meas: get("t_meas"),
                        correctable: p.get("correctable").and_then(Json::as_bool),
                    });
                }
                if frontier.points.iter().any(|p| p.correctable.is_none()) {
                    return Verdict::Inconclusive;
                }
                self.check_frontier(&frontier)
            }
            _ => self.wrong(&format!("outcome {tag:?}")),
        }
    }

    fn wrong(&self, got: &str) -> Verdict {
        Verdict::Wrong(format!(
            "{}: expected {:?}, got {got}",
            self.name, self.expect
        ))
    }

    fn check_model(&self, m: &CMem) -> Verdict {
        let weight = self
            .error_vars
            .iter()
            .filter(|&&v| m.get(v).as_bool())
            .count();
        match self.expect {
            Expect::CounterExample(w) if weight == w => Verdict::Correct,
            _ => self.wrong(&format!("a counterexample of error weight {weight}")),
        }
    }

    /// The found logical must commute with every stabilizer, lie outside
    /// the stabilizer group, and weigh at least the distance and below `dt`.
    fn check_logical(&self, x: &[usize], z: &[usize]) -> Verdict {
        let Expect::Undetected { distance, dt } = self.expect else {
            return self.wrong("an undetected logical");
        };
        let n = self.code.n();
        let letters: String = (0..n)
            .map(|q| match (x.contains(&q), z.contains(&q)) {
                (false, false) => 'I',
                (true, false) => 'X',
                (false, true) => 'Z',
                (true, true) => 'Y',
            })
            .collect();
        let weight = letters.chars().filter(|&c| c != 'I').count();
        let p = PauliString::from_letters(&letters).expect("letters are I/X/Y/Z");
        let group = self.code.group();
        if group.is_undetected(&p)
            && group.decompose(&p).is_none()
            && (distance..dt).contains(&weight)
        {
            Verdict::Correct
        } else {
            self.wrong(&format!("logical {letters} (weight {weight})"))
        }
    }

    fn check_enumerator(&self, min_weight: Option<usize>, total: u128) -> Verdict {
        match self.expect {
            Expect::Enumerator { distance, total: t }
                if min_weight == Some(distance) && total == t =>
            {
                Verdict::Correct
            }
            _ => self.wrong(&format!(
                "an enumerator with min weight {min_weight:?} and total {total}"
            )),
        }
    }

    fn check_frontier(&self, f: &FaultToleranceFrontier) -> Verdict {
        let got: Vec<(usize, usize, bool)> = f
            .points
            .iter()
            .map(|p| (p.t_data, p.t_meas, p.correctable.unwrap_or(false)))
            .collect();
        match &self.expect {
            Expect::Frontier(points) if *points == got => Verdict::Correct,
            _ => self.wrong(&format!("frontier {got:?}")),
        }
    }
}

/// The Fig. 4 cube split: `ET = 2d·N(ones) + N(bits)` up to `2d + 4`.
pub fn split_for(d: usize) -> SplitConfig {
    SplitConfig {
        heuristic_distance: d,
        et_threshold: 2 * d + 4,
    }
}
