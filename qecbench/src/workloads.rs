//! The four workloads' inputs. Everything here is fixed by the workload and
//! the seed: the codes, the questions, the job order of every batch pass and
//! the request sequence of every serve client.

use rand::prelude::*;
use veriqec::scenario::ErrorModel;
use veriqec_codes::{
    c4_422, carbon_12_2_4, cube_color_822, five_qubit, gottesman8, repetition, rotated_surface,
    search::random_code, shor9, six_qubit, steane, toric, xzzx_surface, StabilizerCode,
};
use veriqec_serve::protocol::{resolve_code, CodeSpec};

use crate::questions::{Ask, Question};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Verify,
    Count,
    Frontier,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "verify" => Some(Workload::Verify),
            "count" => Some(Workload::Count),
            "frontier" => Some(Workload::Frontier),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }
}

/// The codes a workload is about, with their serve-protocol zoo names: the
/// program's own set-up (code construction) that `setup_s` times.
pub fn codes(w: Workload) -> Vec<(StabilizerCode, &'static str)> {
    match w {
        Workload::Verify => vec![
            (steane(), "steane"),
            (five_qubit(), "five_qubit"),
            (shor9(), "shor9"),
            (xzzx_surface(3), "xzzx_3"),
            (carbon_12_2_4(), "carbon"),
            (rotated_surface(3), "surface_3"),
            (rotated_surface(5), "surface_5"),
            (rotated_surface(7), "surface_7"),
        ],
        Workload::Count => vec![
            (c4_422(), "c4_422"),
            (five_qubit(), "five_qubit"),
            (six_qubit(), "six_qubit"),
            (steane(), "steane"),
            (shor9(), "shor9"),
            (rotated_surface(3), "surface_3"),
            (gottesman8(), "gottesman8"),
            (cube_color_822(), "cube_color_822"),
            (xzzx_surface(3), "xzzx_3"),
            (toric(3), "toric_3"),
            (carbon_12_2_4(), "carbon"),
            (rotated_surface(5), "surface_5"),
            (xzzx_surface(5), "xzzx_5"),
        ],
        Workload::Frontier => vec![
            (rotated_surface(5), "surface_5"),
            (rotated_surface(7), "surface_7"),
            (rotated_surface(9), "surface_9"),
        ],
        Workload::Serve => vec![
            (steane(), "steane"),
            (five_qubit(), "five_qubit"),
            (six_qubit(), "six_qubit"),
            (shor9(), "shor9"),
            (c4_422(), "c4_422"),
            (rotated_surface(3), "surface_3"),
            (repetition(3), "repetition_3"),
        ],
    }
}

/// The questions of a batch workload (serve draws from [`serve_zoo`] and
/// [`Mix`] instead).
pub fn batch_questions(w: Workload) -> Vec<Question> {
    let mut qs = Vec::new();
    for (code, name) in codes(w) {
        let d = code.claimed_distance().expect("zoo codes claim a distance");
        let zoo = |ask| Question::zoo(&code, name, ask);
        match w {
            Workload::Verify => {
                // UNSAT at the guaranteed radius, a counterexample just past it.
                qs.push(zoo(Ask::Correction { t: (d - 1) / 2 }));
                qs.push(zoo(Ask::Correction { t: d.div_ceil(2) }));
                if name.starts_with("surface_") {
                    // Fig. 6: precise detection on both sides of the distance.
                    qs.push(zoo(Ask::Detection { dt: d }));
                    qs.push(zoo(Ask::Detection { dt: d + 1 }));
                }
                if matches!(name, "steane" | "carbon" | "surface_5") {
                    qs.push(zoo(Ask::Distance { max: d + 1 }));
                }
            }
            Workload::Count => qs.push(zoo(Ask::Count)),
            Workload::Frontier => {
                // The degenerate-budget column t_d = 0, t_m ≤ 1 at r = 3 and r = d.
                for rounds in [3, d] {
                    qs.push(Question::new(
                        &code,
                        d,
                        format!("\"code\":\"{name}\""),
                        Ask::Frontier {
                            model: ErrorModel::YErrors,
                            rounds,
                            max_t_data: 0,
                            max_t_meas: 1,
                        },
                    ));
                }
            }
            Workload::Serve => unreachable!("serve questions come from the mix"),
        }
    }
    qs
}

/// The zoo questions of the serve workload: every kind on small codes, plus
/// frontier questions that differ only in their budgets (same warm sweep).
pub fn serve_zoo() -> Vec<Question> {
    let mut qs = Vec::new();
    for (code, name) in codes(Workload::Serve) {
        if name == "repetition_3" {
            for (rounds, td, tm) in [(1, 1, 1), (3, 1, 1), (3, 1, 0)] {
                qs.push(frontier(&code, name, ErrorModel::XErrors, rounds, td, tm));
            }
            continue;
        }
        let d = code.claimed_distance().expect("zoo codes claim a distance");
        let zoo = |ask| Question::zoo(&code, name, ask);
        qs.push(zoo(Ask::Detection { dt: d }));
        qs.push(zoo(Ask::Detection { dt: d + 1 }));
        qs.push(zoo(Ask::Distance { max: d + 1 }));
        qs.push(zoo(Ask::Count));
        if name == "surface_3" {
            for (rounds, td, tm) in [(1, 1, 1), (3, 1, 1), (3, 0, 1)] {
                qs.push(frontier(&code, name, ErrorModel::YErrors, rounds, td, tm));
            }
        }
    }
    qs
}

fn frontier(
    code: &StabilizerCode,
    name: &str,
    model: ErrorModel,
    rounds: usize,
    max_t_data: usize,
    max_t_meas: usize,
) -> Question {
    Question::new(
        code,
        0,
        format!("\"code\":\"{name}\""),
        Ask::Frontier {
            model,
            rounds,
            max_t_data,
            max_t_meas,
        },
    )
}

/// The serve workload's distinct questions for the layer-by-layer pass:
/// the zoo questions plus every kind on a few fresh random codes.
pub fn serve_pass_questions(seed: u64) -> Vec<Question> {
    let mut qs = serve_zoo();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..4 {
        let (code, d, wire) = fresh_code(&mut rng);
        for ask in [
            Ask::Detection { dt: d },
            Ask::Detection { dt: d + 1 },
            Ask::Distance { max: code.n() },
            Ask::Count,
        ] {
            qs.push(Question::new(&code, d, wire.clone(), ask));
        }
    }
    qs
}

/// A random inline `[[7,1,2]]` code, as the server will build it from its
/// generator letters, with its brute-forced distance. One distance keeps
/// every fresh code about equally hard, whatever the seed.
fn fresh_code(rng: &mut StdRng) -> (StabilizerCode, usize, String) {
    loop {
        let code = random_code(7, 1, rng);
        let stabilizers: Vec<String> = code
            .generators()
            .iter()
            .map(|g| (0..code.n()).map(|q| g.pauli().letter(q)).collect())
            .collect();
        let spec = CodeSpec::Inline {
            name: "inline".into(),
            stabilizers: stabilizers.clone(),
            distance: None,
        };
        let code = resolve_code(&spec).expect("random generators form a stabilizer group");
        let Some(d) = code.brute_force_distance(code.n()) else {
            continue;
        };
        if d != 2 {
            continue;
        }
        let quoted: Vec<String> = stabilizers.iter().map(|s| format!("\"{s}\"")).collect();
        let wire = format!("\"stabilizers\":[{}]", quoted.join(","));
        return (code, d, wire);
    }
}

/// One block of a client's request sequence, shuffled by the seed. No
/// record of the daemon's traffic exists, so the shares are assumed, and
/// chosen so that each gated percentile lands on one named path:
///
/// - 18 repeats (72 %, a cache hit each): a question this client already
///   asked. Well over half of all requests, so `latency_p50_ms` falls inside
///   the hit path (parse, cache lookup, stored reply) and on nothing else.
/// - 3 fresh codes (12 %, cold): a never-seen random code, so a session or
///   engine is built, solved, rendered and written to the cache. Well over
///   1 % of all requests, so `latency_p99_ms` falls inside the cold path,
///   with 20 cold answers beyond it in every round.
/// - 4 follow-ups (16 %, warm): the questions a client sweeping a new code
///   asks next, two for each fresh code first asked a detection or distance
///   question; they ride the pooled session. They fall between the two
///   percentiles and move `verdicts_per_s` only.
///
/// The first blocks each trade one repeat for a first ask of one of the
/// client's zoo questions (the count and fault-tolerance kinds on zoo
/// codes), so every zoo question is asked once per round and repeated after.
const BLOCK: [Class; 25] = {
    use Class::*;
    [
        Fresh, Fresh, Fresh, Warm, Warm, Warm, Warm, Hit, Hit, Hit, Hit, Hit, Hit, Hit, Hit, Hit,
        Hit, Hit, Hit, Hit, Hit, Hit, Hit, Hit, Hit,
    ]
};

#[derive(Clone, Copy)]
enum Class {
    Fresh,
    Warm,
    Zoo,
    Hit,
}

/// One client's request sequence, fixed by the seed.
pub struct Mix {
    /// Every question this client asks.
    pub questions: Vec<Question>,
    /// The requests, as indices into `questions`.
    pub sequence: Vec<usize>,
}

impl Mix {
    /// Client `client` of `clients`: `len` requests over its share of the
    /// zoo questions and freshly generated random codes.
    pub fn new(seed: u64, client: usize, clients: usize, len: usize) -> Mix {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(client as u64));
        let mut questions: Vec<Question> = serve_zoo()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % clients == client)
            .map(|(_, q)| q)
            .collect();
        questions.shuffle(&mut rng);
        let zoo_len = questions.len();
        let mut sequence = Vec::with_capacity(len);
        let mut issued: Vec<usize> = Vec::new();
        let mut warm: std::collections::VecDeque<usize> = Default::default();
        let mut zoo_next = 0;
        while sequence.len() < len {
            let mut block = BLOCK;
            if zoo_next < zoo_len {
                block[BLOCK.len() - 1] = Class::Zoo;
            }
            block.shuffle(&mut rng);
            // The three fresh codes of a block get one question kind each.
            let mut fresh_asks = [0, 1, 2];
            fresh_asks.shuffle(&mut rng);
            let mut fresh_asks = fresh_asks.into_iter();
            for class in block {
                let q = match class {
                    Class::Fresh => {
                        let (code, d, wire) = fresh_code(&mut rng);
                        let n = code.n();
                        let asks = [
                            Ask::Detection { dt: d },
                            Ask::Distance { max: n },
                            Ask::Count,
                        ];
                        let first = fresh_asks.next().expect("three fresh slots per block");
                        if first < 2 {
                            // Detection and distance share one pooled session
                            // per code; two follow-ups ride it.
                            let follow = [
                                Ask::Detection { dt: d },
                                Ask::Detection { dt: d + 1 },
                                Ask::Distance { max: n },
                            ];
                            for (i, ask) in follow.into_iter().enumerate() {
                                if i != [0, 2][first] {
                                    questions.push(Question::new(&code, d, wire.clone(), ask));
                                    warm.push_back(questions.len() - 1);
                                }
                            }
                        }
                        questions.push(Question::new(&code, d, wire, asks[first].clone()));
                        questions.len() - 1
                    }
                    Class::Warm if !warm.is_empty() => warm.pop_front().expect("non-empty"),
                    Class::Zoo => {
                        zoo_next += 1;
                        zoo_next - 1
                    }
                    _ if issued.is_empty() => {
                        // Nothing to repeat yet: ask a zoo question first.
                        zoo_next += 1;
                        zoo_next - 1
                    }
                    _ => issued[rng.gen_range(0..issued.len())],
                };
                if !issued.contains(&q) {
                    issued.push(q);
                }
                sequence.push(q);
            }
        }
        sequence.truncate(len);
        Mix {
            questions,
            sequence,
        }
    }
}
