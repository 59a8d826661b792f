//! Ablation benches for the design choices called out in `DESIGN.md`:
//! CDCL features (VSIDS, clause learning, restarts) and the `ET` subtask
//! heuristic, measured on the surface-code general-verification workload.

use criterion::{criterion_group, criterion_main, Criterion};
use veriqec::engine::{Engine, Job};
use veriqec::parallel::SplitConfig;
use veriqec_bench::surface_problem;
use veriqec_sat::SolverConfig;

fn bench_solver_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_solver_features");
    group.sample_size(10);
    let (_, problem) = surface_problem(5);
    let configs = [
        ("full", SolverConfig::default()),
        (
            "no_vsids",
            SolverConfig {
                use_vsids: false,
                ..SolverConfig::default()
            },
        ),
        (
            "no_restarts",
            SolverConfig {
                use_restarts: false,
                ..SolverConfig::default()
            },
        ),
        (
            "no_phase_saving",
            SolverConfig {
                use_phase_saving: false,
                ..SolverConfig::default()
            },
        ),
    ];
    for (name, cfg) in configs {
        group.bench_function(format!("d5_{name}"), |b| {
            b.iter(|| {
                let (outcome, _) = problem.check_with_config(cfg);
                assert!(outcome.is_verified());
            })
        });
    }
    group.finish();
}

fn bench_et_heuristic(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_et_heuristic");
    group.sample_size(10);
    let (scenario, problem) = surface_problem(5);
    let engine = Engine::default();
    for (name, threshold) in [("shallow", 6usize), ("paper_et", 14), ("deep", 20)] {
        let split = SplitConfig {
            heuristic_distance: 5,
            et_threshold: threshold,
        };
        group.bench_function(format!("d5_{name}"), |b| {
            b.iter(|| {
                let job =
                    Job::correction(name, problem.clone(), scenario.error_vars.clone(), split);
                assert!(engine.run(vec![job]).jobs[0].outcome.is_verified());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver_features, bench_et_heuristic);
criterion_main!(benches);
