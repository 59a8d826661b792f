//! The `ET` enumeration split of the parallel verification task (§6/§7.1,
//! Appendix D.4).
//!
//! The general task is split into subtasks by enumerating the values of
//! selected error indicators; enumeration stops when the paper's heuristic
//! `ET = 2d·N(ones) + N(bits) > threshold` fires, and the residual subtask
//! goes to a SAT solver. Subtasks are *streamed* from [`SubtaskIter`] — the
//! exponential enumeration is never materialized — largest cube first: the
//! all-zero prefix, which holds most of the low-weight assignments, comes
//! out first and the cheap cubes with many ones trail. A
//! [`crate::engine::JobKind::Correction`] job hands them to the engine's
//! worker pool ([`crate::engine::Engine::run`]), whose workers solve them
//! in clones of one base encoding that exchange short learnt clauses, and
//! cancels on the first counterexample: the architecture of the paper's
//! 250-core driver, scaled to a thread count.

use veriqec_cexpr::VarId;

/// Parameters of the `ET` enumeration split (§6, Appendix D.4).
#[derive(Clone, Copy, Debug)]
pub struct SplitConfig {
    /// The `d` in the `ET = 2d·N(ones) + N(bits)` heuristic.
    pub heuristic_distance: usize,
    /// Enumeration stops when `ET` exceeds this threshold.
    pub et_threshold: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            heuristic_distance: 3,
            et_threshold: 12,
        }
    }
}

/// A lazy stream of enumeration subtasks over `enum_vars` using the `ET`
/// heuristic (depth-first, so the live frontier is at most one partial
/// assignment per enumeration depth — large `et_threshold` values never
/// materialize the exponential subtask set).
///
/// Each yielded subtask is a partial assignment (as variable/value pairs);
/// the union of subtasks covers the full space, mirroring Appendix D.4.
/// The `0` branch is explored before the `1` branch, so the first subtask
/// is the all-zero prefix. It holds most of the weight-≤t assignments, so
/// it takes longest to solve and is the likeliest to hold a counterexample;
/// handing it out first is LPT (longest processing time first) scheduling
/// for the tail of a job.
#[derive(Clone, Debug)]
pub struct SubtaskIter {
    enum_vars: Vec<VarId>,
    split: SplitConfig,
    stack: Vec<Vec<(VarId, bool)>>,
}

impl SubtaskIter {
    /// Starts the enumeration over `enum_vars`.
    pub fn new(enum_vars: Vec<VarId>, split: SplitConfig) -> Self {
        SubtaskIter {
            enum_vars,
            split,
            stack: vec![vec![]],
        }
    }
}

impl Iterator for SubtaskIter {
    type Item = Vec<(VarId, bool)>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(partial) = self.stack.pop() {
            let ones = partial.iter().filter(|(_, v)| *v).count();
            let bits = partial.len();
            let et = 2 * self.split.heuristic_distance * ones + bits;
            if et > self.split.et_threshold || bits == self.enum_vars.len() {
                return Some(partial);
            }
            let next = self.enum_vars[bits];
            let mut zero = partial.clone();
            zero.push((next, false));
            let mut one = partial;
            one.push((next, true));
            self.stack.push(one);
            self.stack.push(zero);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, Job, JobOutcome, JobReport};
    use crate::scenario::{memory_scenario, ErrorModel};
    use crate::tasks::build_problem;
    use veriqec_codes::steane;
    use veriqec_sat::SolverConfig;

    #[test]
    fn subtask_split_covers_space() {
        let vars: Vec<VarId> = (0..6).map(VarId).collect();
        let split = SplitConfig {
            heuristic_distance: 2,
            et_threshold: 5,
        };
        let tasks: Vec<_> = SubtaskIter::new(vars, split).collect();
        // Coverage: total weight of the partial-assignment cylinders is 1.
        let total: f64 = tasks.iter().map(|t| 1.0 / (1u64 << t.len()) as f64).sum();
        assert!((total - 1.0).abs() < 1e-12, "cylinders must partition");
        assert!(tasks.len() > 1);
    }

    #[test]
    fn subtask_stream_is_lazy() {
        // 64 variables with a threshold that never fires would enumerate
        // 2^64 subtasks if materialized; the iterator hands out a prefix
        // without ever building that set.
        let vars: Vec<VarId> = (0..64).map(VarId).collect();
        let split = SplitConfig {
            heuristic_distance: 1,
            et_threshold: usize::MAX,
        };
        let prefix: Vec<_> = SubtaskIter::new(vars, split).take(5).collect();
        assert_eq!(prefix.len(), 5);
        for t in &prefix {
            assert_eq!(t.len(), 64, "threshold never fires: full assignments");
        }
    }

    /// Runs one correction job split over the scenario's error indicators.
    fn split_job(t: i64, workers: usize, split: SplitConfig) -> JobReport {
        let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
        let problem = build_problem(&scenario, t, vec![]);
        let engine = Engine::new(EngineConfig {
            workers,
            solver: SolverConfig::default(),
        });
        let job = Job::correction("steane", problem, scenario.error_vars.clone(), split);
        engine.run(vec![job]).jobs.remove(0)
    }

    #[test]
    fn parallel_agrees_with_sequential_on_steane() {
        let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
        let (seq, _) = build_problem(&scenario, 1, vec![]).check();
        let split = SplitConfig {
            heuristic_distance: 3,
            et_threshold: 8,
        };
        let par = split_job(1, 4, split);
        assert!(seq.is_verified());
        assert!(par.outcome.is_verified());
        assert!(par.subtasks > 1);
        // The aggregated worker stats must reflect real solver work.
        assert!(par.stats.propagations > 0);
        assert!(par.stats.decisions > 0);
    }

    #[test]
    fn parallel_finds_counterexamples() {
        let par = split_job(2, 4, SplitConfig::default());
        assert!(matches!(par.outcome, JobOutcome::CounterExample(_)));
    }
}
