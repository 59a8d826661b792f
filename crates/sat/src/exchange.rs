//! Learnt-clause exchange among solvers that share one base formula.

use std::sync::{Arc, Mutex, PoisonError};

use crate::Lit;

/// Learnt clauses with learn-time LBD at or below this are exported.
pub(crate) const EXPORT_MAX_LBD: u32 = 2;

/// Learnt clauses with at most this many literals are exported.
pub(crate) const EXPORT_MAX_LEN: usize = 8;

/// A buffer of short, low-glue learnt clauses shared among solvers over one
/// base formula; created empty by [`Default`].
///
/// Every solver registered through [`crate::Solver::share_clauses`] appends
/// the clauses it learns with LBD ≤ 2 and at most 8 literals (units
/// included), and imports the other members' clauses at root level at the
/// start of every `solve` and at every restart. This is sound only when all
/// members hold the same clauses over the same variable numbering — clones
/// of one encoded base — because a learnt clause is implied by the clause
/// database alone, never by the assumptions it was learnt under.
#[derive(Debug, Default)]
pub struct ClauseExchange {
    buffer: Mutex<Buffer>,
}

#[derive(Debug, Default)]
struct Buffer {
    /// Concatenated literals of every exported clause.
    lits: Vec<Lit>,
    /// Per exported clause: the exporting member and its end in `lits`.
    clauses: Vec<(u32, usize)>,
    /// Members registered so far (the next member's id).
    members: u32,
}

impl ClauseExchange {
    /// Number of clauses exported so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().clauses.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buffer> {
        self.buffer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self) -> u32 {
        let mut b = self.lock();
        b.members += 1;
        b.members - 1
    }

    fn export(&self, from: u32, clause: &[Lit]) {
        let mut b = self.lock();
        b.lits.extend_from_slice(clause);
        let end = b.lits.len();
        b.clauses.push((from, end));
    }

    /// Copies the clauses other members exported since `cursor` into
    /// `lits` (flattened) and `ends`, and advances `cursor` past them.
    fn fetch(&self, me: u32, cursor: &mut usize, lits: &mut Vec<Lit>, ends: &mut Vec<usize>) {
        let b = self.lock();
        let mut start = cursor.checked_sub(1).map_or(0, |i| b.clauses[i].1);
        for &(from, end) in &b.clauses[*cursor..] {
            if from != me {
                lits.extend_from_slice(&b.lits[start..end]);
                ends.push(lits.len());
            }
            start = end;
        }
        *cursor = b.clauses.len();
    }
}

/// A solver's membership of a [`ClauseExchange`].
#[derive(Clone, Debug)]
pub(crate) struct Member {
    exchange: Arc<ClauseExchange>,
    id: u32,
    /// Exported clauses this member has already seen.
    cursor: usize,
}

impl Member {
    /// Registers a new member of `exchange`; it will import every clause
    /// exported so far.
    pub(crate) fn join(exchange: Arc<ClauseExchange>) -> Self {
        let id = exchange.register();
        Member {
            exchange,
            id,
            cursor: 0,
        }
    }

    /// Publishes a learnt clause with learn-time glue `lbd` if it is short
    /// and low-glue enough to be worth sharing.
    pub(crate) fn offer(&self, clause: &[Lit], lbd: u32) {
        if lbd <= EXPORT_MAX_LBD && clause.len() <= EXPORT_MAX_LEN {
            self.exchange.export(self.id, clause);
        }
    }

    /// The other members' clauses exported since the last call, flattened
    /// into `lits` with one end offset per clause in `ends`.
    pub(crate) fn fetch(&mut self, lits: &mut Vec<Lit>, ends: &mut Vec<usize>) {
        self.exchange.fetch(self.id, &mut self.cursor, lits, ends);
    }
}
