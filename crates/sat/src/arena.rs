//! The flat clause arena backing the solver's clause database.
//!
//! All clauses — problem and learnt — live in **one `Vec<u32>`**: a clause is
//! a two-word header followed by its literal codes inline, and a
//! [`ClauseRef`] is nothing but the word offset of the header.  The layout is
//! the same idea MiniSat-lineage solvers use (a region allocator addressed by
//! 32-bit references) and it exists for one reason: everything that used to
//! be *per clause* becomes *per byte*.
//!
//! * **Cloning** the database — the fork primitive behind
//!   [`SatBackend::fork`](crate::SatBackend::fork) — is a single `Vec<u32>`
//!   memcpy instead of one heap allocation per clause.
//! * **Garbage collection** is an in-place compaction sweep: live clauses
//!   slide down over dead ones (the write cursor never passes the read
//!   cursor) and a relocation map translates old offsets to new ones so
//!   watcher lists can be patched instead of rebuilt.
//! * **Propagation** walks literals that are contiguous in memory, next to
//!   their header, instead of chasing a `Vec<Lit>` pointer per clause.
//!
//! # Clause layout
//!
//! ```text
//! word 0   header: size (bits 0..20) | lbd (bits 20..30, saturating)
//!                  | learnt (bit 30) | deleted (bit 31)
//! word 1   activity (f32 bit pattern)
//! word 2.. literal codes (size words)
//! ```
//!
//! # Reference stability
//!
//! A [`ClauseRef`] is stable across every operation **except**
//! [`compact`](ClauseArena::compact): allocation only appends, and deletion
//! only flips a header bit.  Compaction invalidates all old references and
//! hands the caller a relocation map (old offset → new offset, `u32::MAX`
//! for collected clauses); the solver uses it to patch watcher lists and
//! drops level-0 reason references outright.

use crate::literal::Lit;

/// Words of metadata preceding the literals of every clause (header +
/// activity).
pub(crate) const HEADER_WORDS: u32 = 2;

const SIZE_BITS: u32 = 20;
const SIZE_MASK: u32 = (1 << SIZE_BITS) - 1;
const LBD_BITS: u32 = 10;
const LBD_MASK: u32 = (1 << LBD_BITS) - 1;
const LEARNT_BIT: u32 = 1 << 30;
const DELETED_BIT: u32 = 1 << 31;

/// The offset marking a collected clause in the relocation map returned by
/// [`ClauseArena::compact`].
pub(crate) const RELOC_DEAD: u32 = u32::MAX;

/// A reference to a clause in the solver's flat clause arena: the word
/// offset of its header.
///
/// References are plain offsets, so they are `Copy`, 4 bytes wide, and
/// meaningful only for the arena that issued them.  A `ClauseRef` survives
/// everything except compaction: allocation only appends and deletion only
/// flips a header bit, while the compaction sweep of garbage collection
/// slides the surviving clauses down and invalidates every old reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// The word offset of the clause header inside the arena.
    #[must_use]
    pub fn offset(self) -> u32 {
        self.0
    }
}

/// The outcome of one [`ClauseArena::compact`] sweep.
pub(crate) struct CompactOutcome {
    /// Old header offset → new header offset; [`RELOC_DEAD`] for collected
    /// clauses.  Indexed by *old* word offset (only header offsets are
    /// meaningful).
    pub reloc: Vec<u32>,
    /// Clauses dropped (deleted, satisfied, shrunk to a unit, or emptied).
    pub collected: u64,
    /// Dropped clauses that were learnt and **not** already flagged deleted
    /// (pre-flagged clauses had their learnt-gauge accounting done when they
    /// were flagged).
    pub learnt_removed: u64,
    /// Literals of clauses that shrank to a single literal: the caller must
    /// re-enqueue them as top-level units.
    pub units: Vec<Lit>,
    /// A clause lost every literal: the formula is unsatisfiable.
    pub found_empty: bool,
    /// Clauses remaining in the arena after the sweep.
    pub survivors: usize,
    /// Words freed by the sweep.
    pub words_reclaimed: u64,
}

/// The flat clause store.  See the [module docs](self) for the layout.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseArena {
    data: Vec<u32>,
}

impl ClauseArena {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        ClauseArena::default()
    }

    /// Total words currently held (live and dead clauses alike) — the byte
    /// cost of cloning the store is `4 * words()`.
    pub(crate) fn words(&self) -> usize {
        self.data.len()
    }

    /// Appends a clause and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() as u32 <= SIZE_MASK, "clause too large");
        let cr = ClauseRef(self.data.len() as u32);
        let mut header = lits.len() as u32;
        if learnt {
            header |= LEARNT_BIT;
        }
        self.data.reserve(HEADER_WORDS as usize + lits.len());
        self.data.push(header);
        self.data.push(0.0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.code()));
        cr
    }

    #[inline]
    pub(crate) fn len(&self, cr: ClauseRef) -> usize {
        (self.data[cr.0 as usize] & SIZE_MASK) as usize
    }

    #[inline]
    pub(crate) fn lit(&self, cr: ClauseRef, index: usize) -> Lit {
        Lit::from_code(self.data[cr.0 as usize + HEADER_WORDS as usize + index])
    }

    #[inline]
    pub(crate) fn swap_lits(&mut self, cr: ClauseRef, i: usize, j: usize) {
        let base = cr.0 as usize + HEADER_WORDS as usize;
        self.data.swap(base + i, base + j);
    }

    #[inline]
    pub(crate) fn is_deleted(&self, cr: ClauseRef) -> bool {
        self.data[cr.0 as usize] & DELETED_BIT != 0
    }

    pub(crate) fn set_deleted(&mut self, cr: ClauseRef) {
        self.data[cr.0 as usize] |= DELETED_BIT;
    }

    #[inline]
    pub(crate) fn is_learnt(&self, cr: ClauseRef) -> bool {
        self.data[cr.0 as usize] & LEARNT_BIT != 0
    }

    pub(crate) fn lbd(&self, cr: ClauseRef) -> u32 {
        (self.data[cr.0 as usize] >> SIZE_BITS) & LBD_MASK
    }

    /// Stores the clause's literal-block distance, saturating at the header
    /// field width (the ranking in `reduce_db` only needs "high is bad").
    pub(crate) fn set_lbd(&mut self, cr: ClauseRef, lbd: u32) {
        let header = &mut self.data[cr.0 as usize];
        *header &= !(LBD_MASK << SIZE_BITS);
        *header |= lbd.min(LBD_MASK) << SIZE_BITS;
    }

    pub(crate) fn activity(&self, cr: ClauseRef) -> f32 {
        f32::from_bits(self.data[cr.0 as usize + 1])
    }

    pub(crate) fn set_activity(&mut self, cr: ClauseRef, activity: f32) {
        self.data[cr.0 as usize + 1] = activity.to_bits();
    }

    /// Multiplies every clause activity by `factor` (activity rescaling).
    pub(crate) fn scale_activities(&mut self, factor: f32) {
        let mut off = 0usize;
        while off < self.data.len() {
            let size = (self.data[off] & SIZE_MASK) as usize;
            let act = f32::from_bits(self.data[off + 1]) * factor;
            self.data[off + 1] = act.to_bits();
            off += HEADER_WORDS as usize + size;
        }
    }

    /// Walks every clause (live and dead) in arena order.
    pub(crate) fn refs(&self) -> ClauseRefIter<'_> {
        ClauseRefIter {
            arena: self,
            offset: 0,
        }
    }

    /// One in-place compaction sweep: drops clauses flagged deleted, clauses
    /// with a literal satisfied at the top level, and clauses that shrink to
    /// fewer than two literals after stripping top-level-falsified literals;
    /// everything else slides down in place (the write cursor never passes
    /// the read cursor, so no scratch arena is allocated).
    ///
    /// `lit_value` must report the *top-level* assignment.  Watched
    /// positions 0 and 1 of surviving clauses are guaranteed unchanged: at
    /// decision level 0, after complete propagation, a watched literal can
    /// only be unassigned (a false watch would have been moved by propagation
    /// and a true watch means the clause is satisfied and dropped here), so
    /// stripping only ever removes literals at positions ≥ 2 and the caller
    /// can relocate watcher lists through [`CompactOutcome::reloc`] without
    /// re-selecting watches.
    pub(crate) fn compact(
        &mut self,
        mut lit_value: impl FnMut(Lit) -> Option<bool>,
    ) -> CompactOutcome {
        let old_words = self.data.len();
        let mut reloc: Vec<u32> = vec![RELOC_DEAD; old_words];
        let mut collected = 0u64;
        let mut learnt_removed = 0u64;
        let mut units: Vec<Lit> = Vec::new();
        let mut found_empty = false;
        let mut survivors = 0usize;
        let mut read = 0usize;
        let mut write = 0usize;
        while read < old_words {
            let header = self.data[read];
            let size = (header & SIZE_MASK) as usize;
            let next = read + HEADER_WORDS as usize + size;
            let deleted = header & DELETED_BIT != 0;
            let learnt = header & LEARNT_BIT != 0;
            let satisfied = !deleted
                && (read + HEADER_WORDS as usize..next)
                    .any(|w| lit_value(Lit::from_code(self.data[w])) == Some(true));
            if deleted || satisfied {
                collected += 1;
                if learnt && !deleted {
                    learnt_removed += 1;
                }
                read = next;
                continue;
            }
            // Strip literals falsified at the top level while copying down.
            let activity = self.data[read + 1];
            let lit_base = write + HEADER_WORDS as usize;
            let mut kept = 0usize;
            for w in read + HEADER_WORDS as usize..next {
                let code = self.data[w];
                if lit_value(Lit::from_code(code)).is_none() {
                    self.data[lit_base + kept] = code;
                    kept += 1;
                }
            }
            match kept {
                0 => {
                    // Every literal false at the top level: the formula is
                    // unsatisfiable (cannot normally happen after complete
                    // propagation, but stay sound).
                    found_empty = true;
                    collected += 1;
                }
                1 => {
                    units.push(Lit::from_code(self.data[lit_base]));
                    collected += 1;
                    if learnt {
                        learnt_removed += 1;
                    }
                }
                _ => {
                    self.data[write] = (header & !SIZE_MASK) | kept as u32;
                    self.data[write + 1] = activity;
                    reloc[read] = write as u32;
                    write = lit_base + kept;
                    survivors += 1;
                }
            }
            read = next;
        }
        self.data.truncate(write);
        CompactOutcome {
            reloc,
            collected,
            learnt_removed,
            units,
            found_empty,
            survivors,
            words_reclaimed: (old_words - write) as u64,
        }
    }
}

/// Iterator over the clause references of an arena, in offset order.
pub(crate) struct ClauseRefIter<'a> {
    arena: &'a ClauseArena,
    offset: usize,
}

impl Iterator for ClauseRefIter<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        if self.offset >= self.arena.data.len() {
            return None;
        }
        let cr = ClauseRef(self.offset as u32);
        self.offset += HEADER_WORDS as usize + self.arena.len(cr);
        Some(cr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Var;

    fn lits(codes: &[u32]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut arena = ClauseArena::new();
        let a = Lit::pos(Var::from_index(0));
        let b = Lit::neg(Var::from_index(1));
        let cr = arena.alloc(&[a, b], false);
        assert_eq!(arena.len(cr), 2);
        assert_eq!(arena.lit(cr, 0), a);
        assert_eq!(arena.lit(cr, 1), b);
        assert!(!arena.is_learnt(cr));
        assert!(!arena.is_deleted(cr));
        assert_eq!(arena.words(), HEADER_WORDS as usize + 2);
    }

    #[test]
    fn header_fields_are_independent() {
        let mut arena = ClauseArena::new();
        let ls = lits(&[0, 2, 4]);
        let cr = arena.alloc(&ls, true);
        arena.set_lbd(cr, 7);
        arena.set_activity(cr, 1.5);
        assert_eq!(arena.len(cr), 3);
        assert_eq!(arena.lbd(cr), 7);
        assert!(arena.is_learnt(cr));
        assert_eq!(arena.activity(cr), 1.5);
        arena.set_deleted(cr);
        assert!(arena.is_deleted(cr));
        assert_eq!(arena.len(cr), 3);
        assert_eq!(arena.lbd(cr), 7);
    }

    #[test]
    fn lbd_saturates_at_the_field_width() {
        let mut arena = ClauseArena::new();
        let cr = arena.alloc(&lits(&[0, 2]), true);
        arena.set_lbd(cr, u32::MAX);
        assert_eq!(arena.lbd(cr), LBD_MASK);
    }

    #[test]
    fn refs_walk_every_clause_in_order() {
        let mut arena = ClauseArena::new();
        let c0 = arena.alloc(&lits(&[0, 2]), false);
        let c1 = arena.alloc(&lits(&[4, 6, 8]), true);
        let c2 = arena.alloc(&lits(&[1, 3]), false);
        assert_eq!(arena.refs().collect::<Vec<_>>(), vec![c0, c1, c2]);
    }

    /// The core relocation contract: compaction slides survivors down,
    /// reports old-offset → new-offset pairs, and marks collected clauses
    /// with `RELOC_DEAD`.
    #[test]
    fn compact_relocates_survivors_and_reports_dead_refs() {
        let mut arena = ClauseArena::new();
        let dead = arena.alloc(&lits(&[0, 2]), false);
        let live1 = arena.alloc(&lits(&[4, 6, 8]), false);
        let dead2 = arena.alloc(&lits(&[1, 3]), true);
        let live2 = arena.alloc(&lits(&[5, 7]), false);
        arena.set_deleted(dead);
        arena.set_deleted(dead2);
        arena.set_activity(live2, 2.5);

        let outcome = arena.compact(|_| None);
        assert_eq!(outcome.collected, 2);
        assert_eq!(outcome.survivors, 2);
        assert_eq!(
            outcome.learnt_removed, 0,
            "pre-flagged learnt not recounted"
        );
        assert_eq!(outcome.words_reclaimed, 2 * (HEADER_WORDS as u64 + 2));
        assert_eq!(outcome.reloc[dead.0 as usize], RELOC_DEAD);
        assert_eq!(outcome.reloc[dead2.0 as usize], RELOC_DEAD);
        // live1 slides into the slot of `dead`; live2 follows right after.
        let new1 = ClauseRef(outcome.reloc[live1.0 as usize]);
        let new2 = ClauseRef(outcome.reloc[live2.0 as usize]);
        assert_eq!(new1.offset(), 0);
        assert_eq!(new2.offset(), HEADER_WORDS + 3);
        assert_eq!(arena.lit(new1, 0), Lit::from_code(4));
        assert_eq!(arena.lit(new1, 2), Lit::from_code(8));
        assert_eq!(arena.lit(new2, 1), Lit::from_code(7));
        assert_eq!(arena.activity(new2), 2.5, "activity moves with the clause");
    }

    /// Stripping a falsified tail literal shrinks the clause in place without
    /// touching the watched positions 0 and 1.
    #[test]
    fn compact_strips_falsified_literals_preserving_watches() {
        let mut arena = ClauseArena::new();
        let v = |i: u32| Var::from_index(i);
        let cr = arena.alloc(&[Lit::pos(v(0)), Lit::pos(v(1)), Lit::pos(v(2))], false);
        // v2 is false at the top level, v0/v1 unassigned.
        let outcome = arena.compact(|l| (l.var() == v(2)).then_some(false));
        let moved = ClauseRef(outcome.reloc[cr.0 as usize]);
        assert_eq!(arena.len(moved), 2);
        assert_eq!(arena.lit(moved, 0), Lit::pos(v(0)));
        assert_eq!(arena.lit(moved, 1), Lit::pos(v(1)));
        assert_eq!(outcome.units.len(), 0);
        assert_eq!(outcome.words_reclaimed, 1);
    }

    #[test]
    fn compact_reports_units_and_satisfied_clauses() {
        let mut arena = ClauseArena::new();
        let v = |i: u32| Var::from_index(i);
        // Satisfied: v0 true.  Unit-after-strip: (v1 | v2) with v2 false.
        arena.alloc(&[Lit::pos(v(0)), Lit::pos(v(3))], false);
        arena.alloc(&[Lit::pos(v(1)), Lit::pos(v(2))], true);
        let outcome = arena.compact(|l| match l.var().index() {
            0 => Some(l.apply(true)),
            2 => Some(l.apply(false)),
            _ => None,
        });
        assert_eq!(outcome.survivors, 0);
        assert_eq!(outcome.collected, 2);
        assert_eq!(outcome.learnt_removed, 1);
        assert_eq!(outcome.units, vec![Lit::pos(v(1))]);
        assert_eq!(arena.words(), 0);
    }
}
