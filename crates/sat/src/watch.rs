//! Flat arena storage for the two-watched-literal occurrence lists.
//!
//! The solver used to keep one heap-allocated `Vec<Watcher>` per literal
//! (`watches: Vec<Vec<Watcher>>`), which made `Solver::clone` — what
//! [`SatBackend::fork`](crate::SatBackend::fork) copies — pay one
//! allocation *per literal*.  [`WatcherArena`] is the same flattening move [`crate::arena`]
//! made for clauses: every watcher lives in one `Vec<Watcher>` data buffer,
//! and each literal owns a contiguous `(start, len, cap)` block of it.
//! Cloning the arena is two flat memcpys, and its byte cost is O(1) length
//! arithmetic.
//!
//! # Growth and compaction
//!
//! A literal's block grows by amortised doubling: when a push finds the
//! block full, the block relocates to the end of the data buffer with twice
//! the capacity and the old slots become a *hole*.  Holes are never reused
//! by other literals — they are reclaimed in bulk by [`sweep`], which the
//! solver folds into `collect_garbage`'s existing relocation pass: one
//! filter over every block (dropping watchers of collected clauses and
//! patching survivors through the relocation map) followed by an in-place
//! slide that packs the surviving blocks back-to-back, trimming each
//! capacity to its length.  Between sweeps the buffer carries the holes and
//! the doubling slack; both are deterministic functions of the operation
//! sequence, so two solvers that executed the same operations report the
//! same [`bytes`] — the property `snapshot_bytes` needs to stay
//! schedule-invariant in flow reports.
//!
//! [`sweep`]: WatcherArena::sweep
//! [`bytes`]: WatcherArena::bytes

use crate::arena::ClauseRef;
use crate::literal::Lit;

/// One entry of a literal's watch list: the watched clause plus a cached
/// "blocker" literal whose truth proves the clause satisfied without
/// touching the arena.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watcher {
    pub(crate) clause: ClauseRef,
    pub(crate) blocker: Lit,
}

/// Padding written into slots not (yet) holding a live watcher; never read
/// through the range table.
const PAD: Watcher = Watcher {
    clause: ClauseRef(u32::MAX),
    blocker: Lit::from_code(u32::MAX),
};

/// A literal's contiguous block in the data buffer: `len` live watchers at
/// `start`, inside a reserved capacity of `cap` slots.
#[derive(Clone, Copy, Debug, Default)]
struct WatchRange {
    start: u32,
    len: u32,
    cap: u32,
}

/// All watcher lists of a solver in one flat buffer, indexed by literal
/// code.  See the [module docs](self) for the layout and growth policy.
#[derive(Clone, Debug, Default)]
pub(crate) struct WatcherArena {
    data: Vec<Watcher>,
    ranges: Vec<WatchRange>,
    /// Slots orphaned by block relocations, pending the next [`sweep`].
    ///
    /// [`sweep`]: Self::sweep
    holes: usize,
}

impl WatcherArena {
    /// Registers one more literal (an empty block); called twice per fresh
    /// variable.  Allocates no watcher storage.
    pub(crate) fn add_literal(&mut self) {
        self.ranges.push(WatchRange::default());
    }

    /// Number of live watchers in `code`'s list.
    pub(crate) fn len(&self, code: u32) -> usize {
        self.ranges[code as usize].len as usize
    }

    /// The `k`-th watcher of `code`'s list.
    pub(crate) fn get(&self, code: u32, k: usize) -> Watcher {
        let r = self.ranges[code as usize];
        debug_assert!(k < r.len as usize);
        self.data[r.start as usize + k]
    }

    /// Overwrites the `k`-th watcher of `code`'s list (the write cursor of
    /// `propagate`'s in-range compaction).
    pub(crate) fn set(&mut self, code: u32, k: usize, w: Watcher) {
        let r = self.ranges[code as usize];
        debug_assert!(k < r.len as usize);
        self.data[r.start as usize + k] = w;
    }

    /// Shrinks `code`'s list to `len` watchers (never grows).
    pub(crate) fn truncate(&mut self, code: u32, len: usize) {
        let r = &mut self.ranges[code as usize];
        debug_assert!(len as u32 <= r.len);
        r.len = len as u32;
    }

    /// Appends a watcher to `code`'s list, relocating the block with doubled
    /// capacity when it is full.  Relocation only ever moves *this*
    /// literal's block, so callers iterating a different literal's range
    /// stay valid.
    pub(crate) fn push(&mut self, code: u32, w: Watcher) {
        if self.ranges[code as usize].len == self.ranges[code as usize].cap {
            self.grow(code);
        }
        let r = self.ranges[code as usize];
        self.data[(r.start + r.len) as usize] = w;
        self.ranges[code as usize].len += 1;
    }

    fn grow(&mut self, code: u32) {
        let r = self.ranges[code as usize];
        let new_cap = (r.cap * 2).max(4);
        let new_start = self.data.len() as u32;
        // Move the live prefix to the end of the buffer, then pad out to the
        // new capacity; the old block becomes a hole until the next sweep.
        self.data
            .extend_from_within(r.start as usize..(r.start + r.len) as usize);
        self.data.resize(new_start as usize + new_cap as usize, PAD);
        self.holes += r.cap as usize;
        self.ranges[code as usize] = WatchRange {
            start: new_start,
            len: r.len,
            cap: new_cap,
        };
    }

    /// Removes the `k`-th watcher of `code`'s list by swapping the last live
    /// watcher into its slot — O(1), order not preserved (watch-list order
    /// carries no semantics; the resulting order is still a deterministic
    /// function of the operation sequence).
    pub(crate) fn swap_remove(&mut self, code: u32, k: usize) {
        let r = self.ranges[code as usize];
        debug_assert!(k < r.len as usize);
        let last = (r.start + r.len - 1) as usize;
        self.data.swap(r.start as usize + k, last);
        self.ranges[code as usize].len -= 1;
    }

    /// Removes the watcher for clause `cr` from `code`'s list (swap-remove;
    /// a live clause has exactly one watcher per watched literal).
    pub(crate) fn detach(&mut self, code: u32, cr: ClauseRef) {
        for k in 0..self.len(code) {
            if self.get(code, k).clause == cr {
                self.swap_remove(code, k);
                return;
            }
        }
        debug_assert!(false, "detach: clause {cr:?} not watched under {code}");
    }

    /// Filters every list through `keep` (which may patch the watcher in
    /// place — the GC relocation map does) and then compacts the buffer:
    /// surviving blocks slide down over holes and slack, each capacity is
    /// trimmed to its length, and the buffer is truncated.  Folded into
    /// `Solver::collect_garbage`'s relocation sweep so watcher memory is
    /// reclaimed on the same cadence as arena words.
    pub(crate) fn sweep(&mut self, mut keep: impl FnMut(&mut Watcher) -> bool) {
        for code in 0..self.ranges.len() {
            let r = self.ranges[code];
            let mut write = 0u32;
            for k in 0..r.len {
                let mut w = self.data[(r.start + k) as usize];
                if keep(&mut w) {
                    self.data[(r.start + write) as usize] = w;
                    write += 1;
                }
            }
            self.ranges[code].len = write;
        }
        // Blocks were allocated at unique, disjoint offsets; sliding them in
        // ascending start order never overlaps a not-yet-moved block.
        let mut blocks: Vec<(u32, u32)> = self
            .ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| r.cap > 0)
            .map(|(code, r)| (r.start, code as u32))
            .collect();
        blocks.sort_unstable();
        let mut write = 0usize;
        for (start, code) in blocks {
            let len = self.ranges[code as usize].len as usize;
            let start = start as usize;
            if len > 0 && write != start {
                self.data.copy_within(start..start + len, write);
            }
            self.ranges[code as usize] = WatchRange {
                start: write as u32,
                len: len as u32,
                cap: len as u32,
            };
            write += len;
        }
        self.data.truncate(write);
        self.holes = 0;
    }

    /// The byte cost of cloning this arena — O(1) length arithmetic over the
    /// data buffer (live watchers, doubling slack and pending holes alike)
    /// and the per-literal range table.
    pub(crate) fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<Watcher>()
            + self.ranges.len() * std::mem::size_of::<WatchRange>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(clause: u32, blocker: u32) -> Watcher {
        Watcher {
            clause: ClauseRef(clause),
            blocker: Lit::from_code(blocker),
        }
    }

    fn list(arena: &WatcherArena, code: u32) -> Vec<u32> {
        (0..arena.len(code))
            .map(|k| arena.get(code, k).clause.0)
            .collect()
    }

    #[test]
    fn push_grows_blocks_by_doubling_and_leaves_holes() {
        let mut a = WatcherArena::default();
        a.add_literal();
        a.add_literal();
        for i in 0..5 {
            a.push(0, w(i, 0));
        }
        a.push(1, w(100, 1));
        assert_eq!(list(&a, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(list(&a, 1), vec![100]);
        // Block 0 grew 0 -> 4 -> 8 (one hole of 4 slots), block 1 is cap 4.
        assert_eq!(a.holes, 4);
        assert_eq!(a.data.len(), 4 + 8 + 4);
    }

    #[test]
    fn swap_remove_and_detach_drop_entries_in_place() {
        let mut a = WatcherArena::default();
        a.add_literal();
        for i in 0..4 {
            a.push(0, w(i, 0));
        }
        a.swap_remove(0, 1);
        assert_eq!(list(&a, 0), vec![0, 3, 2]);
        a.detach(0, ClauseRef(3));
        assert_eq!(list(&a, 0), vec![0, 2]);
    }

    #[test]
    fn sweep_filters_patches_and_packs_the_buffer() {
        let mut a = WatcherArena::default();
        for _ in 0..3 {
            a.add_literal();
        }
        for i in 0..5 {
            a.push(0, w(i, 0));
        }
        for i in 10..12 {
            a.push(2, w(i, 2));
        }
        assert!(a.holes > 0);
        // Drop odd clauses, shift the survivors down by one.
        a.sweep(|watcher| {
            if watcher.clause.0 % 2 == 1 {
                return false;
            }
            watcher.clause = ClauseRef(watcher.clause.0 - (watcher.clause.0 > 0) as u32);
            true
        });
        assert_eq!(list(&a, 0), vec![0, 1, 3]);
        assert_eq!(list(&a, 1), Vec::<u32>::new());
        assert_eq!(list(&a, 2), vec![9]);
        // Packed: no holes, no slack, buffer trimmed to the live count.
        assert_eq!(a.holes, 0);
        assert_eq!(a.data.len(), 4);
        assert_eq!(
            a.bytes(),
            (4 * std::mem::size_of::<Watcher>() + 3 * std::mem::size_of::<WatchRange>()) as u64
        );
    }

    #[test]
    fn bytes_is_a_pure_function_of_the_operation_sequence() {
        let build = || {
            let mut a = WatcherArena::default();
            for _ in 0..4 {
                a.add_literal();
            }
            for i in 0..7 {
                a.push(i % 3, w(i, 0));
            }
            a.swap_remove(0, 0);
            a
        };
        assert_eq!(build().bytes(), build().bytes());
        // Removing an entry does not shrink the buffer; only sweep does.
        let mut a = build();
        let before = a.bytes();
        a.swap_remove(1, 0);
        assert_eq!(a.bytes(), before);
        a.sweep(|_| true);
        assert!(a.bytes() < before);
    }
}
