//! The Tensor Transposition Table (paper §3.6).
//!
//! The TTT records which parent-memory regions are currently resident in
//! local memory (loaded by, or written back from, a recent
//! sub-instruction), so the demotion decoder can rebind an operand's
//! loading source to the local copy and elide the remote DMA entirely —
//! including the "pipeline forwarding" case where an instruction consumes
//! its predecessor's result.
//!
//! Consistency is enforced exactly as in the paper: records live in two
//! banks, each owned by one in-flight instruction, and a record is valid
//! for at most **two FISA cycles** — precisely the window during which the
//! recycled memory segment holding the data has not yet been re-filled
//! (see [`crate::memory::SegmentedAllocator`]). Writes to overlapping
//! parent regions invalidate records eagerly.

use cf_tensor::Region;

#[derive(Debug, Clone)]
struct Entry {
    parent: Region,
    local: Region,
}

/// Two-banked table of parent-region → local-region residency records.
#[derive(Debug, Clone, Default)]
pub struct Ttt {
    banks: [Vec<Entry>; 2],
    cycle: u64,
}

impl Ttt {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances to FISA cycle `cycle` (monotone). The bank owned by this
    /// cycle's parity is cleared: its records were made two cycles ago and
    /// their backing segment is about to be recycled.
    ///
    /// Call this *after* performing the cycle's lookups, mirroring the
    /// decode order of the demotion decoder.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.banks[(cycle % 2) as usize].clear();
    }

    /// Looks up a parent region; on a hit returns the local region holding
    /// a live copy. Only exact region matches forward (same offset, shape
    /// and strides) — partial overlap cannot be rebound by the DD.
    pub fn lookup(&self, parent: &Region) -> Option<&Region> {
        self.banks.iter().flat_map(|b| b.iter()).find(|e| &e.parent == parent).map(|e| &e.local)
    }

    /// Records that `parent` is now resident at `local` (either loaded or
    /// produced there). The record goes into the current cycle's bank.
    pub fn record(&mut self, parent: Region, local: Region) {
        self.banks[(self.cycle % 2) as usize].push(Entry { parent, local });
    }

    /// Invalidates every record whose parent region may overlap `written`
    /// — a new write makes stale local copies unusable.
    pub fn invalidate_overlapping(&mut self, written: &Region) {
        for bank in &mut self.banks {
            bank.retain(|e| !e.parent.may_overlap(written));
        }
    }

    /// Invalidates every record whose *local* copy lies in
    /// `[lo, hi)` — called when a recycled memory segment is about to be
    /// re-filled, so no record can outlive its backing storage.
    pub fn invalidate_local_range(&mut self, lo: u64, hi: u64) {
        for bank in &mut self.banks {
            bank.retain(|e| e.local.end() < lo || e.local.offset() >= hi);
        }
    }

    /// The live records of bank `bank`, in lookup order, as
    /// `(parent, local)`.
    pub(crate) fn bank(&self, bank: usize) -> impl Iterator<Item = (&Region, &Region)> {
        self.banks[bank].iter().map(|e| (&e.parent, &e.local))
    }

    /// The table with every record's regions moved by `f`, at FISA cycle
    /// `cycle` (of the same parity as the table's own).
    pub(crate) fn mapped(
        &self,
        f: impl Fn(&Region, &Region) -> (Region, Region),
        cycle: u64,
    ) -> Ttt {
        debug_assert_eq!(cycle % 2, self.cycle % 2);
        let map = |bank: &Vec<Entry>| {
            bank.iter()
                .map(|e| {
                    let (parent, local) = f(&e.parent, &e.local);
                    Entry { parent, local }
                })
                .collect()
        };
        Ttt { banks: [map(&self.banks[0]), map(&self.banks[1])], cycle }
    }

    /// Number of live records (diagnostics).
    pub fn len(&self) -> usize {
        self.banks.iter().map(Vec::len).sum()
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_tensor::Shape;

    fn reg(offset: u64, n: usize) -> Region {
        Region::contiguous(offset, Shape::new(vec![n]))
    }

    #[test]
    fn record_and_lookup_exact() {
        let mut t = Ttt::new();
        t.begin_cycle(0);
        t.record(reg(100, 8), reg(0, 8));
        assert_eq!(t.lookup(&reg(100, 8)), Some(&reg(0, 8)));
        // Overlapping but non-identical regions do not forward.
        assert_eq!(t.lookup(&reg(100, 4)), None);
    }

    #[test]
    fn records_expire_after_two_cycles() {
        let mut t = Ttt::new();
        t.begin_cycle(0);
        t.record(reg(100, 8), reg(0, 8));
        // Cycle 1 uses the other bank: record still visible.
        t.begin_cycle(1);
        assert!(t.lookup(&reg(100, 8)).is_some());
        // Cycle 2 reclaims bank 0: the record is gone.
        t.begin_cycle(2);
        assert!(t.lookup(&reg(100, 8)).is_none());
    }

    #[test]
    fn writes_invalidate_overlapping_records() {
        let mut t = Ttt::new();
        t.begin_cycle(0);
        t.record(reg(100, 8), reg(0, 8));
        t.record(reg(200, 8), reg(8, 8));
        t.invalidate_overlapping(&reg(104, 2));
        assert!(t.lookup(&reg(100, 8)).is_none());
        assert!(t.lookup(&reg(200, 8)).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_table() {
        let t = Ttt::new();
        assert!(t.is_empty());
        assert!(t.lookup(&reg(0, 1)).is_none());
    }
}
