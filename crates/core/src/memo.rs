//! Shape-level memoization of fractal split decisions (the cold-path
//! optimisation).
//!
//! Every split choice the planner makes — SD's axis scoring, PD's
//! balanced grid — depends only on the opcode, the parameters and the
//! operand *shapes and strides*, never on absolute addresses: slicing is
//! pure offset arithmetic relative to each operand's base. K self-similar
//! sibling pieces therefore share one split computation. The memo keys
//! each decision on the canonical (offset-zeroed) form of the instruction
//! and rebases the cached outcome onto each sibling's real operand
//! addresses by translating every piece region by its operand's offset.
//! PD splits are not rebased at all: the memo hands every step of the
//! same shape one shared [`PdSplit`], and a step records only its own
//! operand offsets ([`crate::plan::Children`]).
//!
//! One [`PlanMemo`] lives for the duration of one planner client — a
//! [`crate::perf::PerfSim`] keeps one for as long as the simulator
//! lives (across programs when a [`crate::perf::SimCache`] keeps it),
//! the functional executor one per plan — so entries never outlive the
//! machine configuration they were computed under.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use crate::hash::{FxBuildHasher, FxHasher};
use crate::plan::PdSplit;

use cf_isa::{Instruction, Opcode};
use cf_ops::fractal::{PartialPiece, SplitOutcome};
use cf_tensor::Region;

/// Which planner decision an entry caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemoKind {
    /// [`Planner::parallel_split`](crate::plan::Planner) with fan-out `n`.
    Parallel {
        /// Target number of pieces.
        n: usize,
    },
    /// The best direct (non-reducing) split into `parts` pieces — the
    /// inner loop of the balanced-grid PD search.
    Direct {
        /// Number of pieces.
        parts: usize,
    },
    /// SD's axis choice at `level` under the static headroom it saw.
    Sd {
        /// Hierarchy level (the LFU op cost depends on it).
        level: usize,
        /// Static-segment bytes available (reduction feasibility).
        static_avail: u64,
    },
    /// The reduce-fallback outcome PD would take at fan-out `n` when no
    /// direct split exists — cached only for its partial footprint.
    PdFallback {
        /// Target number of pieces.
        n: usize,
    },
}

/// A cached decision, in canonical coordinates.
#[derive(Debug)]
pub(crate) enum Memoized {
    /// A split outcome (`None` = no split): SD, direct and PD-fallback
    /// decisions.
    Split(Option<SplitOutcome>),
    /// A PD split, shared as-is by every step of this shape.
    Pd(Rc<PdSplit>),
}

impl Memoized {
    /// The cached split outcome (`None` for a PD entry, which a
    /// [`MemoKind::Parallel`] probe never asks for).
    pub(crate) fn split(&self) -> &Option<SplitOutcome> {
        match self {
            Memoized::Split(outcome) => outcome,
            Memoized::Pd(_) => &None,
        }
    }

    /// The cached PD split, if this is one.
    pub(crate) fn pd(&self) -> Option<Rc<PdSplit>> {
        match self {
            Memoized::Pd(pd) => Some(Rc::clone(pd)),
            Memoized::Split(_) => None,
        }
    }

    /// Estimated heap bytes of the decision.
    fn heap_bytes(&self) -> usize {
        match self {
            Memoized::Split(None) => 0,
            Memoized::Split(Some(SplitOutcome::Direct(pieces))) => {
                pieces.iter().map(instruction_bytes).sum()
            }
            Memoized::Split(Some(SplitOutcome::Reduce { pieces, .. })) => pieces
                .iter()
                .map(|p| {
                    std::mem::size_of::<PartialPiece>()
                        + p.inputs.capacity() * std::mem::size_of::<Region>()
                        + p.partial_shapes.capacity() * std::mem::size_of::<cf_tensor::Shape>()
                })
                .sum(),
            Memoized::Pd(pd) => 2 * std::mem::size_of::<usize>() + pd.heap_bytes(),
        }
    }
}

/// Estimated bytes of an instruction held in a vector: the instruction
/// and its operand regions (shapes and strides are inline).
pub(crate) fn instruction_bytes(inst: &Instruction) -> usize {
    std::mem::size_of::<Instruction>()
        + (inst.inputs.capacity() + inst.outputs.capacity()) * std::mem::size_of::<Region>()
}

/// One cached split decision, stored in canonical coordinates.
#[derive(Debug)]
struct Entry {
    op: Opcode,
    params: [u64; 8],
    /// Per-operand (dims, strides), inputs then outputs.
    operands: Vec<(Vec<usize>, Vec<u64>)>,
    kind: MemoKind,
    /// The decision for the offset-zeroed instruction.
    value: Memoized,
}

/// Memoization table for split decisions, keyed by instruction shape.
///
/// A disabled memo turns every lookup into a miss that is not recorded,
/// which makes the planner behave exactly like the naive (pre-memo)
/// implementation — the reference for byte-identity tests.
#[derive(Debug, Default)]
pub struct PlanMemo {
    enabled: bool,
    table: RefCell<HashMap<u64, Vec<Entry>, FxBuildHasher>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    probes: Cell<u64>,
    /// Estimated heap bytes of the entries.
    bytes: Cell<u64>,
}

impl PlanMemo {
    /// An empty, enabled memo.
    pub fn new() -> Self {
        PlanMemo { enabled: true, ..Default::default() }
    }

    /// A memo that never caches: the planner recomputes every split.
    pub fn disabled() -> Self {
        PlanMemo::default()
    }

    /// Whether lookups are served.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Split decisions served from the table.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Split decisions actually computed (and inserted).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Estimated heap bytes of the cached decisions.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Table probes (`lookup` calls). Every probe must
    /// end as exactly one hit or one computed-and-inserted miss, so
    /// `probes() == hits() + misses()` once planning completes — the
    /// reconciliation invariant the property tests check.
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Looks up the canonical outcome for `(inst, kind)` and maps it
    /// under the table borrow. `None` means a miss.
    pub(crate) fn lookup<R>(
        &self,
        inst: &Instruction,
        kind: MemoKind,
        map: impl FnOnce(&Memoized) -> R,
    ) -> Option<R> {
        debug_assert!(self.enabled);
        self.probes.set(self.probes.get() + 1);
        let fp = fingerprint(inst, kind);
        let table = self.table.borrow();
        let hit = table
            .get(&fp)
            .and_then(|bucket| bucket.iter().find(|e| matches(e, inst, kind)))
            .map(|e| map(&e.value));
        if hit.is_some() {
            self.hits.set(self.hits.get() + 1);
        }
        hit
    }

    /// Records a computed canonical outcome.
    pub(crate) fn insert(&self, inst: &Instruction, kind: MemoKind, value: Memoized) {
        debug_assert!(self.enabled);
        self.misses.set(self.misses.get() + 1);
        let fp = fingerprint(inst, kind);
        let entry = Entry {
            op: inst.op,
            params: inst.params.stable_bits(),
            operands: inst
                .inputs
                .iter()
                .chain(&inst.outputs)
                .map(|r| (r.shape().dims().to_vec(), r.strides().to_vec()))
                .collect(),
            kind,
            value,
        };
        self.bytes.set(self.bytes.get() + entry.heap_bytes() as u64);
        self.table.borrow_mut().entry(fp).or_default().push(entry);
    }
}

impl Entry {
    /// Estimated heap bytes of the entry.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Entry>()
            + self
                .operands
                .iter()
                .map(|(dims, strides)| {
                    std::mem::size_of::<(Vec<usize>, Vec<u64>)>()
                        + dims.capacity() * 8
                        + strides.capacity() * 8
                })
                .sum::<usize>()
            + self.value.heap_bytes()
    }
}

/// Hash of everything a split decision can depend on. Allocation-free so
/// lookups stay cheap.
fn fingerprint(inst: &Instruction, kind: MemoKind) -> u64 {
    let mut h = FxHasher::default();
    (inst.op as u64).hash(&mut h);
    inst.params.stable_bits().hash(&mut h);
    for r in inst.inputs.iter().chain(&inst.outputs) {
        r.shape().dims().hash(&mut h);
        r.strides().hash(&mut h);
    }
    inst.inputs.len().hash(&mut h);
    match kind {
        MemoKind::Parallel { n } => (0u8, n as u64, 0u64).hash(&mut h),
        MemoKind::Sd { level, static_avail } => (1u8, level as u64, static_avail).hash(&mut h),
        MemoKind::Direct { parts } => (2u8, parts as u64, 0u64).hash(&mut h),
        MemoKind::PdFallback { n } => (3u8, n as u64, 0u64).hash(&mut h),
    }
    h.finish()
}

/// Exact key comparison against the live instruction (no allocation).
fn matches(e: &Entry, inst: &Instruction, kind: MemoKind) -> bool {
    e.kind == kind
        && e.op == inst.op
        && e.params == inst.params.stable_bits()
        && e.operands.len() == inst.inputs.len() + inst.outputs.len()
        && inst.inputs.iter().chain(&inst.outputs).zip(&e.operands).all(|(r, (dims, strides))| {
            r.shape().dims() == &dims[..] && r.strides() == &strides[..]
        })
}

/// The canonical (offset-zeroed) form of an instruction: same opcode,
/// parameters, shapes and strides, every operand based at element 0.
pub(crate) fn canonical(inst: &Instruction) -> Instruction {
    let zero = |r: &Region| Region::strided(0, r.shape().clone(), r.strides().to_vec());
    Instruction {
        op: inst.op,
        params: inst.params,
        inputs: inst.inputs.iter().map(zero).collect(),
        outputs: inst.outputs.iter().map(zero).collect(),
    }
}

/// Rebases a canonical outcome onto `inst`'s real operands: piece operand
/// `i` derives from parent operand `i`, so each region translates by the
/// parent operand's offset.
pub(crate) fn rebase(canon: &SplitOutcome, inst: &Instruction) -> SplitOutcome {
    let translate = |pieces: &[Region], bases: &[Region]| -> Vec<Region> {
        pieces.iter().zip(bases).map(|(p, b)| p.translated(b.offset())).collect()
    };
    match canon {
        SplitOutcome::Direct(pieces) => SplitOutcome::Direct(
            pieces
                .iter()
                .map(|p| Instruction {
                    op: p.op,
                    params: p.params,
                    inputs: translate(&p.inputs, &inst.inputs),
                    outputs: translate(&p.outputs, &inst.outputs),
                })
                .collect(),
        ),
        SplitOutcome::Reduce { pieces, kind } => SplitOutcome::Reduce {
            pieces: pieces
                .iter()
                .map(|p| PartialPiece {
                    op: p.op,
                    params: p.params,
                    inputs: translate(&p.inputs, &inst.inputs),
                    partial_shapes: p.partial_shapes.clone(),
                })
                .collect(),
            kind: *kind,
        },
    }
}

/// Total partial-output bytes of a canonical outcome (`Direct` ⇒ 0).
pub(crate) fn partial_bytes_of(outcome: &Option<SplitOutcome>) -> u64 {
    match outcome {
        Some(SplitOutcome::Reduce { pieces, .. }) => {
            pieces.iter().flat_map(|p| p.partial_shapes.iter()).map(cf_tensor::Shape::bytes).sum()
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_isa::{OpParams, Opcode};
    use cf_tensor::Shape;

    fn reg(offset: u64, dims: &[usize]) -> Region {
        Region::contiguous(offset, Shape::new(dims.to_vec()))
    }

    fn matmul(off: u64, m: usize, k: usize, n: usize) -> Instruction {
        Instruction::new(
            Opcode::MatMul,
            OpParams::None,
            vec![reg(off, &[m, k]), reg(off + (m * k) as u64, &[k, n])],
            vec![reg(off + (m * k + k * n) as u64, &[m, n])],
        )
        .unwrap()
    }

    #[test]
    fn siblings_share_one_entry() {
        let memo = PlanMemo::new();
        let a = matmul(0, 64, 64, 64);
        let b = matmul(1_000_000, 64, 64, 64);
        let kind = MemoKind::Parallel { n: 4 };
        assert!(memo.lookup(&a, kind, |_| ()).is_none());
        memo.insert(&a, kind, Memoized::Split(None));
        assert!(memo.lookup(&b, kind, |v| assert!(v.split().is_none())).is_some());
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    #[test]
    fn kind_and_shape_discriminate() {
        let memo = PlanMemo::new();
        let a = matmul(0, 64, 64, 64);
        memo.insert(&a, MemoKind::Parallel { n: 4 }, Memoized::Split(None));
        assert!(memo.lookup(&a, MemoKind::Parallel { n: 2 }, |_| ()).is_none());
        assert!(memo.lookup(&a, MemoKind::Sd { level: 0, static_avail: 0 }, |_| ()).is_none());
        let c = matmul(0, 64, 64, 128);
        assert!(memo.lookup(&c, MemoKind::Parallel { n: 4 }, |_| ()).is_none());
    }

    #[test]
    fn rebase_translates_by_operand_offsets() {
        let base = matmul(4096, 32, 32, 32);
        let canon = canonical(&base);
        assert!(canon.inputs.iter().all(|r| r.offset() == 0));
        // A fake "split" of the canonical instruction: the pieces are the
        // canonical operands themselves.
        let outcome = SplitOutcome::Direct(vec![canon.clone()]);
        let rebased = rebase(&outcome, &base);
        let SplitOutcome::Direct(pieces) = rebased else { panic!() };
        assert_eq!(pieces[0].inputs[0].offset(), base.inputs[0].offset());
        assert_eq!(pieces[0].inputs[1].offset(), base.inputs[1].offset());
        assert_eq!(pieces[0].outputs[0].offset(), base.outputs[0].offset());
    }
}
