//! The node controller (paper §3.3): sequential decomposition (SD),
//! demotion (DD), parallel decomposition (PD) and the reduction controller
//! (RC), expressed as a *planner* that turns one incoming FISA instruction
//! into a [`NodePlan`] — a sequence of pipeline [`Step`]s.
//!
//! The same plan drives both execution modes: the functional executor
//! ([`crate::exec`]) performs the plan's DMA and kernels on real memories;
//! the performance simulator ([`crate::perf`]) times the identical plan.
//!
//! Address spaces: an incoming instruction's operands live in the *parent*
//! memory. DD allocates local blocks in the recycled segments and emits
//! [`DmaOp`]s; SD-generated intermediates (partials of an output-dependent
//! sequential split) live in the *static* segment (§3.5); children receive
//! instructions whose operands live in this node's local memory.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use cf_isa::{Instruction, Opcode};
use cf_ops::cost;
use cf_ops::fractal::{ReduceKind, SplitOutcome};
use cf_tensor::{Region, Shape, ELEM_BYTES};

use crate::arena::PlanArena;
use crate::hash::FxBuildHasher;
use crate::memo::{self, MemoKind, Memoized, PlanMemo};
use crate::memory::{SegmentedAllocator, RECYCLED_SEGMENTS};
use crate::ttt::Ttt;
use crate::{CoreError, MachineConfig};

/// Which memory a region belongs to during planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The parent node's memory (or the global memory at the root).
    Parent,
    /// This node's local memory.
    Local,
}

/// One DMA transfer between the parent memory and this node's local memory.
#[derive(Debug, Clone, PartialEq)]
pub struct DmaOp {
    /// Region in the parent memory.
    pub parent: Region,
    /// Region in this node's local memory (always contiguous).
    pub local: Region,
}

impl DmaOp {
    /// Transfer size in bytes.
    pub fn bytes(&self) -> u64 {
        self.parent.bytes()
    }
}

/// A sub-instruction assigned to one FFU slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildInst {
    /// The instruction, operands in this node's local memory.
    pub inst: Instruction,
    /// Inputs the assigned child already holds locally from the previous
    /// one or two steps (cross-cycle TTT forwarding at the child — a
    /// performance-model annotation; the functional executor re-loads).
    pub resident_inputs: Vec<bool>,
    /// For each input, the number of sibling pieces of this step that use
    /// the *identical* region (≥ 1). Counts > 1 are candidates for the
    /// data-broadcasting optimisation (§3.6): the region is served from
    /// local memory once per group instead of once per piece.
    pub shared_inputs: Vec<u32>,
}

/// A reduction `g(·)` scheduled by the reduction controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceStep {
    /// The retrieving operator.
    pub kind: ReduceKind,
    /// Per-piece partial regions, in this node's local memory.
    pub partials: Vec<Vec<Region>>,
    /// Where the combined result goes.
    pub outputs: Vec<Region>,
    /// Address space of `outputs` (`Parent` for SD-level reductions that
    /// stream straight back; `Local` for PD-level reductions that are
    /// written back by the step's WB).
    pub output_space: Space,
    /// Whether the LFU executes it (`false` ⇒ commissioned to FFUs via the
    /// commission register, e.g. on LFU-less levels).
    pub on_lfu: bool,
    /// Scalar-operation estimate for timing.
    pub ops: u64,
}

/// A parallel decomposition in canonical coordinates: the pieces of the
/// zero-based form of a step's local instruction (every operand moved to
/// offset 0, shapes and strides kept).
///
/// Splitting depends only on shapes, so one `PdSplit` serves every step
/// whose local instruction has the same shape — the shape memo hands out
/// the same `Rc` to all of them, and a step only records where its own
/// operands live ([`Children`]). Addresses are produced on demand by
/// [`Step::child`].
#[derive(Debug)]
pub struct PdSplit {
    /// Process-unique identity: two steps with the same id share pieces.
    id: u64,
    /// Zero-based pieces; piece operand `k` is a slice of parent operand
    /// `k`. A reduce split's piece outputs are zero-based partials whose
    /// real regions the step's [`ReduceStep::partials`] hold.
    pieces: Vec<Instruction>,
    /// Per piece and input: how many sibling pieces read the identical
    /// region (see [`ChildInst::shared_inputs`]).
    shared: Vec<Vec<u32>>,
    /// The retrieving operator of an output-dependent split.
    reduce: Option<ReduceKind>,
    /// Per input, its smallest piece's bytes: above a child's residency
    /// cap, no piece's copy of that input can be resident.
    min_input_bytes: Vec<u64>,
    /// Per piece, the first piece of its class — the same operand shapes,
    /// strides and share counts, so the same child signature up to
    /// residency. A regular grid has at most two extents per axis, so a
    /// few classes cover every piece.
    class: Vec<usize>,
}

static NEXT_SPLIT_ID: AtomicU64 = AtomicU64::new(1);

/// Splits are equal when their pieces are: the id only names an
/// allocation, and every other field derives from the pieces.
impl PartialEq for PdSplit {
    fn eq(&self, other: &Self) -> bool {
        self.pieces == other.pieces && self.reduce == other.reduce
    }
}

impl PdSplit {
    /// The split of `inst` that `outcome` describes, with every piece
    /// operand rebased from `inst`'s operand offsets to zero. No split
    /// (`None`) hands the whole instruction to one child.
    fn new(inst: &Instruction, outcome: Option<SplitOutcome>) -> Self {
        let unbase = |pieces: Vec<Region>, bases: &[Region]| -> Vec<Region> {
            pieces
                .into_iter()
                .zip(bases)
                .map(|(p, b)| p.with_offset(p.offset() - b.offset()))
                .collect()
        };
        let (pieces, reduce): (Vec<Instruction>, _) = match outcome {
            None => (vec![memo::canonical(inst)], None),
            Some(SplitOutcome::Direct(pieces)) => (
                pieces
                    .into_iter()
                    .map(|p| Instruction {
                        op: p.op,
                        params: p.params,
                        inputs: unbase(p.inputs, &inst.inputs),
                        outputs: unbase(p.outputs, &inst.outputs),
                    })
                    .collect(),
                None,
            ),
            Some(SplitOutcome::Reduce { pieces, kind }) => (
                pieces
                    .into_iter()
                    .map(|p| Instruction {
                        op: p.op,
                        params: p.params,
                        inputs: unbase(p.inputs, &inst.inputs),
                        outputs: p
                            .partial_shapes
                            .into_iter()
                            .map(|s| Region::contiguous(0, s))
                            .collect(),
                    })
                    .collect(),
                Some(kind),
            ),
        };
        let shared = share_counts(&pieces);
        let min_input_bytes = (0..inst.inputs.len())
            .map(|i| pieces.iter().map(|p| p.inputs[i].bytes()).min().unwrap_or(0))
            .collect();
        let class = (0..pieces.len())
            .map(|i| {
                let (p, s) = (&pieces[i], &shared[i]);
                (0..i).find(|&j| shared[j] == *s && same_shape(&pieces[j], p)).unwrap_or(i)
            })
            .collect();
        let id = NEXT_SPLIT_ID.fetch_add(1, Ordering::Relaxed);
        PdSplit { id, pieces, shared, reduce, min_input_bytes, class }
    }

    /// The first piece of piece `slot`'s class.
    pub(crate) fn class(&self, slot: usize) -> usize {
        self.class[slot]
    }

    /// Identity for the simulator's step memo.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Number of pieces (children).
    pub(crate) fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Zero-based piece `slot`: its opcode, parameters and operand shapes
    /// are the child's, its offsets are not.
    pub fn piece(&self, slot: usize) -> &Instruction {
        &self.pieces[slot]
    }

    /// Sharing counts of piece `slot`'s inputs.
    pub fn shared(&self, slot: usize) -> &[u32] {
        &self.shared[slot]
    }

    /// Estimated heap bytes of the split, pieces included.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<PdSplit>()
            + self.pieces.iter().map(memo::instruction_bytes).sum::<usize>()
            + self
                .shared
                .iter()
                .map(|s| std::mem::size_of::<Vec<u32>>() + s.capacity() * 4)
                .sum::<usize>()
            + self.min_input_bytes.capacity() * 8
            + self.class.capacity() * 8
    }
}

/// Whether two instructions have the same opcode, parameters, operand
/// shapes and strides (offsets aside).
fn same_shape(a: &Instruction, b: &Instruction) -> bool {
    let same = |x: &[Region], y: &[Region]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(r, q)| r.shape() == q.shape() && r.strides() == q.strides())
    };
    a.op == b.op
        && a.params == b.params
        && same(&a.inputs, &b.inputs)
        && same(&a.outputs, &b.outputs)
}

/// Share count per (input index, region): how many sibling pieces read
/// the identical region. Pieces are few (at most the fan-out), so a
/// linear probe per input position beats hashing whole regions — the
/// offset comparison rejects distinct regions on the first word.
fn share_counts(pieces: &[Instruction]) -> Vec<Vec<u32>> {
    let mut groups: Vec<Vec<(&Region, u32)>> = Vec::new();
    for p in pieces {
        for (i, r) in p.inputs.iter().enumerate() {
            if groups.len() <= i {
                groups.resize_with(i + 1, Vec::new);
            }
            match groups[i].iter_mut().find(|(g, _)| *g == r) {
                Some((_, c)) => *c += 1,
                None => groups[i].push((r, 1)),
            }
        }
    }
    pieces
        .iter()
        .map(|p| {
            p.inputs
                .iter()
                .enumerate()
                .map(|(i, r)| groups[i].iter().find(|(g, _)| *g == r).map(|(_, c)| *c).unwrap_or(1))
                .collect()
        })
        .collect()
}

/// The EX-stage children of one step: a shared [`PdSplit`] placed on this
/// step's local instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Children {
    /// The split, in canonical coordinates.
    pub split: Rc<PdSplit>,
    /// The local instruction the pieces slice: piece operand `k` sits at
    /// its zero-based offset plus operand `k`'s offset here.
    pub inst: Instruction,
    /// Per child, bit `i` set ⇔ input `i` is resident at the child (see
    /// [`ChildInst::resident_inputs`]).
    pub resident: Vec<u32>,
}

/// One pipeline step (one FISA cycle at this node).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Step {
    /// LD-stage DMA transfers (TTT-elided loads are *not* listed).
    pub loads: Vec<DmaOp>,
    /// Bytes of loads elided by the Tensor Transposition Table.
    pub elided_bytes: u64,
    /// EX-stage sub-instructions (round-robin over the FFUs), in compact
    /// form; [`Step::child`] materialises one with addresses.
    pub children: Option<Children>,
    /// Work executed on this node itself: the kernel at a leaf, or an
    /// LFU-routed low-intensity instruction at an inner node
    /// (operands in local memory).
    pub local_exec: Option<Instruction>,
    /// A streaming operation executed against parent memory without local
    /// staging (`Merge1D` — merges stream through the node).
    pub streaming_exec: Option<Instruction>,
    /// RD-stage reduction.
    pub reduce: Option<ReduceStep>,
    /// WB-stage DMA transfers.
    pub stores: Vec<DmaOp>,
    /// Read-after-write dependency on the previous step that survived TTT
    /// forwarding: LD must wait for the predecessor's WB.
    pub raw_dep_prev: bool,
}

impl Step {
    /// Number of EX-stage sub-instructions.
    pub fn child_count(&self) -> usize {
        self.children.as_ref().map_or(0, |c| c.split.len())
    }

    /// The sub-instruction assigned to FFU slot `slot`, with its operands
    /// in this node's local memory.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.child_count()`.
    pub fn child(&self, slot: usize) -> ChildInst {
        let c = self.children.as_ref().expect("step has no children");
        let piece = c.split.piece(slot);
        let n_in = piece.inputs.len();
        let place = |k: usize| {
            let (r, d) = self.placed(slot, k);
            r.translated(d)
        };
        ChildInst {
            inst: Instruction {
                op: piece.op,
                params: piece.params,
                inputs: (0..n_in).map(place).collect(),
                outputs: (n_in..n_in + piece.outputs.len()).map(place).collect(),
            },
            resident_inputs: mask_bits(c.resident[slot], n_in),
            shared_inputs: c.split.shared(slot).to_vec(),
        }
    }

    /// Every sub-instruction, materialised in slot order.
    pub fn child_insts(&self) -> Vec<ChildInst> {
        (0..self.child_count()).map(|slot| self.child(slot)).collect()
    }

    /// Operand `k` (inputs, then outputs) of the child in `slot`, as a
    /// region and the offset that places it in local memory.
    fn placed(&self, slot: usize, k: usize) -> (&Region, u64) {
        let c = self.children.as_ref().expect("step has no children");
        let piece = c.split.piece(slot);
        let n_in = piece.inputs.len();
        match (k.checked_sub(n_in), &self.reduce) {
            (None, _) => (&piece.inputs[k], c.inst.inputs[k].offset()),
            (Some(o), Some(r)) if c.split.reduce.is_some() => (&r.partials[slot][o], 0),
            (Some(o), _) => (&piece.outputs[o], c.inst.outputs[o].offset()),
        }
    }

    /// The local region operand `k` of every child lies within, or `None`
    /// for PD partials (allocated per piece, anywhere in the segment).
    fn operand_span(&self, k: usize) -> Option<&Region> {
        let c = self.children.as_ref()?;
        match k.checked_sub(c.inst.inputs.len()) {
            None => Some(&c.inst.inputs[k]),
            Some(_) if c.split.reduce.is_some() => None,
            Some(o) => Some(&c.inst.outputs[o]),
        }
    }
}

/// The first `n` bits of `mask`, as booleans.
pub(crate) fn mask_bits(mask: u32, n: usize) -> Vec<bool> {
    (0..n).map(|i| i < 32 && mask & (1 << i) != 0).collect()
}

/// The planned execution of one incoming instruction at one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePlan {
    /// Pipeline steps, in order.
    pub steps: Vec<Step>,
    /// Local-memory elements the plan actually touches (what a functional
    /// run must materialise).
    pub local_elems: u64,
}

/// A node plan in run-length form, as the memoised simulator times it:
/// the steps the planner materialised, and the step sequence as runs
/// over them and over reused blocks of them.
///
/// A block is the step sequence of one sequential-decomposition subtree.
/// The planner builds a block (or a single step) once per reuse key —
/// shape, allocator state and the carried state that can reach it (see
/// `Build::key`) — and every later occurrence names it instead of
/// planning it again. Flattened, the runs list the explicit plan's steps
/// in order, each up to where its operands sit; timing reads no address.
#[derive(Debug)]
pub(crate) struct RunPlan {
    /// Materialised steps, in order of first appearance.
    pub(crate) steps: Vec<Step>,
    /// Reused blocks, each a list of runs.
    pub(crate) blocks: Vec<Vec<Run>>,
    /// The whole step sequence.
    pub(crate) runs: Vec<Run>,
}

/// What a [`Run`] repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    /// A materialised step: an index into [`RunPlan::steps`].
    Step(usize),
    /// A block: an index into [`RunPlan::blocks`].
    Block(usize),
}

/// `count` back-to-back occurrences of `entry`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) entry: Entry,
    pub(crate) count: u64,
}

/// Appends `count` occurrences of `entry`, extending the last run when it
/// repeats the same entry.
fn push_run(runs: &mut Vec<Run>, entry: Entry, count: u64) {
    match runs.last_mut() {
        Some(r) if r.entry == entry => r.count += count,
        _ => runs.push(Run { entry, count }),
    }
}

// ---------------------------------------------------------------------------

/// An instruction whose operands may live in either space (the SD output).
#[derive(Debug, Clone)]
struct SdInst {
    inst: Instruction,
    input_space: Vec<Space>,
    output_space: Vec<Space>,
}

impl SdInst {
    fn all_parent(inst: Instruction) -> Self {
        let input_space = vec![Space::Parent; inst.inputs.len()];
        let output_space = vec![Space::Parent; inst.outputs.len()];
        SdInst { inst, input_space, output_space }
    }

    /// Every operand with its space, inputs then outputs: the frame a
    /// block built over this instruction translates with.
    fn frame(&self) -> impl Iterator<Item = (Space, &Region)> {
        let spaces = self.input_space.iter().chain(&self.output_space).copied();
        spaces.zip(self.inst.inputs.iter().chain(&self.inst.outputs))
    }
}

/// One of a node's last two steps, as DD and residency read it.
#[derive(Debug)]
enum Prev {
    /// A materialised step: an index into [`Build::steps`].
    Planned(usize),
    /// A reused step, translated to where it now sits (its stores,
    /// children and reduction only).
    Copy(Box<Step>),
}

/// An operand's space and bounding interval `[offset, end]` (as
/// [`Region::may_overlap`] reads it).
type Span = (Space, u64, u64);

/// Where `r` lies among the `frame` spans of `space`: inside span `k`
/// (`Some(k)`), clear of all of them (`None`), or across a span's edge
/// (`Err`), where translation could change what it overlaps.
fn locate(frame: &[Span], space: Space, r: &Region) -> Result<Option<usize>, ()> {
    let overlaps = |&(s, lo, hi): &Span| s == space && lo <= r.end() && r.offset() <= hi;
    match frame.iter().position(overlaps) {
        None => Ok(None),
        Some(k) if frame[k].1 <= r.offset() && r.end() <= frame[k].2 => Ok(Some(k)),
        Some(_) => Err(()),
    }
}

/// What a recurring [`Build::key`] names: a block of steps or one step,
/// built over operands spanning `frame` from FISA cycle `start_cycle`.
#[derive(Debug)]
struct Reuse {
    frame: Vec<Span>,
    start_cycle: usize,
    what: Reused,
}

#[derive(Debug)]
enum Reused {
    /// A block: an index into [`Build::blocks`], its FISA cycles, and its
    /// last two steps (oldest first) and TTT — the state the next step
    /// reads, in the frame's coordinates.
    Block { block: usize, inst_steps: usize, tail: Vec<Step>, ttt: Ttt },
    /// One instruction step: an index into [`Build::steps`].
    Step(usize),
}

/// The planner's working state for one node plan: the allocator, the
/// TTT and the cycle count DD carries from step to step, the last two
/// steps, and the plan built so far.
struct Build<'m> {
    level: usize,
    base: u64,
    resident_base: bool,
    memo: &'m PlanMemo,
    arena: &'m PlanArena,
    alloc: SegmentedAllocator,
    ttt: Ttt,
    /// FISA cycles advance on instruction steps only: reduce steps
    /// allocate no recycled memory, so counting them would let a
    /// still-valid TTT record's segment be recycled under it.
    inst_cycle: usize,
    /// The last two steps, most recent last.
    tail: Vec<Prev>,
    steps: Vec<Step>,
    blocks: Vec<Vec<Run>>,
    /// Runs of the block being built (the whole plan at the outermost
    /// level).
    open: Vec<Run>,
    /// Built blocks and steps by key; `None` materialises every step.
    reuse: Option<HashMap<Vec<u64>, Rc<Reuse>, FxBuildHasher>>,
}

impl Build<'_> {
    /// The step `back` places before the next one (0 = the last).
    fn prev(&self, back: usize) -> Option<&Step> {
        let i = self.tail.len().checked_sub(back + 1)?;
        Some(match &self.tail[i] {
            Prev::Planned(s) => &self.steps[*s],
            Prev::Copy(s) => s.as_ref(),
        })
    }

    fn push_tail(&mut self, p: Prev) {
        if self.tail.len() == 2 {
            self.tail.remove(0);
        }
        self.tail.push(p);
    }

    fn push_step(&mut self, step: Step) {
        let idx = self.steps.len();
        self.steps.push(step);
        push_run(&mut self.open, Entry::Step(idx), 1);
        self.push_tail(Prev::Planned(idx));
    }

    /// The reuse key of a block or step about to be built over `sd`, or
    /// `None` when it cannot be reused: its same-space operands overlap,
    /// or a carried region straddles an operand's edge.
    ///
    /// The key is everything the steps depend on besides where the
    /// operands sit and which recycled segment the first step uses: the
    /// canonical instruction and spaces, the allocator state (static
    /// stack depths, parity, TTT bank parity), and the carried state that
    /// can reach the steps — live TTT records of regions inside an
    /// operand, the last step's stores, and those of the last two steps'
    /// child operands that lie in a local operand or that a TTT record
    /// could hand over. Regions inside an operand are rebased to it;
    /// other local regions have their recycled segment numbered from the
    /// first step's. A parent region outside every operand can neither
    /// equal nor overlap anything the steps touch.
    fn key(&self, sd: &SdInst, parity: bool) -> Option<(Vec<u64>, Vec<Span>)> {
        let frame: Vec<Span> = sd.frame().map(|(s, r)| (s, r.offset(), r.end())).collect();
        for (i, a) in frame.iter().enumerate() {
            if frame[..i].iter().any(|b| a.0 == b.0 && a.1 <= b.2 && b.1 <= a.2) {
                return None;
            }
        }
        let mut key = vec![
            sd.inst.op as u64,
            sd.inst.inputs.len() as u64,
            parity as u64,
            self.alloc.static_mark(false),
            self.alloc.static_mark(true),
            (self.inst_cycle % 2) as u64,
        ];
        key.extend(sd.inst.params.stable_bits());
        for (s, r) in sd.frame() {
            push_region(&mut key, s as u64, 0, r);
        }
        // Recycled segments numbered from the one the first step uses.
        let unrotate = RECYCLED_SEGMENTS - self.inst_cycle % RECYCLED_SEGMENTS;
        let seg = self.alloc.segment_elems();
        let push = |key: &mut Vec<u64>, space: Space, r: &Region| -> Option<bool> {
            match locate(&frame, space, r).ok()? {
                Some(k) => push_region(key, k as u64, r.offset() - frame[k].1, r),
                None if space == Space::Local => {
                    push_region(key, u64::MAX, rotate(r, self.base, seg, unrotate).offset(), r)
                }
                None => return Some(false),
            }
            Some(true)
        };
        // Loads lie inside input operands, and same-space operands are
        // apart: only a TTT record of a region inside an input can be
        // looked up, and only a store overlapping an input can hold up a
        // load.
        let inputs = &frame[..sd.inst.inputs.len()];
        let mut handed = Vec::new();
        for bank in 0..2 {
            key.push(u64::MAX - 1);
            for (parent, local) in self.ttt.bank(bank) {
                if let Ok(Some(k)) = locate(inputs, Space::Parent, parent) {
                    push_region(&mut key, k as u64, parent.offset() - frame[k].1, parent);
                    push(&mut key, Space::Local, local)?;
                    handed.push(local);
                }
            }
        }
        key.push(u64::MAX - 2);
        for s in self.prev(0).iter().flat_map(|p| &p.stores) {
            if let Some(k) = locate(inputs, Space::Parent, &s.parent).ok()? {
                push_region(&mut key, k as u64, s.parent.offset() - frame[k].1, &s.parent);
            }
        }
        // Children read local operands, TTT-handed regions, or fresh
        // allocations in their own step's segment; of the two last steps,
        // only the first two instruction steps here can still meet. So no
        // other operand of an earlier child can equal one they are placed
        // at.
        let fresh = |r: &Region| {
            (0..2).any(|i| {
                let lo = self.base + ((self.inst_cycle + i) % RECYCLED_SEGMENTS) as u64 * seg;
                r.offset() < lo + seg && lo <= r.end()
            })
        };
        for back in [1, 0] {
            key.push(u64::MAX - 3);
            let Some(prev) = self.prev(back) else { continue };
            let Some(c) = &prev.children else { continue };
            let partials = match (c.split.reduce, &prev.reduce) {
                (Some(_), Some(red)) => &red.partials[..],
                _ => &[],
            };
            let operands =
                c.inst.inputs.iter().chain(&c.inst.outputs).chain(partials.iter().flatten());
            let mut split = Some(c.split.id());
            for (k, r) in operands.enumerate() {
                let inside = locate(&frame, Space::Local, r).ok()?.is_some();
                if inside || fresh(r) || handed.iter().any(|h| h.may_overlap(r)) {
                    key.extend(split.take());
                    key.push(k as u64);
                    push(&mut key, Space::Local, r)?;
                }
            }
        }
        Some((key, frame))
    }

    /// Records what was just built over `frame` from FISA cycle
    /// `start_cycle` — `runs` of steps — for reuse: a single instruction
    /// step always, and a block of two or more FISA cycles when what it
    /// leaves behind lies wholly inside or wholly outside its operands
    /// (every TTT record and both last steps are then its own, so the
    /// state it leaves depends on its own steps only). Returns the block
    /// the runs became, if any.
    fn capture(
        &mut self,
        key: Vec<u64>,
        frame: Vec<Span>,
        runs: &[Run],
        start_cycle: usize,
    ) -> Option<usize> {
        let inst_steps = self.inst_cycle - start_cycle;
        let what = match runs {
            [Run { entry: Entry::Step(step), count: 1 }] if inst_steps == 1 => Reused::Step(*step),
            _ if inst_steps >= 2 => {
                let movable = |space: Space, r: &Region| locate(&frame, space, r).is_ok();
                let tail: Vec<Step> =
                    [1, 0].iter().filter_map(|&back| self.prev(back)).map(tail_step).collect();
                let ok = tail.iter().all(|s| step_regions(s).all(|(space, r)| movable(space, r)))
                    && (0..2).all(|b| {
                        self.ttt
                            .bank(b)
                            .all(|(p, l)| movable(Space::Parent, p) && movable(Space::Local, l))
                    });
                if !ok {
                    return None;
                }
                self.blocks.push(runs.to_vec());
                Reused::Block {
                    block: self.blocks.len() - 1,
                    inst_steps,
                    tail,
                    ttt: self.ttt.clone(),
                }
            }
            _ => return None,
        };
        let block = match what {
            Reused::Block { block, .. } => Some(block),
            Reused::Step(_) => None,
        };
        self.reuse.as_mut()?.insert(key, Rc::new(Reuse { frame, start_cycle, what }));
        block
    }

    /// Replays `r` over `sd`: names its block or step in the open runs
    /// and brings the carried state to what building it here would leave,
    /// moved to where `sd`'s operands sit and to the recycled segments it
    /// now runs in.
    fn replay(&mut self, r: &Reuse, sd: &SdInst) {
        let by = (self.inst_cycle + RECYCLED_SEGMENTS - r.start_cycle % RECYCLED_SEGMENTS)
            % RECYCLED_SEGMENTS;
        let shift: Vec<i64> =
            sd.frame().zip(&r.frame).map(|((_, n), o)| n.offset() as i64 - o.1 as i64).collect();
        let (base, seg) = (self.base, self.alloc.segment_elems());
        let mv = |space: Space, reg: &Region| match locate(&r.frame, space, reg) {
            Ok(Some(k)) => reg.with_offset(reg.offset().wrapping_add_signed(shift[k])),
            _ if space == Space::Local => rotate(reg, base, seg, by),
            _ => reg.clone(),
        };
        match &r.what {
            Reused::Block { block, inst_steps, tail, ttt } => {
                push_run(&mut self.open, Entry::Block(*block), 1);
                self.inst_cycle += inst_steps;
                let cycle = (self.inst_cycle - 1) as u64;
                let tail = tail.iter().map(|s| Prev::Copy(Box::new(map_step(s, &mv)))).collect();
                self.ttt = ttt.mapped(|p, l| (mv(Space::Parent, p), mv(Space::Local, l)), cycle);
                self.tail = tail;
            }
            Reused::Step(i) => {
                // The TTT bookkeeping of `emit_inst`, on the moved DMA.
                let step = &self.steps[*i];
                let dma = |d: &DmaOp| (mv(Space::Parent, &d.parent), mv(Space::Local, &d.local));
                let loads: Vec<_> = step.loads.iter().map(dma).collect();
                let stores: Vec<_> = step.stores.iter().map(dma).collect();
                let copy = map_step(&tail_step(step), &mv);
                let idx = self.inst_cycle;
                self.inst_cycle += 1;
                let lo = (idx % RECYCLED_SEGMENTS) as u64 * seg + base;
                self.ttt.invalidate_local_range(lo, lo + seg);
                self.ttt.begin_cycle(idx as u64);
                for (parent, local) in loads {
                    self.ttt.record(parent, local);
                }
                for (parent, local) in stores {
                    self.ttt.invalidate_overlapping(&parent);
                    self.ttt.record(parent, local);
                }
                push_run(&mut self.open, Entry::Step(*i), 1);
                self.push_tail(Prev::Copy(Box::new(copy)));
            }
        }
    }
}

/// `r` moved `by` recycled segments forward when it lies in one of the
/// segments of `seg` elements from `base` (unchanged otherwise).
/// Allocations rotate through the segments with the FISA cycle, so the
/// same steps starting in another segment are the same steps rotated.
fn rotate(r: &Region, base: u64, seg: u64, by: usize) -> Region {
    let span = RECYCLED_SEGMENTS as u64 * seg;
    match r.offset().checked_sub(base) {
        Some(rel) if r.end() < base + span && !by.is_multiple_of(RECYCLED_SEGMENTS) => {
            let s = (rel / seg + by as u64) % RECYCLED_SEGMENTS as u64;
            r.with_offset(base + s * seg + rel % seg)
        }
        _ => r.clone(),
    }
}

/// `r` as key words: a tag, an offset, then its dims and strides.
fn push_region(key: &mut Vec<u64>, tag: u64, offset: u64, r: &Region) {
    key.extend([tag, offset, r.shape().dims().len() as u64]);
    key.extend(r.shape().dims().iter().map(|&d| d as u64));
    key.extend(r.strides());
}

/// What later steps read of `s`: its stores, children and reduction.
fn tail_step(s: &Step) -> Step {
    Step {
        stores: s.stores.clone(),
        children: s.children.clone(),
        reduce: s.reduce.clone(),
        ..Step::default()
    }
}

/// The regions of a tail step with their spaces.
fn step_regions(s: &Step) -> impl Iterator<Item = (Space, &Region)> {
    let stores =
        s.stores.iter().flat_map(|d| [(Space::Parent, &d.parent), (Space::Local, &d.local)]);
    let children = s.children.iter().flat_map(|c| c.inst.inputs.iter().chain(&c.inst.outputs));
    let reduce = s.reduce.iter().flat_map(|r| {
        let partials = r.partials.iter().flatten().map(|p| (Space::Local, p));
        partials.chain(r.outputs.iter().map(move |o| (r.output_space, o)))
    });
    stores.chain(children.map(|r| (Space::Local, r))).chain(reduce)
}

/// A tail step with every region moved by `mv`.
fn map_step(s: &Step, mv: &impl Fn(Space, &Region) -> Region) -> Step {
    let local = |rs: &[Region]| rs.iter().map(|r| mv(Space::Local, r)).collect();
    Step {
        stores: s
            .stores
            .iter()
            .map(|d| DmaOp {
                parent: mv(Space::Parent, &d.parent),
                local: mv(Space::Local, &d.local),
            })
            .collect(),
        children: s.children.as_ref().map(|c| Children {
            split: Rc::clone(&c.split),
            inst: Instruction {
                op: c.inst.op,
                params: c.inst.params,
                inputs: local(&c.inst.inputs),
                outputs: local(&c.inst.outputs),
            },
            resident: c.resident.clone(),
        }),
        reduce: s.reduce.as_ref().map(|r| ReduceStep {
            partials: r.partials.iter().map(|v| local(v)).collect(),
            outputs: r.outputs.iter().map(|o| mv(r.output_space, o)).collect(),
            ..r.clone()
        }),
        ..Step::default()
    }
}

/// Segments' worth of staged operands below which a node plan builds
/// every step instead of keying blocks for reuse.
const REUSE_MIN_STEPS: u64 = 16;

/// Bytes of `sd`'s parent-space operands (what DD stages locally; none
/// for a streaming merge).
fn staged_bytes(sd: &SdInst) -> u64 {
    if sd.inst.op == Opcode::Merge1D {
        return 0;
    }
    sd.frame().filter(|(s, _)| *s == Space::Parent).map(|(_, r)| r.bytes()).sum()
}

/// The controller planner for one machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Planner<'a> {
    cfg: &'a MachineConfig,
}

impl<'a> Planner<'a> {
    /// A planner over `cfg`.
    pub fn new(cfg: &'a MachineConfig) -> Self {
        Planner { cfg }
    }

    /// The machine configuration.
    pub fn config(&self) -> &'a MachineConfig {
        self.cfg
    }

    /// Peak MAC throughput of the subtree rooted at `level` (one node).
    pub fn subtree_peak_ops(&self, level: usize) -> f64 {
        let cores: u64 = self.cfg.levels[level.min(self.cfg.levels.len())..]
            .iter()
            .map(|l| l.fanout as u64)
            .product();
        cores.max(1) as f64 * self.cfg.leaf.mac_ops
    }

    fn seg_cap_bytes(&self, level: usize) -> u64 {
        self.cfg.mem_bytes_at(level) / 4
    }

    /// Extra local bytes a PD split of `inst` would need for partials.
    ///
    /// Fast path on the memoized route: [`Planner::parallel_split_raw`]
    /// produces a `Direct` outcome (zero partials) exactly when the
    /// two-way direct split of the whole instruction succeeds — the
    /// halving loop only ever keeps going from that seed — so the full
    /// grid never needs to be built just to learn the partial footprint.
    /// Only the reduce fallback's partials must be sized for real.
    fn pd_partial_bytes(&self, level: usize, inst: &Instruction, mm: &PlanMemo) -> u64 {
        let fanout = self.cfg.fanout_at(level);
        if fanout == 0 || inst.op == Opcode::Merge1D {
            return 0;
        }
        if !mm.is_enabled() {
            return match self.parallel_split_raw(inst, fanout, mm) {
                Some(SplitOutcome::Reduce { pieces, .. }) => {
                    pieces.iter().flat_map(|p| p.partial_shapes.iter()).map(Shape::bytes).sum()
                }
                _ => 0,
            };
        }
        if fanout >= 2
            && self.direct_decision(
                inst,
                2,
                mm,
                |v| matches!(v, Some(SplitOutcome::Direct(pieces)) if pieces.len() >= 2),
            )
        {
            return 0;
        }
        let kind = MemoKind::PdFallback { n: fanout };
        if let Some(bytes) = mm.lookup(inst, kind, |v| memo::partial_bytes_of(v.split())) {
            return bytes;
        }
        let outcome = self.parallel_split_raw(&memo::canonical(inst), fanout, mm);
        let bytes = memo::partial_bytes_of(&outcome);
        mm.insert(inst, kind, Memoized::Split(outcome));
        bytes
    }

    /// Bytes of local staging one step of `sd` needs.
    fn step_footprint(&self, level: usize, sd: &SdInst, mm: &PlanMemo) -> u64 {
        if sd.inst.op == Opcode::Merge1D {
            return 0; // streams through the node
        }
        staged_bytes(sd) + self.pd_partial_bytes(level, &sd.inst, mm)
    }

    /// Sequential decomposition: split `sd` until each piece fits one
    /// recycled segment, building each piece's step (and each SD-level
    /// reduction) in execution order.
    ///
    /// With reuse on, a subtree whose [`BlockKey`] recurs is not split
    /// again: the block built the first time is named instead, and the
    /// state it left is moved to where this subtree's operands sit.
    fn sd_rec(&self, b: &mut Build, sd: SdInst, parity: bool) -> Result<(), CoreError> {
        let level = b.level;
        let cap = if b.resident_base {
            // Root operands are already resident in the global memory: only
            // PD partials need allocation, so the constraint is loose.
            self.cfg.mem_bytes_at(level)
        } else {
            self.seg_cap_bytes(level)
        };
        let footprint = || {
            if b.resident_base {
                self.pd_partial_bytes(level, &sd.inst, b.memo)
            } else {
                self.step_footprint(level, &sd, b.memo)
            }
        };
        // Staged operands alone over the cap need no PD footprint.
        let leaf = (b.resident_base || staged_bytes(&sd) <= cap) && footprint() <= cap;
        let Some((key, frame)) = b.reuse.as_ref().and_then(|_| b.key(&sd, parity)) else {
            return if leaf { self.emit_inst(b, sd) } else { self.sd_split(b, sd, parity, cap) };
        };
        if let Some(r) = b.reuse.as_ref().and_then(|m| m.get(&key)).cloned() {
            b.replay(&r, &sd);
            return Ok(());
        }
        let outer = std::mem::take(&mut b.open);
        let cycle = b.inst_cycle;
        if leaf {
            self.emit_inst(b, sd)?;
        } else {
            self.sd_split(b, sd, parity, cap)?;
        }
        let runs = std::mem::replace(&mut b.open, outer);
        match b.capture(key, frame, &runs, cycle) {
            Some(block) => push_run(&mut b.open, Entry::Block(block), 1),
            None => runs.into_iter().for_each(|r| push_run(&mut b.open, r.entry, r.count)),
        }
        Ok(())
    }

    /// One SD split of `sd`, whose `footprint` exceeds `cap`: each piece
    /// recursively, and the reductions that combine them.
    fn sd_split(&self, b: &mut Build, sd: SdInst, parity: bool, cap: u64) -> Result<(), CoreError> {
        let level = b.level;
        // Split two ways per recursion step. Scoring by byte overhead makes
        // the recursion alternate axes (the replicated operand grows until
        // another axis becomes cheaper), which yields balanced, square-ish
        // tiles — the blocked execution a real controller wants. Output-
        // dependent axes compete on equal footing but pay for their
        // partials and for the `g(·)` work, and are infeasible when the
        // partials exceed the remaining static segment.
        let static_avail = b.alloc.static_remaining() * ELEM_BYTES;
        let Some(outcome) = self.choose_sd_split(level, &sd.inst, static_avail, b.memo) else {
            let needed = if b.resident_base {
                self.pd_partial_bytes(level, &sd.inst, b.memo)
            } else {
                self.step_footprint(level, &sd, b.memo)
            };
            return Err(CoreError::CapacityExceeded { level, needed, available: cap });
        };
        let base = b.base;
        match outcome {
            SplitOutcome::Direct(pieces) => {
                for piece in pieces {
                    let piece_sd = SdInst {
                        inst: piece,
                        input_space: sd.input_space.clone(),
                        output_space: sd.output_space.clone(),
                    };
                    self.sd_rec(b, piece_sd, parity)?;
                }
            }
            SplitOutcome::Reduce { pieces, kind }
                if matches!(kind, ReduceKind::Add | ReduceKind::Mul)
                    && !pieces.is_empty()
                    && pieces.iter().all(|p| p.partial_shapes.len() == 1) =>
            {
                // Additive/multiplicative reductions ACCUMULATE: one static
                // accumulator plus two alternating temporaries, with an
                // LFU accumulate step after each piece. Memory stays flat
                // (3× the output block) no matter how deep the reduction
                // axis splits — the blocked-matmul K-accumulation pattern.
                let static_mark = b.alloc.static_mark(parity);
                let out_elems: u64 = sd.inst.outputs.iter().map(Region::numel).sum();
                let out_shape = pieces[0].partial_shapes[0].clone();
                let acc = Region::contiguous(
                    b.alloc.alloc_static(parity, out_elems)? + base,
                    out_shape.clone(),
                );
                let temps = [
                    Region::contiguous(
                        b.alloc.alloc_static(parity, out_elems)? + base,
                        out_shape.clone(),
                    ),
                    Region::contiguous(b.alloc.alloc_static(parity, out_elems)? + base, out_shape),
                ];
                for (i, piece) in pieces.into_iter().enumerate() {
                    let dest = if i == 0 { acc.clone() } else { temps[i % 2].clone() };
                    let inst = piece.into_instruction(vec![dest.clone()])?;
                    let piece_sd = SdInst {
                        inst,
                        input_space: sd.input_space.clone(),
                        output_space: vec![Space::Local],
                    };
                    self.sd_rec(b, piece_sd, parity)?;
                    if i > 0 {
                        self.emit_reduce(
                            b,
                            ReduceStep {
                                kind,
                                partials: vec![vec![acc.clone()], vec![dest]],
                                outputs: vec![acc.clone()],
                                output_space: Space::Local,
                                on_lfu: self.reduce_on_lfu(level, out_elems),
                                ops: out_elems,
                            },
                        );
                    }
                }
                // Final step: stream the accumulator to the destination.
                let output_space = if sd.output_space.iter().all(|s| *s == Space::Local) {
                    Space::Local
                } else {
                    Space::Parent
                };
                self.emit_reduce(
                    b,
                    ReduceStep {
                        kind,
                        partials: vec![vec![acc]],
                        outputs: sd.inst.outputs.clone(),
                        output_space,
                        on_lfu: true,
                        ops: 0,
                    },
                );
                b.alloc.release_static_to(parity, static_mark);
            }
            SplitOutcome::Reduce { pieces, kind } => {
                // Merge-style reductions (sorts): partials live in the
                // static segment for the whole FISA cycle (§3.5) — or in
                // scratch space at a resident root — and are released
                // (LIFO) once the group's reduction has consumed them.
                let static_mark = b.alloc.static_mark(parity);
                let mut partial_regions: Vec<Vec<Region>> = Vec::with_capacity(pieces.len());
                for piece in &pieces {
                    let regions = piece
                        .partial_shapes
                        .iter()
                        .map(|s| {
                            let off = b.alloc.alloc_static(parity, s.numel())?;
                            Ok(Region::contiguous(off + base, s.clone()))
                        })
                        .collect::<Result<Vec<_>, CoreError>>()?;
                    partial_regions.push(regions);
                }
                let total_partial_elems: u64 =
                    partial_regions.iter().flat_map(|v| v.iter()).map(Region::numel).sum();
                let ops = match kind {
                    ReduceKind::Add | ReduceKind::Mul => total_partial_elems,
                    ReduceKind::Merge => total_partial_elems * (pieces.len().max(2)).ilog2() as u64,
                };
                let outputs = sd.inst.outputs.clone();
                let out_space = sd.output_space.clone();
                for (piece, regions) in pieces.into_iter().zip(&partial_regions) {
                    let inst = piece.into_instruction(regions.clone())?;
                    let piece_sd = SdInst {
                        inst,
                        input_space: sd.input_space.clone(),
                        output_space: vec![Space::Local; regions.len()],
                    };
                    self.sd_rec(b, piece_sd, parity)?;
                }
                // SD-level reductions stream partials (local) into the
                // destination (usually parent space).
                let output_space = if out_space.iter().all(|s| *s == Space::Local) {
                    Space::Local
                } else {
                    Space::Parent
                };
                self.emit_reduce(
                    b,
                    ReduceStep {
                        kind,
                        partials: partial_regions,
                        outputs,
                        output_space,
                        on_lfu: self.reduce_on_lfu(level, ops),
                        ops,
                    },
                );
                b.alloc.release_static_to(parity, static_mark);
            }
        }
        Ok(())
    }

    /// RC's prediction (§3.3): run `g(·)` on the LFU unless it is absent or
    /// FFU execution is predicted much faster.
    fn reduce_on_lfu(&self, level: usize, ops: u64) -> bool {
        if self.cfg.is_leaf(level) {
            return true; // leaf vector unit
        }
        let spec = &self.cfg.levels[level];
        if spec.lfu_lanes == 0 {
            return false; // must commission through the CMR
        }
        let lfu_rate = spec.lfu_lanes as f64 * spec.lfu_lane_ops;
        let lfu_time = ops as f64 / lfu_rate;
        // Commissioned execution streams partials through child links.
        let ffu_time = ops as f64 * 3.0 * ELEM_BYTES as f64 / spec.bw_bytes
            + ops as f64 / self.subtree_peak_ops(level + 1).max(1.0);
        lfu_time <= 4.0 * ffu_time
    }

    /// Byte-equivalent cost of one LFU operation at `level` (how many
    /// bytes of memory traffic take as long as one reduction op).
    fn lfu_op_byte_equiv(&self, level: usize) -> f64 {
        if self.cfg.is_leaf(level) {
            self.cfg.leaf.bw_bytes / self.cfg.leaf.vec_ops
        } else {
            let l = &self.cfg.levels[level];
            if l.lfu_lanes == 0 {
                // Commissioned reductions stream partials through children.
                8.0
            } else {
                l.bw_bytes / (l.lfu_lanes as f64 * l.lfu_lane_ops)
            }
        }
    }

    /// SD's axis choice: a two-way split minimising byte overhead plus the
    /// byte-equivalent of the reduction work; reductions whose partials
    /// would overflow the static segment are infeasible. Every axis is
    /// scored from shapes (`split_cost`); only the winner's pieces are
    /// built.
    ///
    /// Memoized on the canonical instruction (plus level and static
    /// headroom, which both influence the choice) and rebased on a hit.
    fn choose_sd_split(
        &self,
        level: usize,
        inst: &Instruction,
        static_avail_bytes: u64,
        mm: &PlanMemo,
    ) -> Option<SplitOutcome> {
        if !mm.is_enabled() {
            return self.choose_sd_split_raw(level, inst, static_avail_bytes);
        }
        let kind = MemoKind::Sd { level, static_avail: static_avail_bytes };
        if let Some(cached) =
            mm.lookup(inst, kind, |v| v.split().as_ref().map(|c| memo::rebase(c, inst)))
        {
            return cached;
        }
        let outcome = self.choose_sd_split_raw(level, &memo::canonical(inst), static_avail_bytes);
        let rebased = outcome.as_ref().map(|c| memo::rebase(c, inst));
        mm.insert(inst, kind, Memoized::Split(outcome));
        rebased
    }

    fn choose_sd_split_raw(
        &self,
        level: usize,
        inst: &Instruction,
        static_avail_bytes: u64,
    ) -> Option<SplitOutcome> {
        use cf_ops::fractal::{apply_split, split_axes, split_cost};
        let op_cost = self.lfu_op_byte_equiv(level);
        let mut best: Option<(f64, usize)> = None;
        for axis in split_axes(inst) {
            if axis.extent < 2 {
                continue;
            }
            let Some(cost) = split_cost(inst, &axis, 2) else { continue };
            if cost.pieces < 2 {
                continue;
            }
            let mut score = cost.overhead_bytes(inst) as f64;
            if let Some(kind) = cost.reduce {
                // Accumulating reductions need 3× the output block in the
                // static segment regardless of piece count; merges need
                // every partial at once.
                let static_need = match kind {
                    ReduceKind::Add | ReduceKind::Mul => cost.first_partial_bytes.saturating_mul(3),
                    ReduceKind::Merge => cost.partial_bytes,
                };
                if static_need > static_avail_bytes {
                    continue;
                }
                score += (cost.partial_bytes / ELEM_BYTES) as f64 * op_cost;
            }
            if best.is_none_or(|(c, _)| score < c) {
                best = Some((score, axis.index));
            }
        }
        best.and_then(|(_, axis)| apply_split(inst, axis, 2).ok())
    }

    /// Broadcast-aware byte overhead of a PD split: inputs shared by every
    /// piece are served from local memory once (§3.6), so a split that
    /// replicates a shared operand is far cheaper than its naive byte
    /// count — which is exactly why the PD prefers batch/row splits with
    /// broadcast weights over inner-axis reductions.
    fn pd_overhead(&self, inst: &Instruction, outcome: &SplitOutcome) -> u64 {
        let base: u64 = inst.inputs.iter().map(Region::bytes).sum();
        match outcome {
            SplitOutcome::Direct(pieces) => {
                let mut total = 0u64;
                if self.cfg.opts.broadcast {
                    // Each distinct region is served from local memory once.
                    let mut seen = std::collections::HashSet::new();
                    for q in pieces {
                        for (i, r) in q.inputs.iter().enumerate() {
                            if seen.insert((i, r)) {
                                total += r.bytes();
                            }
                        }
                    }
                } else {
                    total +=
                        pieces.iter().flat_map(|q| q.inputs.iter()).map(Region::bytes).sum::<u64>();
                }
                total.saturating_sub(base)
            }
            SplitOutcome::Reduce { pieces, .. } => {
                let inputs: u64 =
                    pieces.iter().flat_map(|q| q.inputs.iter()).map(Region::bytes).sum();
                let partials: u64 =
                    pieces.iter().flat_map(|q| q.partial_shapes.iter()).map(Shape::bytes).sum();
                (inputs + 2 * partials).saturating_sub(base)
            }
        }
    }

    /// PD's axis choice: minimal broadcast-aware overhead.
    fn choose_pd_split(&self, inst: &Instruction, parts: usize) -> Option<SplitOutcome> {
        use cf_ops::fractal::{apply_split, split_axes};
        let mut best: Option<(u64, SplitOutcome)> = None;
        for axis in split_axes(inst) {
            if axis.extent < 2 {
                continue;
            }
            let Ok(outcome) = apply_split(inst, axis.index, parts) else { continue };
            if outcome.len() < 2 {
                continue;
            }
            let cost = self.pd_overhead(inst, &outcome);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, outcome));
            }
        }
        best.map(|(_, o)| o)
    }

    /// The PD split of `inst` over up to `n` slots as a shared
    /// [`PdSplit`], memoized on the canonical instruction. A hit hands out
    /// the cached `Rc` — no piece is rebased.
    fn parallel_split(&self, inst: &Instruction, n: usize, mm: &PlanMemo) -> Rc<PdSplit> {
        if !mm.is_enabled() {
            return Rc::new(PdSplit::new(inst, self.parallel_split_raw(inst, n, mm)));
        }
        let kind = MemoKind::Parallel { n };
        if let Some(pd) = mm.lookup(inst, kind, Memoized::pd).flatten() {
            return pd;
        }
        let canon = memo::canonical(inst);
        let pd = Rc::new(PdSplit::new(&canon, self.parallel_split_raw(&canon, n, mm)));
        mm.insert(inst, kind, Memoized::Pd(Rc::clone(&pd)));
        pd
    }

    /// Multi-axis parallel split filling up to `n` slots.
    ///
    /// Builds a balanced grid by repeatedly halving every piece along its
    /// cheapest non-reducing axis (axes alternate as the replicated operand
    /// grows), so each FFU receives a compact, high-intensity tile. When no
    /// direct axis exists at all, falls back to an `n`-way output-dependent
    /// split whose partials the reduction controller combines.
    fn parallel_split_raw(
        &self,
        inst: &Instruction,
        n: usize,
        mm: &PlanMemo,
    ) -> Option<SplitOutcome> {
        if n < 2 {
            return None;
        }
        let mut pieces = vec![inst.clone()];
        while pieces.len() < n {
            let mut next = Vec::with_capacity(pieces.len() * 2);
            let mut progressed = false;
            for piece in &pieces {
                match self.direct_split(piece, 2, mm) {
                    Some(SplitOutcome::Direct(sub)) if sub.len() >= 2 => {
                        progressed = true;
                        next.extend(sub);
                    }
                    _ => next.push(piece.clone()),
                }
            }
            pieces = next;
            if !progressed {
                break;
            }
        }
        if pieces.len() >= 2 {
            return Some(SplitOutcome::Direct(pieces));
        }
        self.choose_pd_split(inst, n)
    }

    /// [`choose_direct_split`], memoized: the halving recursion above
    /// revisits the same piece shape many times per grid.
    fn direct_split(
        &self,
        inst: &Instruction,
        parts: usize,
        mm: &PlanMemo,
    ) -> Option<SplitOutcome> {
        if !mm.is_enabled() {
            return choose_direct_split(inst, parts);
        }
        self.direct_decision(inst, parts, mm, |v| v.as_ref().map(|c| memo::rebase(c, inst)))
    }

    /// The memoized canonical [`choose_direct_split`] of `inst`, mapped by
    /// `map` (which sees the canonical outcome, so a caller that needs no
    /// pieces pays no rebase).
    fn direct_decision<R>(
        &self,
        inst: &Instruction,
        parts: usize,
        mm: &PlanMemo,
        map: impl Fn(&Option<SplitOutcome>) -> R,
    ) -> R {
        let kind = MemoKind::Direct { parts };
        if let Some(cached) = mm.lookup(inst, kind, |v| map(v.split())) {
            return cached;
        }
        let outcome = choose_direct_split(&memo::canonical(inst), parts);
        let mapped = map(&outcome);
        mm.insert(inst, kind, Memoized::Split(outcome));
        mapped
    }

    /// Whether an instruction should run on this node's LFU rather than be
    /// distributed to FFUs. Tiny-granularity operations always stay local
    /// (distribution cannot amortise the control latency); low-intensity
    /// (Reduction-category) operations stay local only when the LFU is
    /// predicted clearly faster — distributing them preserves the tensor
    /// transposition table's operand forwarding across consecutive FISA
    /// instructions, which the naive byte estimate cannot see.
    fn route_to_lfu(&self, level: usize, inst: &Instruction) -> bool {
        if self.cfg.is_leaf(level) {
            return false;
        }
        let spec = &self.cfg.levels[level];
        if spec.lfu_lanes == 0 {
            return false;
        }
        let flops = cost::flops(inst);
        if flops <= 65_536 {
            return true;
        }
        if !inst.op.prefers_lfu() {
            return false;
        }
        let lfu_time = flops as f64 / (spec.lfu_lanes as f64 * spec.lfu_lane_ops);
        let pd_time = inst.operand_bytes() as f64 / spec.bw_bytes
            + flops as f64 / self.subtree_peak_ops(level + 1).max(1.0);
        lfu_time <= 0.25 * pd_time
    }

    /// Plans one incoming parent-space instruction at `level`.
    ///
    /// `resident_inputs[i]` marks inputs already present in local memory
    /// from a previous FISA cycle (cross-cycle forwarding; ignored by the
    /// functional executor). `parity` selects the static-segment stack.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CapacityExceeded`] when no decomposition fits
    /// this node's memory, and propagates split/validation errors.
    pub fn plan_instruction(
        &self,
        level: usize,
        inst: &Instruction,
        parity: bool,
    ) -> Result<NodePlan, CoreError> {
        self.plan_instruction_with(level, inst, parity, &PlanMemo::new(), &PlanArena::new())
    }

    /// [`Planner::plan_instruction`] against caller-owned memoization and
    /// arena state, so split decisions and buffers are shared across many
    /// plans.
    pub fn plan_instruction_with(
        &self,
        level: usize,
        inst: &Instruction,
        parity: bool,
        memo: &PlanMemo,
        arena: &PlanArena,
    ) -> Result<NodePlan, CoreError> {
        Ok(self.plan_node(level, inst, parity, memo, arena, false)?.finish_explicit())
    }

    /// [`Planner::plan_instruction_with`] in run-length form: with the
    /// shape memo on, recurring blocks are built once (the performance
    /// simulator's path); with it off, every step is materialised.
    pub(crate) fn plan_instruction_runs(
        &self,
        level: usize,
        inst: &Instruction,
        memo: &PlanMemo,
        arena: &PlanArena,
    ) -> Result<RunPlan, CoreError> {
        Ok(self.plan_node(level, inst, false, memo, arena, memo.is_enabled())?.finish())
    }

    fn plan_node<'m>(
        &self,
        level: usize,
        inst: &Instruction,
        parity: bool,
        memo: &'m PlanMemo,
        arena: &'m PlanArena,
        reuse: bool,
    ) -> Result<Build<'m>, CoreError> {
        let sd = SdInst::all_parent(inst.clone());
        // Reuse moves steps by their operands' offsets, which keeps the
        // incoming operands each load overlaps only when those are apart.
        // It pays only where SD cuts many steps: below REUSE_MIN_STEPS
        // segments' worth of operands, keys cost more than they save.
        let frame: Vec<&Region> = inst.inputs.iter().chain(&inst.outputs).collect();
        let apart =
            frame.iter().enumerate().all(|(i, a)| frame[..i].iter().all(|b| !a.may_overlap(b)));
        let many = staged_bytes(&sd) > REUSE_MIN_STEPS * self.seg_cap_bytes(level);
        let mut b = self.build(level, 0, false, memo, arena, reuse && apart && many);
        self.sd_rec(&mut b, sd, parity)?;
        Ok(b)
    }

    /// Plans the whole program at the root, whose operands are resident in
    /// the global memory (the root performs no DMA of its own). PD
    /// partials are allocated in scratch space above `scratch_base`
    /// elements.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::plan_instruction`].
    pub fn plan_root(
        &self,
        instructions: &[Instruction],
        scratch_base: u64,
    ) -> Result<NodePlan, CoreError> {
        self.plan_root_with(instructions, scratch_base, &PlanMemo::new(), &PlanArena::new())
    }

    /// [`Planner::plan_root`] against caller-owned memoization and arena
    /// state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::plan_instruction`].
    pub fn plan_root_with(
        &self,
        instructions: &[Instruction],
        scratch_base: u64,
        memo: &PlanMemo,
        arena: &PlanArena,
    ) -> Result<NodePlan, CoreError> {
        Ok(self.plan_program(instructions, scratch_base, memo, arena)?.finish_explicit())
    }

    /// [`Planner::plan_root_with`] in run-length form. The root plan
    /// materialises every step: each is a program instruction (or a piece
    /// of one too large for the whole memory), and they seldom recur.
    pub(crate) fn plan_root_runs(
        &self,
        instructions: &[Instruction],
        scratch_base: u64,
        memo: &PlanMemo,
        arena: &PlanArena,
    ) -> Result<RunPlan, CoreError> {
        Ok(self.plan_program(instructions, scratch_base, memo, arena)?.finish())
    }

    fn plan_program<'m>(
        &self,
        instructions: &[Instruction],
        scratch_base: u64,
        memo: &'m PlanMemo,
        arena: &'m PlanArena,
    ) -> Result<Build<'m>, CoreError> {
        // The global memory the program lives in is the root node's memory
        // (§3.1): the root itself only needs allocator headroom for PD
        // partials, placed in scratch space above the program footprint.
        let mut b = self.build(0, scratch_base, true, memo, arena, false);
        for (i, inst) in instructions.iter().enumerate() {
            // At a resident root the distinction between the recycled and
            // static segments vanishes; use instruction parity as in §3.5.
            let mut sd = SdInst::all_parent(inst.clone());
            // Operands are already local.
            sd.input_space = vec![Space::Local; sd.inst.inputs.len()];
            sd.output_space = vec![Space::Local; sd.inst.outputs.len()];
            self.sd_rec(&mut b, sd, i % 2 == 1)?;
        }
        Ok(b)
    }

    fn build<'m>(
        &self,
        level: usize,
        base: u64,
        resident_base: bool,
        memo: &'m PlanMemo,
        arena: &'m PlanArena,
        reuse: bool,
    ) -> Build<'m> {
        Build {
            level,
            base,
            resident_base,
            memo,
            arena,
            alloc: SegmentedAllocator::new(self.cfg.mem_bytes_at(level) / ELEM_BYTES),
            ttt: Ttt::new(),
            inst_cycle: 0,
            tail: Vec::with_capacity(2),
            steps: arena.take_steps(),
            blocks: Vec::new(),
            open: Vec::new(),
            reuse: reuse.then(HashMap::default),
        }
    }

    /// An SD-level reduction step.
    fn emit_reduce(&self, b: &mut Build, r: ReduceStep) {
        let mut step = b.arena.take_step();
        // SD-level reduction: partial regions are already absolute local
        // addresses.
        step.reduce = Some(r);
        // Conservatively serialise with the predecessor: it produced the
        // last partial.
        step.raw_dep_prev = true;
        b.push_step(step);
    }

    /// DD + PD + RC of one SD piece: binds its operands to local memory,
    /// then routes it to the leaf kernel, the LFU or a PD split.
    fn emit_inst(&self, b: &mut Build, sd: SdInst) -> Result<(), CoreError> {
        let opts = self.cfg.opts;
        let level = b.level;
        let base = b.base;
        let mut step = b.arena.take_step();
        if sd.inst.op == Opcode::Merge1D {
            step.streaming_exec = Some(sd.inst);
            step.raw_dep_prev = true;
            b.push_step(step);
            return Ok(());
        }
        let idx = b.inst_cycle;
        b.inst_cycle += 1;
        let (seg_lo, seg_hi) = b.alloc.begin_step(idx);
        // Stale residency over the recycled segment dies now.
        b.ttt.invalidate_local_range(seg_lo + base, seg_hi + base);
        // --- DD: bind local addresses -----------------------
        let mut local_inputs = Vec::with_capacity(sd.inst.inputs.len());
        let mut loads = std::mem::take(&mut step.loads);
        let mut elided = 0u64;
        for (region, space) in sd.inst.inputs.iter().zip(&sd.input_space) {
            match space {
                Space::Local => local_inputs.push(region.clone()),
                Space::Parent => {
                    if opts.ttt {
                        if let Some(local) = b.ttt.lookup(region) {
                            elided += region.bytes();
                            local_inputs.push(local.clone());
                            continue;
                        }
                    }
                    let off = b.alloc.alloc(idx, region.numel())?;
                    let local = Region::contiguous(off + base, region.shape().clone());
                    loads.push(DmaOp { parent: region.clone(), local: local.clone() });
                    local_inputs.push(local);
                }
            }
        }
        let mut local_outputs = Vec::with_capacity(sd.inst.outputs.len());
        let mut stores = std::mem::take(&mut step.stores);
        for (region, space) in sd.inst.outputs.iter().zip(&sd.output_space) {
            match space {
                Space::Local => local_outputs.push(region.clone()),
                Space::Parent => {
                    let off = b.alloc.alloc(idx, region.numel())?;
                    let local = Region::contiguous(off + base, region.shape().clone());
                    stores.push(DmaOp { parent: region.clone(), local: local.clone() });
                    local_outputs.push(local);
                }
            }
        }
        // RAW dependency: a surviving load reads what the
        // previous step writes back.
        if let Some(prev) = b.prev(0) {
            step.raw_dep_prev =
                loads.iter().any(|l| prev.stores.iter().any(|s| l.parent.may_overlap(&s.parent)));
        }
        // TTT bookkeeping (lookup happened above; now advance).
        b.ttt.begin_cycle(idx as u64);
        for l in &loads {
            b.ttt.record(l.parent.clone(), l.local.clone());
        }
        for s in &stores {
            b.ttt.invalidate_overlapping(&s.parent);
            b.ttt.record(s.parent.clone(), s.local.clone());
        }
        let local_inst = Instruction::new(sd.inst.op, sd.inst.params, local_inputs, local_outputs)?;
        step.loads = loads;
        step.stores = stores;
        step.elided_bytes = elided;

        // --- routing: leaf / LFU / PD ------------------------
        let fanout = self.cfg.fanout_at(level);
        if self.cfg.is_leaf(level) || fanout == 0 || self.route_to_lfu(level, &local_inst) {
            step.local_exec = Some(local_inst);
        } else {
            // Unsplittable instructions (granularity 1 or
            // fan-out 1) go whole to one child.
            let split = self.parallel_split(&local_inst, fanout, b.memo);
            if let Some(kind) = split.reduce {
                let mut partials = Vec::with_capacity(split.len());
                for piece in &split.pieces {
                    let regions = piece
                        .outputs
                        .iter()
                        .map(|r| {
                            let off = b.alloc.alloc(idx, r.numel())?;
                            Ok(Region::contiguous(off + base, r.shape().clone()))
                        })
                        .collect::<Result<Vec<_>, CoreError>>()?;
                    partials.push(regions);
                }
                let total: u64 = partials.iter().flat_map(|v| v.iter()).map(Region::numel).sum();
                let out_elems: u64 = local_inst.outputs.iter().map(Region::numel).sum();
                let ops = match kind {
                    ReduceKind::Add | ReduceKind::Mul => total.saturating_sub(out_elems),
                    ReduceKind::Merge => total * (partials.len().max(2)).ilog2() as u64,
                };
                step.reduce = Some(ReduceStep {
                    kind,
                    partials,
                    outputs: local_inst.outputs.clone(),
                    output_space: Space::Local,
                    on_lfu: self.reduce_on_lfu(level, ops),
                    ops,
                });
            }
            let resident = if opts.ttt {
                // Cross-cycle residency at a child is bounded by what its
                // recycled segments can keep alive between two of its
                // FISA cycles.
                let cap = self.cfg.mem_bytes_at(level + 1) / 8;
                residency(&split, &local_inst, [b.prev(0), b.prev(1)], cap)
            } else {
                vec![0; split.len()]
            };
            step.children = Some(Children { split, inst: local_inst, resident });
        }
        b.push_step(step);
        Ok(())
    }
}

impl Build<'_> {
    fn finish(self) -> RunPlan {
        RunPlan { steps: self.steps, blocks: self.blocks, runs: self.open }
    }

    /// The explicit plan built (reuse off): every step, in order.
    fn finish_explicit(self) -> NodePlan {
        debug_assert!(self.reuse.is_none());
        NodePlan { local_elems: self.base + self.alloc.high_water(), steps: self.steps }
    }
}

/// Best direct (non-reducing) split of `inst` into `parts`, by minimal
/// byte overhead, scored from shapes; only the winner's pieces are built.
/// `None` when every splittable axis is output-dependent.
fn choose_direct_split(inst: &Instruction, parts: usize) -> Option<SplitOutcome> {
    use cf_ops::fractal::{apply_split, split_axes, split_cost, Dependency};
    let mut best: Option<(u64, usize)> = None;
    for axis in split_axes(inst) {
        if axis.extent < 2 || axis.dependency == Dependency::OutputDependent {
            continue;
        }
        let Some(cost) = split_cost(inst, &axis, parts) else { continue };
        if cost.pieces < 2 {
            continue;
        }
        let overhead = cost.overhead_bytes(inst);
        if best.is_none_or(|(c, _)| overhead < c) {
            best = Some((overhead, axis.index));
        }
    }
    best.and_then(|(_, axis)| apply_split(inst, axis, parts).ok())
}

/// Per-child residency masks for a step about to be placed as `split`
/// over `inst`.
///
/// Input `i` of the child in slot `s` is resident only when (a) the child
/// in slot `s` of one of the last two steps (`prev_steps`, the last
/// first) touched exactly the same
/// region and (b) the region is small enough to have survived in the
/// child's recycled segments (`max_resident_bytes`) — larger operands are
/// physically re-staged. Regions are compared as placed, without
/// materialising either child, and an operand pair whose spans cannot
/// overlap rules out every slot at once.
fn residency(
    split: &PdSplit,
    inst: &Instruction,
    prev_steps: [Option<&Step>; 2],
    max_resident_bytes: u64,
) -> Vec<u32> {
    let mut masks = vec![0u32; split.len()];
    for prev in prev_steps.into_iter().flatten() {
        let Some(pc) = &prev.children else { continue };
        let slots = split.len().min(pc.split.len());
        let operands = pc.inst.inputs.len() + pc.inst.outputs.len();
        for (i, whole) in inst.inputs.iter().enumerate().take(32) {
            if split.min_input_bytes[i] > max_resident_bytes {
                continue;
            }
            let bit = 1u32 << i;
            for k in 0..operands {
                if prev.operand_span(k).is_some_and(|span| !whole.may_overlap(span)) {
                    continue;
                }
                for (s, m) in masks.iter_mut().enumerate().take(slots) {
                    let r = &split.pieces[s].inputs[i];
                    if *m & bit == 0 && r.bytes() <= max_resident_bytes {
                        let (q, dq) = prev.placed(s, k);
                        if same_placed(r, whole.offset(), q, dq) {
                            *m |= bit;
                        }
                    }
                }
            }
        }
    }
    masks
}

/// Whether `a` placed at `+da` is the same region as `b` placed at `+db`.
fn same_placed(a: &Region, da: u64, b: &Region, db: u64) -> bool {
    a.offset() + da == b.offset() + db && a.shape() == b.shape() && a.strides() == b.strides()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_isa::OpParams;

    fn reg(offset: u64, dims: &[usize]) -> Region {
        Region::contiguous(offset, Shape::new(dims.to_vec()))
    }

    fn matmul(m: usize, k: usize, n: usize) -> Instruction {
        Instruction::new(
            Opcode::MatMul,
            OpParams::None,
            vec![reg(0, &[m, k]), reg((m * k) as u64, &[k, n])],
            vec![reg((m * k + k * n) as u64, &[m, n])],
        )
        .unwrap()
    }

    #[test]
    fn small_instruction_is_one_step() {
        let cfg = MachineConfig::tiny(1, 4, 1 << 20);
        let planner = Planner::new(&cfg);
        let plan = planner.plan_instruction(0, &matmul(64, 64, 64), false).unwrap();
        assert_eq!(plan.steps.len(), 1);
        let step = &plan.steps[0];
        assert_eq!(step.loads.len(), 2);
        assert_eq!(step.stores.len(), 1);
        assert!(step.child_count() > 0);
    }

    #[test]
    fn oversized_instruction_is_sequentially_decomposed() {
        // 64 KiB node memory → 16 KiB segment; operands are 3 × 64 KiB.
        let cfg = MachineConfig::tiny(1, 4, 64 << 10);
        let planner = Planner::new(&cfg);
        let plan = planner.plan_instruction(0, &matmul(128, 128, 128), false).unwrap();
        assert!(plan.steps.len() > 1, "expected SD to split");
        // Every step must fit the segment.
        let seg_bytes = (64 << 10) / 4;
        for step in &plan.steps {
            let staged: u64 = step.loads.iter().chain(&step.stores).map(DmaOp::bytes).sum();
            assert!(staged <= seg_bytes, "step stages {staged} bytes > segment {seg_bytes}");
        }
        assert!(plan.local_elems * 4 <= 64 << 10);
    }

    #[test]
    fn ttt_elides_repeated_weight_loads() {
        // A batch-split conv: every piece shares the weight; within the SD
        // sequence the weight should be loaded once per 3 steps at most.
        let cfg = MachineConfig::tiny(1, 2, 32 << 10);
        let planner = Planner::new(&cfg);
        let x = reg(0, &[8, 6, 6, 4]);
        let w = reg(1152, &[3, 3, 4, 8]);
        let o = reg(1440, &[8, 4, 4, 8]);
        let inst = Instruction::new(
            Opcode::Cv2D,
            OpParams::Conv(cf_isa::ConvParams::same(1, 0)),
            vec![x, w],
            vec![o],
        )
        .unwrap();
        let plan = planner.plan_instruction(0, &inst, false).unwrap();
        assert!(plan.steps.len() >= 2);
        let elided: u64 = plan.steps.iter().map(|s| s.elided_bytes).sum();
        assert!(elided > 0, "TTT should elide some weight reloads");

        // With TTT off, nothing is elided.
        let cfg_off = cfg.clone().with_opts(crate::OptFlags::none());
        let plan_off = Planner::new(&cfg_off).plan_instruction(0, &inst, false).unwrap();
        let elided_off: u64 = plan_off.steps.iter().map(|s| s.elided_bytes).sum();
        assert_eq!(elided_off, 0);
        // And more bytes are loaded.
        let loads_on: u64 = plan.steps.iter().flat_map(|s| s.loads.iter()).map(DmaOp::bytes).sum();
        let loads_off: u64 =
            plan_off.steps.iter().flat_map(|s| s.loads.iter()).map(DmaOp::bytes).sum();
        assert!(loads_off > loads_on);
    }

    #[test]
    fn output_dependent_sd_produces_reduce_step() {
        // HSum over a vector far larger than the node memory segment.
        let cfg = MachineConfig::tiny(1, 2, 16 << 10);
        let planner = Planner::new(&cfg);
        let inst = Instruction::new(
            Opcode::HSum1D,
            OpParams::None,
            vec![reg(0, &[4096])],
            vec![reg(4096, &[1])],
        )
        .unwrap();
        let plan = planner.plan_instruction(0, &inst, false).unwrap();
        let reduces: Vec<&Step> =
            plan.steps.iter().filter(|s| s.reduce.is_some() && s.child_count() == 0).collect();
        assert!(!reduces.is_empty(), "expected an SD-level reduce step");
        let r = reduces.last().unwrap().reduce.as_ref().unwrap();
        assert_eq!(r.output_space, Space::Parent);
    }

    #[test]
    fn pd_reduce_for_inner_split() {
        // MatMul with tiny M, N and large K: only the inner axis can fill
        // the fan-out, producing a PD-level reduction.
        let cfg = MachineConfig::tiny(1, 4, 4 << 20);
        let planner = Planner::new(&cfg);
        let inst = matmul(1, 65536, 1);
        let plan = planner.plan_instruction(0, &inst, false).unwrap();
        let step = &plan.steps[0];
        assert!(step.reduce.is_some());
        assert!(step.child_count() >= 2);
        let r = step.reduce.as_ref().unwrap();
        assert_eq!(r.kind, ReduceKind::Add);
        assert_eq!(r.output_space, Space::Local);
    }

    #[test]
    fn shared_inputs_marked_for_broadcast() {
        // Batch-split conv shares the weight across all pieces.
        let cfg = MachineConfig::tiny(1, 4, 1 << 22);
        let planner = Planner::new(&cfg);
        let inst = Instruction::new(
            Opcode::Cv2D,
            OpParams::Conv(cf_isa::ConvParams::same(1, 0)),
            vec![reg(0, &[8, 6, 6, 4]), reg(1152, &[3, 3, 4, 8])],
            vec![reg(1440, &[8, 4, 4, 8])],
        )
        .unwrap();
        let plan = planner.plan_instruction(0, &inst, false).unwrap();
        let step = &plan.steps[0];
        assert!(step.child_count() >= 2);
        for c in &step.child_insts() {
            assert!(c.shared_inputs[1] > 1, "weight should be marked shared");
            assert_eq!(c.shared_inputs[0], 1, "input slices are private");
        }
    }

    #[test]
    fn leaf_executes_locally() {
        let cfg = MachineConfig::tiny(1, 2, 1 << 20);
        let planner = Planner::new(&cfg);
        // Level 1 is the leaf.
        let plan = planner.plan_instruction(1, &matmul(8, 8, 8), false).unwrap();
        assert!(plan.steps.iter().all(|s| s.child_count() == 0));
        assert!(plan.steps[0].local_exec.is_some());
    }

    #[test]
    fn reduction_ops_route_to_lfu() {
        let cfg = MachineConfig::tiny(1, 4, 1 << 20);
        let planner = Planner::new(&cfg);
        let inst = Instruction::new(
            Opcode::Add1D,
            OpParams::None,
            vec![reg(0, &[256]), reg(256, &[256])],
            vec![reg(512, &[256])],
        )
        .unwrap();
        let plan = planner.plan_instruction(0, &inst, false).unwrap();
        // tiny level 0 has 4 LFU lanes: the elementwise op stays local.
        assert!(plan.steps[0].local_exec.is_some());
        assert_eq!(plan.steps[0].child_count(), 0);
    }

    #[test]
    fn root_plan_covers_program_without_dma() {
        let cfg = MachineConfig::tiny(2, 2, 1 << 20);
        let planner = Planner::new(&cfg);
        let insts = vec![matmul(16, 16, 16)];
        let plan = planner.plan_root(&insts, 1000).unwrap();
        assert!(plan.steps.iter().all(|s| s.loads.is_empty() && s.stores.is_empty()));
        assert!(plan.local_elems >= 1000);
    }

    #[test]
    fn raw_dependency_detected_between_steps() {
        // Two chained matmuls forced into separate SD pieces would need a
        // producer/consumer pair; emulate with an explicit two-instruction
        // root plan where inst 1 consumes inst 0's output.
        let cfg = MachineConfig::tiny(1, 2, 1 << 14);
        let planner = Planner::new(&cfg);
        let a = matmul(32, 32, 32);
        let plan = planner.plan_instruction(0, &a, false).unwrap();
        // SD pieces of one matmul share no outputs, so at most the reduce
        // steps carry dependencies; just assert planning succeeded and
        // dependency flags are well-formed.
        assert!(!plan.steps.is_empty());
        assert!(!plan.steps[0].raw_dep_prev);
    }

    #[test]
    fn merge_streams_through() {
        let cfg = MachineConfig::tiny(1, 2, 1 << 12);
        let planner = Planner::new(&cfg);
        // A merge far bigger than local memory still plans (streaming).
        let inst = Instruction::new(
            Opcode::Merge1D,
            OpParams::None,
            vec![reg(0, &[4096]), reg(4096, &[4096])],
            vec![reg(8192, &[8192])],
        )
        .unwrap();
        let plan = planner.plan_instruction(0, &inst, false).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert!(plan.steps[0].streaming_exec.is_some());
    }
}
