//! Performance simulation: times the controller's plans with a
//! resource-constrained five-stage pipeline model (§3.4, Figure 8).
//!
//! Every node runs the ID/LD/EX/RD/WB pipeline over its step list:
//!
//! * **ID** — decode latency of the level's controller;
//! * **LD** — DMA loads over the link from the parent (which all siblings
//!   share: per-child bandwidth is the parent's memory bandwidth divided by
//!   the fan-out; broadcast-shared operands are served once at full
//!   bandwidth when the optimisation is on);
//! * **EX** — the children's own (recursive) pipelines, or the kernel at a
//!   leaf;
//! * **RD** — `g(·)` on the LFU (or commissioned through the CMR);
//! * **WB** — DMA writebacks, sharing the DMA engine with LD.
//!
//! Recursion is memoized on the *signature* of an incoming instruction
//! (opcode, parameters, operand shapes, residency/broadcast masks) — sound
//! because planning depends only on shapes, never on absolute addresses —
//! which lets paper-scale workloads (a 32768² MATMUL on 2048 cores)
//! simulate in milliseconds. Pipeline concatenating (§3.6) admits the next
//! step's children at the *steady-state* spacing instead of the full
//! makespan whenever no read-after-write hazard forbids pre-assignment.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use cf_isa::{Instruction, Program};
use cf_ops::cost;
use cf_tensor::Region;

use crate::arena::PlanArena;
use crate::hash::FxBuildHasher;
use crate::memo::PlanMemo;
use crate::memory::RECYCLED_SEGMENTS;
use crate::plan::{ChildInst, DmaOp, Entry, NodePlan, Planner, Run, RunPlan, Space, Step};
use crate::profile::{ProfileReport, ProfileState, StageSeconds};
use crate::stats::Stats;
use crate::{CoreError, MachineConfig, PerfReport};

/// Timing outcome of one incoming instruction at one node (a subtree).
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Wall-clock time from first decode to last writeback.
    pub makespan: f64,
    /// Steady-state spacing: the busiest pipeline resource's total busy
    /// time. Pipeline concatenating lets back-to-back instructions be
    /// spaced at this interval instead of the makespan.
    pub steady: f64,
    /// Subtree statistics (level 0 = this node's own link/LFU counters).
    pub stats: Stats,
}

/// Per-step stage durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Decode.
    pub id: f64,
    /// Loads over the parent link.
    pub ld: f64,
    /// Children from a cold pipeline.
    pub ex_full: f64,
    /// Children at steady state (concatenated pipelines).
    pub ex_steady: f64,
    /// Reduction / LFU work.
    pub rd: f64,
    /// Writebacks over the parent link.
    pub wb: f64,
}

/// Absolute schedule of one step (used by the timeline extractor).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSchedule {
    /// ID interval (the decoder is a serial resource from t=0).
    pub id: (f64, f64),
    /// LD interval.
    pub ld: (f64, f64),
    /// EX interval.
    pub ex: (f64, f64),
    /// RD interval.
    pub rd: (f64, f64),
    /// WB interval.
    pub wb: (f64, f64),
}

/// What a [`PerfSim`] memoizes and records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Serve split decisions from the shape memo and step timings from
    /// the step memo. Off is the naive reference path: the planner
    /// recomputes every split from the real operand addresses and every
    /// step is timed child by child — the oracle the differential tests
    /// hold the memoized path to, bit for bit.
    pub memo: bool,
    /// Accumulate the per-level / per-signature profile
    /// ([`PerfSim::profile_report`]).
    pub profile: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { memo: true, profile: false }
    }
}

impl SimOptions {
    /// The naive reference simulator: no shape memo, no step memo.
    pub const NAIVE: SimOptions = SimOptions { memo: false, profile: false };
    /// The default simulator with profiling on.
    pub const PROFILED: SimOptions = SimOptions { memo: true, profile: true };
}

/// The memoizing performance simulator.
///
/// It owns its machine configuration, and its three tables — the
/// outcome cache, the shape memo and the step memo — are pure functions
/// of that configuration, so one simulator may time any number of
/// programs and every call reuses what earlier calls computed
/// ([`SimCache`] keeps one per machine across jobs).
#[derive(Debug)]
pub struct PerfSim {
    cfg: MachineConfig,
    cache: RefCell<HashMap<Key, Rc<NodeOutcome>, FxBuildHasher>>,
    /// Outcome-cache hits and misses, and the estimated heap bytes of
    /// its entries.
    outcome_hits: Cell<u64>,
    outcome_misses: Cell<u64>,
    outcome_bytes: Cell<u64>,
    /// Shape-level split memo shared by every plan this simulator times.
    plan_memo: PlanMemo,
    /// Step timings shared by every plan this simulator times.
    steps: StepMemo,
    /// Pooled plan buffers, refilled as timed plans are retired.
    arena: PlanArena,
    /// Subtree simulations fanned out by [`PerfSim::simulate_parallel`].
    parallel_tasks: Cell<u64>,
    /// Steps the planner materialised.
    planned_steps: Cell<u64>,
    /// Opt-in attribution state; `None` keeps the hot path to one branch.
    profile: Option<RefCell<ProfileState>>,
}

/// Cold-path instrumentation of one simulation run. Deliberately *not*
/// part of [`crate::PerfReport`]: the optimized and naive paths must
/// produce byte-identical reports, and these counters differ by design.
/// [`PerfSim::simulate_report`] reports one call's share of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdStats {
    /// Split decisions served from the shape memo.
    pub shape_memo_hits: u64,
    /// Split decisions computed (and cached).
    pub shape_memo_misses: u64,
    /// High-water bytes of plan buffers retained by the arena.
    pub arena_bytes: u64,
    /// Subtree simulations fanned out to worker threads
    /// (0 on the sequential path).
    pub parallel_tasks: u64,
    /// Steps whose timing was served from the step memo.
    pub step_memo_hits: u64,
    /// Steps timed child by child (and cached).
    pub step_memo_misses: u64,
    /// Subtree outcomes served from the outcome cache.
    pub outcome_hits: u64,
    /// Subtree outcomes planned and timed (and cached).
    pub outcome_misses: u64,
    /// Steps the planner materialised: each distinct step of a
    /// run-length plan once, every step on the naive path.
    pub planned_steps: u64,
}

impl ColdStats {
    /// The counters accrued since `before`. The arena figure is a
    /// high-water mark, not a flow, and is kept as it stands.
    pub fn since(&self, before: &ColdStats) -> ColdStats {
        ColdStats {
            shape_memo_hits: self.shape_memo_hits - before.shape_memo_hits,
            shape_memo_misses: self.shape_memo_misses - before.shape_memo_misses,
            arena_bytes: self.arena_bytes,
            parallel_tasks: self.parallel_tasks - before.parallel_tasks,
            step_memo_hits: self.step_memo_hits - before.step_memo_hits,
            step_memo_misses: self.step_memo_misses - before.step_memo_misses,
            outcome_hits: self.outcome_hits - before.outcome_hits,
            outcome_misses: self.outcome_misses - before.outcome_misses,
            planned_steps: self.planned_steps - before.planned_steps,
        }
    }
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct Key {
    level: usize,
    op: cf_isa::Opcode,
    params: [u64; 8],
    /// Operand shapes flattened as `input count, (rank, dims…)*` with
    /// inputs before outputs — injective, and two allocations cheaper per
    /// cache probe than nested per-operand vectors.
    dims: Vec<u64>,
    resident: u32,
    shared: Vec<u32>,
}

fn mask(bits: &[bool]) -> u32 {
    bits.iter().enumerate().fold(0u32, |m, (i, &b)| if b && i < 32 { m | (1 << i) } else { m })
}

impl Key {
    /// The outcome-cache key of `inst` (only its opcode, parameters and
    /// operand shapes are read) arriving at `level` with `resident` as a
    /// bit mask.
    fn new(level: usize, inst: &Instruction, resident: u32, shared: &[u32]) -> Self {
        let operands = inst.inputs.len() + inst.outputs.len();
        let mut dims = Vec::with_capacity(1 + 5 * operands);
        dims.push(inst.inputs.len() as u64);
        for r in inst.inputs.iter().chain(&inst.outputs) {
            let d = r.shape().dims();
            dims.push(d.len() as u64);
            dims.extend(d.iter().map(|&x| x as u64));
        }
        Key {
            level,
            op: inst.op,
            params: inst.params.stable_bits(),
            dims,
            resident,
            shared: shared.to_vec(),
        }
    }
}

/// Everything one step's timing arithmetic reads, with every address
/// resolved away. [`PerfSim::time_step`] computes a step's stage times
/// and stats delta from its key plus its children's outcomes, and those
/// outcomes are a pure function of `(level + 1, split pieces, resident
/// masks, share counts)` — all fixed by `children`. Two steps with equal
/// keys therefore time bit-identically, wherever their operands live.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StepKey {
    level: usize,
    /// LD bytes served over the per-child link.
    unique_bytes: u64,
    /// LD bytes of broadcast-shared operands, and their once-per-group
    /// share.
    shared_bytes: u64,
    shared_served: u64,
    /// Loads elided by the TTT (planned plus resident-operand loads).
    elided_bytes: u64,
    /// Whether the step lists any load (DMA latency applies).
    has_loads: bool,
    /// Local work as `[MAC ops, flops, operand bytes]` (MAC ops and bytes
    /// only at a leaf).
    local: Option<[u64; 3]>,
    /// Streaming work as `[flops, operand bytes]`.
    streaming: Option<[u64; 2]>,
    /// Reduction as `[partial bytes, partial count, ops, on LFU]`.
    reduce: Option<[u64; 4]>,
    /// WB bytes, including a reduction's parent-space result.
    store_bytes: u64,
    /// The RAW hazard [`schedule_pipeline`] reads, so a key covers
    /// everything the step contributes to its node's schedule.
    raw_dep_prev: bool,
    /// PD split id and per-child resident masks.
    children: Option<(u64, Vec<u32>)>,
}

/// A timed step: its stage times, its stats delta, and — on a profiled
/// run — each child's concatenation saving, replayed on every later
/// occurrence.
#[derive(Debug)]
struct StepEntry {
    times: StageTimes,
    stats: Stats,
    concat_saved: Vec<Option<f64>>,
}

/// Step-timing memo. A disabled memo never probes, so the naive path
/// times every step child by child.
#[derive(Debug, Default)]
struct StepMemo {
    enabled: bool,
    table: RefCell<HashMap<StepKey, Rc<StepEntry>, FxBuildHasher>>,
    probes: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Estimated heap bytes of the entries.
    bytes: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

fn add(c: &Cell<u64>, n: usize) {
    c.set(c.get() + n as u64);
}

/// Heap bytes of a stats block's per-level vector.
fn stats_heap_bytes(stats: &Stats) -> usize {
    stats.levels.capacity() * std::mem::size_of::<crate::LevelStats>()
}

/// Estimated heap bytes of one outcome-cache entry: the table slot, the
/// key's vectors and the shared outcome with its counters.
fn outcome_entry_bytes(key: &Key, outcome: &NodeOutcome) -> usize {
    std::mem::size_of::<(Key, Rc<NodeOutcome>)>()
        + key.dims.capacity() * 8
        + key.shared.capacity() * 4
        + std::mem::size_of::<NodeOutcome>()
        + 2 * std::mem::size_of::<usize>()
        + stats_heap_bytes(&outcome.stats)
}

/// Estimated heap bytes of one step-memo entry.
fn step_entry_bytes(key: &StepKey, entry: &StepEntry) -> usize {
    std::mem::size_of::<(StepKey, Rc<StepEntry>)>()
        + std::mem::size_of::<StepEntry>()
        + 2 * std::mem::size_of::<usize>()
        + key.children.as_ref().map_or(0, |(_, masks)| masks.capacity() * 4)
        + stats_heap_bytes(&entry.stats)
        + entry.concat_saved.capacity() * std::mem::size_of::<Option<f64>>()
}

impl PerfSim {
    /// A simulator over `cfg` with default options (memoized, no
    /// profiling).
    pub fn new(cfg: &MachineConfig) -> Self {
        PerfSim::with_options(cfg, SimOptions::default())
    }

    /// A simulator over (a copy of) `cfg` with `opts`.
    pub fn with_options(cfg: &MachineConfig, opts: SimOptions) -> Self {
        PerfSim {
            cfg: cfg.clone(),
            cache: RefCell::new(HashMap::default()),
            outcome_hits: Cell::new(0),
            outcome_misses: Cell::new(0),
            outcome_bytes: Cell::new(0),
            plan_memo: if opts.memo { PlanMemo::new() } else { PlanMemo::disabled() },
            steps: StepMemo { enabled: opts.memo, ..StepMemo::default() },
            arena: PlanArena::new(),
            parallel_tasks: Cell::new(0),
            planned_steps: Cell::new(0),
            profile: opts.profile.then(|| RefCell::new(ProfileState::default())),
        }
    }

    /// The accumulated profile with the `top` hottest signatures, or
    /// `None` when the simulator was built without profiling.
    pub fn profile_report(&self, makespan_s: f64, top: usize) -> Option<ProfileReport> {
        self.profile.as_ref().map(|p| {
            let mut report = p.borrow().report(makespan_s, top);
            report.shape_memo_hits = self.plan_memo.hits();
            report.shape_memo_misses = self.plan_memo.misses();
            report
        })
    }

    /// Cold-path counters accumulated so far.
    pub fn cold_stats(&self) -> ColdStats {
        ColdStats {
            shape_memo_hits: self.plan_memo.hits(),
            shape_memo_misses: self.plan_memo.misses(),
            arena_bytes: self.arena.high_water_bytes(),
            parallel_tasks: self.parallel_tasks.get(),
            step_memo_hits: self.steps.hits.get(),
            step_memo_misses: self.steps.misses.get(),
            outcome_hits: self.outcome_hits.get(),
            outcome_misses: self.outcome_misses.get(),
            planned_steps: self.planned_steps.get(),
        }
    }

    /// Estimated heap bytes held by the three tables (outcome cache,
    /// shape memo, step memo): what keeping this simulator costs.
    pub fn table_bytes(&self) -> u64 {
        self.outcome_bytes.get() + self.plan_memo.bytes() + self.steps.bytes.get()
    }

    /// Step-memo probes so far. Every probe ends as exactly one hit or
    /// one timed-and-cached miss, so once a simulation has succeeded
    /// `step_memo_probes() == step_memo_hits + step_memo_misses`.
    pub fn step_memo_probes(&self) -> u64 {
        self.steps.probes.get()
    }

    fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Simulates a whole program on the machine, data resident in global
    /// memory.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn simulate(&self, program: &Program) -> Result<NodeOutcome, CoreError> {
        let plan = self.plan_root(program)?;
        let out = self.time_plan(0, &plan, &[], &[], None)?;
        self.recycle(plan);
        Ok(out)
    }

    /// The run-length root plan of `program`.
    fn plan_root(&self, program: &Program) -> Result<RunPlan, CoreError> {
        let plan = self.planner().plan_root_runs(
            program.instructions(),
            program.extern_elems(),
            &self.plan_memo,
            &self.arena,
        )?;
        add(&self.planned_steps, plan.steps.len());
        Ok(plan)
    }

    /// Returns a consumed plan's buffers to the arena.
    fn recycle(&self, plan: RunPlan) {
        self.arena.put_steps(plan.steps);
    }

    /// [`PerfSim::simulate`] with the cold subtree work fanned out across
    /// up to `threads` worker threads.
    ///
    /// The root plan exposes the program's level-1 frontier; each *unique*
    /// uncached child signature is simulated on a worker with its own
    /// fresh [`PerfSim`], and the results are used to [`PerfSim::warm`]
    /// this simulator's outcome cache. The final sequential walk then
    /// finds every frontier subtree already cached. The merge is
    /// deterministic: an outcome is a pure function of `(config, level,
    /// signature, masks)`, so a warmed entry is bit-identical to what the
    /// sequential walk would have computed, and the walk order itself
    /// never changes. A worker that fails merely skips warming — the
    /// sequential walk recomputes (and re-reports) the failure
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn simulate_parallel(
        &self,
        program: &Program,
        threads: usize,
    ) -> Result<NodeOutcome, CoreError> {
        let plan = self.plan_root(program)?;
        if threads >= 2 {
            // Unique uncached level-1 signatures, in first-appearance order.
            let mut seen: std::collections::HashSet<Key, FxBuildHasher> =
                std::collections::HashSet::default();
            let mut tasks: Vec<ChildInst> = Vec::new();
            for step in &plan.steps {
                for child in step.child_insts() {
                    let key = Key::new(
                        1,
                        &child.inst,
                        mask(&child.resident_inputs),
                        &child.shared_inputs,
                    );
                    if self.cache.borrow().contains_key(&key) {
                        continue;
                    }
                    if seen.insert(key) {
                        tasks.push(child);
                    }
                }
            }
            if tasks.len() >= 2 {
                let cfg = self.cfg();
                let workers = threads.min(tasks.len());
                // Round-robin so similar-cost neighbours spread out.
                let mut chunks: Vec<Vec<&ChildInst>> = vec![Vec::new(); workers];
                for (i, t) in tasks.iter().enumerate() {
                    chunks[i % workers].push(t);
                }
                let results: Vec<Vec<Option<NodeOutcome>>> = std::thread::scope(|s| {
                    let handles: Vec<_> = chunks
                        .iter()
                        .map(|chunk| {
                            s.spawn(move || {
                                let sim = PerfSim::new(cfg);
                                chunk
                                    .iter()
                                    .map(|c| {
                                        sim.time_incoming(
                                            1,
                                            &c.inst,
                                            &c.resident_inputs,
                                            &c.shared_inputs,
                                        )
                                        .ok()
                                        .map(|rc| (*rc).clone())
                                    })
                                    .collect()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
                });
                for (chunk, outs) in chunks.iter().zip(results) {
                    for (c, out) in chunk.iter().zip(outs) {
                        if let Some(o) = out {
                            self.warm(1, &c.inst, &c.resident_inputs, &c.shared_inputs, o);
                            bump(&self.parallel_tasks);
                        }
                    }
                }
            }
        }
        let out = self.time_plan(0, &plan, &[], &[], None)?;
        self.recycle(plan);
        Ok(out)
    }

    /// [`PerfSim::simulate_parallel`] as a [`PerfReport`], with the
    /// cold-path counters of this call alone: the tables may hold what
    /// earlier calls computed, and those calls' counters are not this
    /// one's.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn simulate_report(
        &self,
        program: &Program,
        threads: usize,
    ) -> Result<(PerfReport, ColdStats), CoreError> {
        let before = self.cold_stats();
        let out = self.simulate_parallel(program, threads)?;
        Ok((self.report_of(out), self.cold_stats().since(&before)))
    }

    /// The report of a whole-program outcome on this machine.
    pub(crate) fn report_of(&self, out: NodeOutcome) -> PerfReport {
        let ops = out.stats.total_ops();
        let attained = if out.makespan > 0.0 { ops as f64 / out.makespan } else { 0.0 };
        let traffic = out.stats.root_traffic_bytes();
        PerfReport {
            makespan_seconds: out.makespan,
            steady_seconds: out.steady,
            attained_ops: attained,
            peak_fraction: attained / self.cfg.peak_ops(),
            root_intensity: if traffic > 0 { ops as f64 / traffic as f64 } else { f64::INFINITY },
            stats: out.stats,
        }
    }

    /// Simulates one parent-space instruction arriving at `level`.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn time_incoming(
        &self,
        level: usize,
        inst: &Instruction,
        resident: &[bool],
        shared: &[u32],
    ) -> Result<Rc<NodeOutcome>, CoreError> {
        self.probe(level, inst, mask(resident), shared, || inst.clone())
    }

    /// The outcome of an instruction arriving at `level`, from the outcome
    /// cache or by planning and timing it. `sig` supplies the signature
    /// (opcode, parameters, operand shapes); `inst` materialises the
    /// instruction with its real addresses, and runs only on a miss.
    fn probe(
        &self,
        level: usize,
        sig: &Instruction,
        resident: u32,
        shared: &[u32],
        inst: impl FnOnce() -> Instruction,
    ) -> Result<Rc<NodeOutcome>, CoreError> {
        let key = Key::new(level, sig, resident, shared);
        let resident_bits = || crate::plan::mask_bits(resident, sig.inputs.len());
        if let Some(hit) = self.cache.borrow().get(&key) {
            self.record_hit(level, sig, resident, shared);
            return Ok(Rc::clone(hit));
        }
        if let Some(p) = &self.profile {
            p.borrow_mut().begin_compute();
        }
        let inst = inst();
        let resident = resident_bits();
        let plan =
            self.planner().plan_instruction_runs(level, &inst, &self.plan_memo, &self.arena)?;
        add(&self.planned_steps, plan.steps.len());
        let outcome = Rc::new(self.time_plan(level, &plan, &resident, shared, Some(&inst))?);
        self.recycle(plan);
        if let Some(p) = &self.profile {
            p.borrow_mut().end_compute(level, &inst, &resident, shared, &outcome);
        }
        bump(&self.outcome_misses);
        add(&self.outcome_bytes, outcome_entry_bytes(&key, &outcome));
        self.cache.borrow_mut().insert(key, Rc::clone(&outcome));
        Ok(outcome)
    }

    /// Counts an outcome-cache hit on `sig` at `level` (and replays it on a
    /// profiled run).
    fn record_hit(&self, level: usize, sig: &Instruction, resident: u32, shared: &[u32]) {
        bump(&self.outcome_hits);
        if let Some(p) = &self.profile {
            let resident = crate::plan::mask_bits(resident, sig.inputs.len());
            p.borrow_mut().record_hit(level, sig, &resident, shared);
        }
    }

    /// Pre-populates the outcome memo with an externally computed subtree
    /// result (the parallel cold path computes unique signatures on worker
    /// threads, then warms the main simulator's cache with them). Sound
    /// because an outcome is a pure function of `(config, level,
    /// instruction signature, masks)` — a warmed entry is exactly what a
    /// sequential walk would have computed and cached.
    pub fn warm(
        &self,
        level: usize,
        inst: &Instruction,
        resident: &[bool],
        shared: &[u32],
        outcome: NodeOutcome,
    ) {
        let key = Key::new(level, inst, mask(resident), shared);
        if let std::collections::hash_map::Entry::Vacant(slot) = self.cache.borrow_mut().entry(key)
        {
            add(&self.outcome_bytes, outcome_entry_bytes(slot.key(), &outcome));
            slot.insert(Rc::new(outcome));
        }
    }

    /// The planner in use (for timeline extraction).
    pub fn planner(&self) -> Planner<'_> {
        Planner::new(&self.cfg)
    }

    /// Per-step stage durations of an incoming instruction's plan —
    /// diagnostic introspection for the experiment harness.
    #[doc(hidden)]
    pub fn debug_stage_times(
        &self,
        level: usize,
        inst: &Instruction,
        resident: &[bool],
        shared: &[u32],
    ) -> Result<Vec<StageTimes>, CoreError> {
        let plan = self.planner().plan_instruction(level, inst, false)?;
        Ok(self.stage_times_of_plan(level, &plan, resident, shared, Some(inst))?.0)
    }

    /// The timing of one step — stage durations, stats contribution and
    /// profile replay — from the step memo when an equal [`StepKey`] was
    /// timed before.
    ///
    /// `resident_regions` / `shared_regions` are the incoming
    /// instruction's resident and broadcast operands, recognised in the
    /// step's loads.
    ///
    /// # Errors
    ///
    /// Propagates planning errors from child recursion.
    fn step_entry(
        &self,
        level: usize,
        step: &Step,
        resident_regions: &[&Region],
        shared_regions: &[(&Region, u32)],
    ) -> Result<Rc<StepEntry>, CoreError> {
        let key = self.step_key(level, step, resident_regions, shared_regions);
        if self.steps.enabled {
            bump(&self.steps.probes);
            if let Some(hit) = self.steps.table.borrow().get(&key) {
                bump(&self.steps.hits);
                self.replay_children(level, step, hit);
                return Ok(Rc::clone(hit));
            }
        }
        let mut delta = Stats::new();
        let (times, concat_saved) = self.time_step(&key, step, &mut delta)?;
        let entry = Rc::new(StepEntry { times, stats: delta, concat_saved });
        if self.steps.enabled {
            bump(&self.steps.misses);
            add(&self.steps.bytes, step_entry_bytes(&key, &entry));
            self.steps.table.borrow_mut().insert(key, Rc::clone(&entry));
        }
        Ok(entry)
    }

    /// On a profiled run, replays what timing `step`'s children one by
    /// one records: every child is an outcome-cache hit by now.
    fn replay_children(&self, level: usize, step: &Step, entry: &StepEntry) {
        if let (Some(p), Some(c)) = (&self.profile, &step.children) {
            let mut p = p.borrow_mut();
            for (slot, saved) in entry.concat_saved.iter().enumerate() {
                let piece = c.split.piece(slot);
                let resident = crate::plan::mask_bits(c.resident[slot], piece.inputs.len());
                p.record_hit(level + 1, piece, &resident, c.split.shared(slot));
                if let Some(saved) = saved {
                    p.record_concat_saved(level, *saved);
                }
            }
        }
    }

    /// The [`StepKey`] of `step` at `level`: loads classified against the
    /// incoming resident/broadcast regions, the local, streaming and
    /// reduction work reduced to the numbers timing reads, and the
    /// children as split id plus resident masks.
    fn step_key(
        &self,
        level: usize,
        step: &Step,
        resident_regions: &[&Region],
        shared_regions: &[(&Region, u32)],
    ) -> StepKey {
        let opts = self.cfg().opts;
        let mut key = StepKey {
            level,
            unique_bytes: 0,
            shared_bytes: 0,
            shared_served: 0,
            elided_bytes: step.elided_bytes,
            has_loads: !step.loads.is_empty(),
            local: None,
            streaming: None,
            reduce: None,
            store_bytes: step.stores.iter().map(DmaOp::bytes).sum(),
            raw_dep_prev: step.raw_dep_prev,
            children: step.children.as_ref().map(|c| (c.split.id(), c.resident.clone())),
        };
        for l in &step.loads {
            if opts.ttt && resident_regions.iter().any(|r| r.may_overlap(&l.parent)) {
                key.elided_bytes += l.bytes();
                continue;
            }
            match shared_regions.iter().find(|(r, _)| r.may_overlap(&l.parent)) {
                Some((_, group)) => {
                    key.shared_bytes += l.bytes();
                    key.shared_served += l.bytes() / (*group as u64).max(1);
                }
                None => key.unique_bytes += l.bytes(),
            }
        }
        key.local = step.local_exec.as_ref().map(|inst| {
            if self.cfg().is_leaf(level) {
                [cost::mac_ops(inst), cost::flops(inst), inst.operand_bytes()]
            } else {
                [0, cost::flops(inst), 0]
            }
        });
        key.streaming = step.streaming_exec.as_ref().map(|i| [cost::flops(i), i.operand_bytes()]);
        if let Some(r) = &step.reduce {
            let partial_bytes = r.partials.iter().flat_map(|v| v.iter()).map(Region::bytes).sum();
            key.reduce = Some([partial_bytes, r.partials.len() as u64, r.ops, r.on_lfu as u64]);
            if r.output_space == Space::Parent {
                key.store_bytes += r.outputs.iter().map(Region::bytes).sum::<u64>();
            }
        }
        key
    }

    /// Times one step from its key, probing its children's outcomes in
    /// slot order. Returns the stage times and, on a profiled run, each
    /// child's concatenation saving.
    fn time_step(
        &self,
        key: &StepKey,
        step: &Step,
        stats: &mut Stats,
    ) -> Result<(StageTimes, Vec<Option<f64>>), CoreError> {
        let cfg = self.cfg();
        let opts = cfg.opts;
        let level = key.level;
        let is_leaf = cfg.is_leaf(level);
        let is_root = level == 0;
        let mut t = StageTimes::default();

        // --- link parameters -------------------------------------------
        let (link_bw, full_bw, dma_lat) = if is_root {
            (f64::INFINITY, f64::INFINITY, 0.0)
        } else {
            let parent = &cfg.levels[level - 1];
            let per_child = parent.bw_bytes / parent.fanout.max(1) as f64;
            let lat =
                if is_leaf { cfg.leaf.dma_latency_s } else { cfg.levels[level].dma_latency_s };
            (per_child, parent.bw_bytes, lat)
        };
        let decode = if is_leaf { cfg.leaf.decode_s } else { cfg.levels[level].decode_s };
        let lfu_rate = if is_leaf {
            cfg.leaf.vec_ops
        } else {
            let l = &cfg.levels[level];
            (l.lfu_lanes as f64).max(0.0) * l.lfu_lane_ops
        };
        let local_bw = if is_leaf { cfg.leaf.bw_bytes } else { cfg.levels[level].bw_bytes };

        t.id = decode;

        // --- LD ----------------------------------------------------------
        let (unique_bytes, shared_bytes, shared_served) =
            (key.unique_bytes, key.shared_bytes, key.shared_served);
        let (ld_time, link_in_bytes, bcast_saved) = if opts.broadcast {
            (
                unique_bytes as f64 / link_bw + shared_bytes as f64 / full_bw,
                unique_bytes + shared_served,
                shared_bytes - shared_served,
            )
        } else {
            ((unique_bytes + shared_bytes) as f64 / link_bw, unique_bytes + shared_bytes, 0)
        };
        t.ld = ld_time + if key.has_loads { dma_lat } else { 0.0 };

        // --- EX ------------------------------------------------------------
        if let Some([mac, flops, bytes]) = key.local {
            if is_leaf {
                let vec = flops.saturating_sub(mac);
                let compute = mac as f64 / cfg.leaf.mac_ops + vec as f64 / cfg.leaf.vec_ops;
                let scratch = bytes as f64 / local_bw;
                t.ex_full = compute.max(scratch);
                t.ex_steady = t.ex_full;
                stats.mac_ops += mac;
                stats.vec_ops += vec;
            } else {
                // LFU-routed instruction executes in the RD slot.
                t.rd += flops as f64 / lfu_rate.max(1.0);
                stats.root_level_mut().lfu_ops += flops;
            }
        }
        let mut concat_saved = Vec::new();
        if let Some(c) = &step.children {
            let fanout = cfg.fanout_at(level).max(1);
            let mut slot_full = vec![0.0f64; fanout];
            let mut slot_steady = vec![0.0f64; fanout];
            let mut slot_first = vec![true; fanout];
            // Children of one class and resident mask share a signature:
            // after the first, each is an outcome-cache hit.
            let mut known: Vec<(usize, u32, Rc<NodeOutcome>)> = Vec::new();
            for i in 0..c.split.len() {
                let slot = i % fanout;
                let (piece, resident, shared) =
                    (c.split.piece(i), c.resident[i], c.split.shared(i));
                let class = c.split.class(i);
                let outcome = match known.iter().find(|(k, r, _)| *k == class && *r == resident) {
                    Some((_, _, outcome)) => {
                        self.record_hit(level + 1, piece, resident, shared);
                        Rc::clone(outcome)
                    }
                    None => {
                        let outcome =
                            self.probe(level + 1, piece, resident, shared, || step.child(i).inst)?;
                        known.push((class, resident, Rc::clone(&outcome)));
                        outcome
                    }
                };
                stats.absorb_child(&outcome.stats);
                let mut saved = None;
                if slot_first[slot] {
                    slot_full[slot] += outcome.makespan;
                    slot_first[slot] = false;
                } else if opts.concat {
                    slot_full[slot] += outcome.steady;
                    saved = Some(outcome.makespan - outcome.steady);
                } else {
                    slot_full[slot] += outcome.makespan;
                }
                slot_steady[slot] += outcome.steady;
                if let Some(p) = &self.profile {
                    if let Some(saved) = saved {
                        p.borrow_mut().record_concat_saved(level, saved);
                    }
                    concat_saved.push(saved);
                }
            }
            t.ex_full += slot_full.iter().copied().fold(0.0, f64::max);
            t.ex_steady += slot_steady.iter().copied().fold(0.0, f64::max);
        }

        // --- RD -------------------------------------------------------------
        if let Some([ops, bytes]) = key.streaming {
            let stream_bw = if is_root { local_bw } else { link_bw };
            t.rd += (bytes as f64 / stream_bw).max(ops as f64 / lfu_rate.max(1.0));
            stats.root_level_mut().lfu_ops += ops;
        }
        if let Some([partial_bytes, pieces, ops, on_lfu]) = key.reduce {
            // §8 extension: when the partials were just produced by this
            // step's own children (a PD-level reduction), sibling links
            // let them combine in a log-depth tree across the FFUs — the
            // parent memory never sees the partial traffic.
            let sibling_time =
                (opts.sibling_links && key.children.is_some() && pieces >= 2).then(|| {
                    let fanout = cfg.fanout_at(level).max(1) as f64;
                    let sibling_bw = local_bw / fanout;
                    let per_piece = partial_bytes as f64 / pieces as f64;
                    let depth = (pieces as f64).log2().ceil().max(1.0);
                    depth * per_piece / sibling_bw
                        + ops as f64 / self.planner().subtree_peak_ops(level + 1).max(1.0)
                });
            let lfu_time = {
                let lfu_t = ops as f64 / lfu_rate.max(1.0);
                let mem_t = 2.0 * partial_bytes as f64 / local_bw;
                lfu_t.max(mem_t)
            };
            let commissioned_time = 3.0 * partial_bytes as f64 / local_bw
                + ops as f64 / self.planner().subtree_peak_ops(level + 1).max(1.0);
            let on_lfu = on_lfu != 0;
            let htree_time = if on_lfu { lfu_time } else { commissioned_time };
            match sibling_time {
                Some(sib) if sib < htree_time => {
                    t.rd += sib;
                    stats.root_level_mut().sibling_bytes += partial_bytes;
                }
                _ => {
                    t.rd += htree_time;
                    if on_lfu {
                        stats.root_level_mut().lfu_ops += ops;
                    }
                }
            }
        }

        // --- WB ---------------------------------------------------------------
        let store_bytes = key.store_bytes;
        t.wb = store_bytes as f64 / link_bw + if store_bytes > 0 { dma_lat } else { 0.0 };

        // --- stats -------------------------------------------------------------
        let own = stats.root_level_mut();
        own.insts += 1;
        own.dma_bytes += link_in_bytes + store_bytes;
        own.elided_bytes += key.elided_bytes;
        own.broadcast_saved_bytes += bcast_saved;
        Ok((t, concat_saved))
    }

    /// Times a run-length plan with the in-order pipeline scheduler,
    /// walking its runs in step order. Each materialised step is timed
    /// once; every later occurrence reuses that timing, and the pipeline,
    /// the busy sums and the profile still see every step in turn, so the
    /// result is bit-identical to timing the explicit plan.
    pub(crate) fn time_plan(
        &self,
        level: usize,
        plan: &RunPlan,
        resident: &[bool],
        shared: &[u32],
        incoming: Option<&Instruction>,
    ) -> Result<NodeOutcome, CoreError> {
        let (res_regions, sh_regions) = incoming_regions(incoming, resident, shared);
        let mut walk = Walk {
            timed: vec![None; plan.steps.len()],
            block_stats: vec![None; plan.blocks.len()],
            counting: true,
            pipe: Pipeline::new(self.cfg().opts.concat),
            busy: [-0.0; 4],
            stats: Stats::new(),
            seconds: StageSeconds::default(),
            concat_saved: 0.0,
        };
        self.walk_runs(level, plan, &plan.runs, &res_regions, &sh_regions, &mut walk)?;
        if let Some(p) = &self.profile {
            let own_bytes = walk.stats.levels.first().map(|l| l.dma_bytes).unwrap_or(0);
            let mut state = p.borrow_mut();
            state.record_plan(level, walk.seconds, own_bytes);
            if walk.concat_saved > 0.0 {
                state.record_concat_saved(level, walk.concat_saved);
            }
        }
        let [id, dma, ex, rd] = walk.busy;
        Ok(NodeOutcome {
            makespan: walk.pipe.makespan,
            steady: id.max(dma).max(ex).max(rd),
            stats: walk.stats,
        })
    }

    fn walk_runs(
        &self,
        level: usize,
        plan: &RunPlan,
        runs: &[Run],
        resident_regions: &[&Region],
        shared_regions: &[(&Region, u32)],
        walk: &mut Walk,
    ) -> Result<(), CoreError> {
        for run in runs {
            for _ in 0..run.count {
                match run.entry {
                    Entry::Step(i) => {
                        let step = &plan.steps[i];
                        let entry = match &walk.timed[i] {
                            Some(entry) => {
                                self.replay_children(level, step, entry);
                                Rc::clone(entry)
                            }
                            None => {
                                let entry =
                                    self.step_entry(level, step, resident_regions, shared_regions)?;
                                walk.timed[i] = Some(Rc::clone(&entry));
                                entry
                            }
                        };
                        walk.step(&entry, step.raw_dep_prev, self.profile.is_some());
                    }
                    Entry::Block(b) => {
                        // A block adds the same stats wherever it recurs
                        // (integer sums): total them on its first walk and
                        // add the total on later ones.
                        let total = walk.block_stats[b].clone();
                        let counting = std::mem::replace(&mut walk.counting, total.is_none());
                        let outer = std::mem::take(&mut walk.stats);
                        let blk = &plan.blocks[b];
                        self.walk_runs(level, plan, blk, resident_regions, shared_regions, walk)?;
                        let total = total.unwrap_or_else(|| {
                            let total = Rc::new(std::mem::take(&mut walk.stats));
                            walk.block_stats[b] = Some(Rc::clone(&total));
                            total
                        });
                        walk.stats = outer;
                        walk.counting = counting;
                        if counting {
                            walk.stats.absorb(&total);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Stage durations for every step of an explicit plan.
    pub(crate) fn stage_times_of_plan(
        &self,
        level: usize,
        plan: &NodePlan,
        resident: &[bool],
        shared: &[u32],
        incoming: Option<&Instruction>,
    ) -> Result<(Vec<StageTimes>, Stats), CoreError> {
        let (res_regions, sh_regions) = incoming_regions(incoming, resident, shared);
        let mut stats = Stats::new();
        let times = plan
            .steps
            .iter()
            .map(|s| {
                let entry = self.step_entry(level, s, &res_regions, &sh_regions)?;
                stats.absorb(&entry.stats);
                Ok(entry.times)
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok((times, stats))
    }
}

/// The incoming instruction's resident operands, and its broadcast
/// operands with their group sizes.
fn incoming_regions<'a>(
    incoming: Option<&'a Instruction>,
    resident: &[bool],
    shared: &[u32],
) -> (Vec<&'a Region>, Vec<(&'a Region, u32)>) {
    match incoming {
        Some(inst) => (
            inst.inputs
                .iter()
                .zip(resident.iter().chain(std::iter::repeat(&false)))
                .filter(|(_, &m)| m)
                .map(|(r, _)| r)
                .collect(),
            inst.inputs
                .iter()
                .zip(shared.iter().chain(std::iter::repeat(&1)))
                .filter(|(_, &g)| g > 1)
                .map(|(r, &g)| (r, g))
                .collect(),
        ),
        None => (Vec::new(), Vec::new()),
    }
}

/// A run-length plan being timed in step order.
struct Walk {
    /// Per materialised step, its timing once its first occurrence has
    /// been timed.
    timed: Vec<Option<Rc<StepEntry>>>,
    /// Per block, its stats total once its first walk has summed it.
    block_stats: Vec<Option<Rc<Stats>>>,
    /// Whether steps add their stats (off inside a block whose total is
    /// known).
    counting: bool,
    pipe: Pipeline,
    /// Busy time of the decoder, the DMA engine (LD + WB), the FFUs
    /// (steady EX) and the LFU (RD), summed in step order from `-0.0`
    /// as `f64`'s `Sum` does: their maximum is the steady-state spacing.
    busy: [f64; 4],
    stats: Stats,
    /// On a profiled run: stage seconds, and the step-level
    /// concatenation savings (mirroring the pipeline's admission rule).
    seconds: StageSeconds,
    concat_saved: f64,
}

impl Walk {
    fn step(&mut self, entry: &StepEntry, raw_dep_prev: bool, profile: bool) {
        let t = &entry.times;
        let first = self.pipe.admitted == 0;
        self.pipe.admit(t, raw_dep_prev);
        self.busy[0] += t.id;
        self.busy[1] += t.ld + t.wb;
        self.busy[2] += t.ex_steady;
        self.busy[3] += t.rd;
        if self.counting {
            self.stats.absorb(&entry.stats);
        }
        if profile {
            self.seconds.add_times(t);
            if self.pipe.concat && !first && !raw_dep_prev {
                self.concat_saved += (t.ex_full - t.ex_steady.min(t.ex_full)).max(0.0);
            }
        }
    }
}

/// Simulators kept across calls: one [`PerfSim`] per machine (keyed by
/// [`MachineConfig::fingerprint`], which covers every field timing
/// reads), so a program reuses the subtree outcomes, split decisions and
/// step timings that earlier programs on the same machine computed —
/// every split decision included.
///
/// The tables are capped by [`SimCache::BUDGET_BYTES`]: once a call
/// leaves them larger, every simulator is dropped at once — one
/// generation — and the next call starts cold. A reset can never change
/// a result: every entry is a pure function of its machine and key, and
/// PD split ids are process-unique, so no key computed before a reset
/// can match an entry computed after it. A call that panics drops its
/// machine's simulator with it.
///
/// Not `Send`: a cache belongs to the thread that fills it.
#[derive(Debug, Default)]
pub struct SimCache {
    sims: Vec<(u64, PerfSim)>,
    resets: u64,
}

impl SimCache {
    /// Estimated table bytes above which the cache starts a new
    /// generation.
    pub const BUDGET_BYTES: u64 = 8 << 20;

    /// An empty cache.
    pub fn new() -> Self {
        SimCache::default()
    }

    /// [`PerfSim::simulate_report`] on `cfg`'s kept simulator (a new one
    /// for a machine not seen since the last reset).
    ///
    /// # Errors
    ///
    /// Propagates planning errors. A failed call keeps the tables: what
    /// it had finished computing is as pure as any other entry.
    pub fn simulate(
        &mut self,
        cfg: &MachineConfig,
        program: &Program,
        threads: usize,
    ) -> Result<(PerfReport, ColdStats), CoreError> {
        let fingerprint = cfg.fingerprint();
        let kept = self.sims.iter().position(|(f, sim)| {
            let c = &sim.cfg;
            *f == fingerprint && c.levels == cfg.levels && c.leaf == cfg.leaf && c.opts == cfg.opts
        });
        // Out of the cache for the call, so an unwinding call drops it.
        let sim = match kept {
            Some(i) => self.sims.swap_remove(i).1,
            None => PerfSim::new(cfg),
        };
        let result = sim.simulate_report(program, threads);
        self.sims.push((fingerprint, sim));
        if self.table_bytes() > SimCache::BUDGET_BYTES {
            self.reset();
        }
        result
    }

    /// Estimated bytes held by every kept simulator's tables.
    pub fn table_bytes(&self) -> u64 {
        self.sims.iter().map(|(_, sim)| sim.table_bytes()).sum()
    }

    /// Generations ended so far (budget overruns and explicit resets).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Drops every kept simulator and its tables: the next call on any
    /// machine starts cold.
    pub fn reset(&mut self) {
        self.sims.clear();
        self.resets += 1;
    }
}

/// The in-order pipeline scheduler, one step at a time. Resources: the
/// decoder (ID), the DMA engine (LD+WB), the FFUs (EX) and the LFU (RD).
/// Three recycled memory segments bound the number of in-flight steps;
/// RAW hazards stall LD until the producer's WB. Only the last
/// [`RECYCLED_SEGMENTS`] schedules are kept, so a plan of any length is
/// scheduled in constant memory.
#[derive(Debug)]
pub(crate) struct Pipeline {
    concat: bool,
    admitted: usize,
    id_end: f64,
    dma_free: f64,
    ex_end_prev: f64,
    rd_end_prev: f64,
    /// Latest WB or RD end so far.
    pub(crate) makespan: f64,
    /// Step `i`'s schedule at `i % RECYCLED_SEGMENTS`.
    recent: [StepSchedule; RECYCLED_SEGMENTS],
}

impl Pipeline {
    pub(crate) fn new(concat: bool) -> Self {
        Pipeline {
            concat,
            admitted: 0,
            id_end: 0.0,
            dma_free: 0.0,
            ex_end_prev: 0.0,
            rd_end_prev: 0.0,
            makespan: 0.0,
            recent: [StepSchedule::default(); RECYCLED_SEGMENTS],
        }
    }

    /// Schedules the next step.
    pub(crate) fn admit(&mut self, t: &StageTimes, raw_dep_prev: bool) -> StepSchedule {
        let i = self.admitted;
        let id_start = self.id_end;
        self.id_end += t.id;
        let mut ld_start = self.id_end.max(self.dma_free);
        if raw_dep_prev && i > 0 {
            let prev = &self.recent[(i - 1) % RECYCLED_SEGMENTS];
            ld_start = ld_start.max(prev.wb.1).max(prev.rd.1);
        }
        if i >= RECYCLED_SEGMENTS {
            ld_start = ld_start.max(self.recent[i % RECYCLED_SEGMENTS].wb.1);
        }
        let ld_end = ld_start + t.ld;
        self.dma_free = ld_end;
        let ex_dur = if i > 0 && self.concat && !raw_dep_prev {
            t.ex_steady.min(t.ex_full)
        } else {
            t.ex_full
        };
        let ex_start = ld_end.max(self.ex_end_prev);
        let ex_end = ex_start + ex_dur;
        self.ex_end_prev = ex_end;
        let rd_start = ex_end.max(self.rd_end_prev);
        let rd_end = rd_start + t.rd;
        self.rd_end_prev = rd_end;
        let wb_start = rd_end.max(self.dma_free);
        let wb_end = wb_start + t.wb;
        self.dma_free = wb_end;
        let sched = StepSchedule {
            id: (id_start, self.id_end),
            ld: (ld_start, ld_end),
            ex: (ex_start, ex_end),
            rd: (rd_start, rd_end),
            wb: (wb_start, wb_end),
        };
        self.makespan = self.makespan.max(wb_end).max(rd_end);
        self.recent[i % RECYCLED_SEGMENTS] = sched;
        self.admitted += 1;
        sched
    }
}

/// Every step's absolute schedule and the makespan of an explicit plan
/// (see [`Pipeline`]).
pub(crate) fn schedule_pipeline(
    plan: &NodePlan,
    times: &[StageTimes],
    concat: bool,
) -> (Vec<StepSchedule>, f64) {
    let mut pipe = Pipeline::new(concat);
    let sched = plan.steps.iter().zip(times).map(|(s, t)| pipe.admit(t, s.raw_dep_prev)).collect();
    (sched, pipe.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_isa::{Opcode, ProgramBuilder};

    fn matmul_program(m: usize, k: usize, n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![m, k]);
        let w = b.alloc("w", vec![k, n]);
        b.apply(Opcode::MatMul, [a, w]).unwrap();
        b.build()
    }

    #[test]
    fn simulation_reports_positive_time_and_work() {
        let cfg = MachineConfig::cambricon_f1();
        let sim = PerfSim::new(&cfg);
        let out = sim.simulate(&matmul_program(512, 512, 512)).unwrap();
        assert!(out.makespan > 0.0);
        assert!(out.steady > 0.0);
        assert!(out.steady <= out.makespan + 1e-12);
        assert_eq!(out.stats.mac_ops, 2 * 512u64.pow(3));
    }

    #[test]
    fn bigger_work_takes_longer() {
        let cfg = MachineConfig::cambricon_f1();
        let sim = PerfSim::new(&cfg);
        let small = sim.simulate(&matmul_program(256, 256, 256)).unwrap();
        let big = sim.simulate(&matmul_program(1024, 1024, 1024)).unwrap();
        assert!(big.makespan > small.makespan);
    }

    #[test]
    fn f100_outruns_f1_on_large_matmul() {
        let p = matmul_program(4096, 4096, 4096);
        let f1 = MachineConfig::cambricon_f1();
        let f100 = MachineConfig::cambricon_f100();
        let t1 = PerfSim::new(&f1).simulate(&p).unwrap().makespan;
        let t100 = PerfSim::new(&f100).simulate(&p).unwrap().makespan;
        assert!(
            t100 < t1,
            "the 956-Top machine ({t100:.6}s) should beat the 14.9-Top one ({t1:.6}s)"
        );
    }

    #[test]
    fn utilization_is_physical() {
        // Attained throughput can never exceed peak.
        let cfg = MachineConfig::cambricon_f1();
        let sim = PerfSim::new(&cfg);
        let p = matmul_program(2048, 2048, 2048);
        let out = sim.simulate(&p).unwrap();
        let attained = out.stats.mac_ops as f64 / out.makespan;
        assert!(attained <= cfg.peak_ops() * 1.0001, "attained {attained:e} > peak");
        // And a large matmul should reach a decent fraction of peak.
        assert!(
            attained >= 0.15 * cfg.peak_ops(),
            "attained only {:.1}% of peak",
            100.0 * attained / cfg.peak_ops()
        );
    }

    #[test]
    fn ttt_ablation_increases_traffic() {
        let p = matmul_program(1024, 1024, 1024);
        let on = MachineConfig::cambricon_f1();
        let off = MachineConfig::cambricon_f1()
            .with_opts(crate::OptFlags { ttt: false, ..Default::default() });
        let s_on = PerfSim::new(&on).simulate(&p).unwrap();
        let s_off = PerfSim::new(&off).simulate(&p).unwrap();
        let t_on = s_on.stats.root_traffic_bytes();
        let t_off = s_off.stats.root_traffic_bytes();
        assert!(t_off >= t_on, "TTT should never increase traffic ({t_on} vs {t_off})");
        assert!(s_off.makespan >= s_on.makespan * 0.999);
    }

    #[test]
    fn broadcast_ablation_increases_local_traffic() {
        let mut b = ProgramBuilder::new();
        // Batched conv: weights are broadcast-shared among FFUs.
        let x = b.alloc("x", vec![32, 14, 14, 64]);
        let w = b.alloc("w", vec![3, 3, 64, 64]);
        b.apply_with(Opcode::Cv2D, cf_isa::OpParams::Conv(cf_isa::ConvParams::same(1, 1)), [x, w])
            .unwrap();
        let p = b.build();
        let on = MachineConfig::cambricon_f1();
        let off = MachineConfig::cambricon_f1()
            .with_opts(crate::OptFlags { broadcast: false, ..Default::default() });
        let s_on = PerfSim::new(&on).simulate(&p).unwrap();
        let s_off = PerfSim::new(&off).simulate(&p).unwrap();
        let saved: u64 = s_on.stats.levels.iter().map(|l| l.broadcast_saved_bytes).sum();
        assert!(saved > 0, "broadcasting should save parent-memory reads");
        let traffic = |s: &NodeOutcome| s.stats.levels.iter().map(|l| l.dma_bytes).sum::<u64>();
        assert!(traffic(&s_off) > traffic(&s_on));
    }

    #[test]
    fn concat_ablation_never_speeds_up() {
        let p = matmul_program(1024, 1024, 1024);
        let on = MachineConfig::cambricon_f1();
        let off = MachineConfig::cambricon_f1()
            .with_opts(crate::OptFlags { concat: false, ..Default::default() });
        let t_on = PerfSim::new(&on).simulate(&p).unwrap().makespan;
        let t_off = PerfSim::new(&off).simulate(&p).unwrap().makespan;
        assert!(t_off >= t_on * 0.999, "concat off ({t_off}) should not beat on ({t_on})");
    }

    /// `(makespan, total sibling bytes)` of `program` on `cfg`.
    fn makespan_and_sibling_bytes(cfg: MachineConfig, program: &Program) -> (f64, u64) {
        let out = PerfSim::new(&cfg).simulate(program).expect("simulation");
        (out.makespan, out.stats.levels.iter().map(|l| l.sibling_bytes).sum())
    }

    #[test]
    fn sibling_links_never_hurt_and_help_merges() {
        // §8 extension: a merge-reduction workload (sorts) benefits; the
        // feature may never slow anything down (RC picks the better path).
        let mut b = ProgramBuilder::new();
        let x = b.alloc("x", vec![1 << 20]);
        let y = b.alloc("y", vec![1 << 20]);
        b.emit(Opcode::Sort1D, [x], [y]).unwrap();
        let p = b.build();
        let base = makespan_and_sibling_bytes(MachineConfig::cambricon_f100(), &p);
        let ext = makespan_and_sibling_bytes(
            MachineConfig::cambricon_f100().with_opts(crate::OptFlags::with_sibling_links()),
            &p,
        );
        assert!(ext.0 <= base.0 * 1.001, "sibling links slowed sorts: {} vs {}", ext.0, base.0);
        assert!(ext.1 > 0, "sibling traffic should be recorded");
        // And a plain matmul is unaffected.
        let mm = matmul_program(1024, 1024, 1024);
        let b0 = makespan_and_sibling_bytes(MachineConfig::cambricon_f1(), &mm);
        let b1 = makespan_and_sibling_bytes(
            MachineConfig::cambricon_f1().with_opts(crate::OptFlags::with_sibling_links()),
            &mm,
        );
        assert!((b0.0 - b1.0).abs() / b0.0 < 0.05);
    }

    #[test]
    fn parallel_simulate_is_bit_identical_and_fans_out() {
        // Several distinct-shape instructions so the level-1 frontier has
        // multiple unique signatures to fan out.
        let mut b = ProgramBuilder::new();
        for n in [256usize, 384, 512] {
            let a = b.alloc(format!("a{n}"), vec![n, n]);
            let w = b.alloc(format!("w{n}"), vec![n, n]);
            b.apply(Opcode::MatMul, [a, w]).unwrap();
        }
        let p = b.build();
        let cfg = MachineConfig::cambricon_f1();
        let seq = PerfSim::new(&cfg);
        let seq_out = seq.simulate(&p).unwrap();
        let par = PerfSim::new(&cfg);
        let par_out = par.simulate_parallel(&p, 4).unwrap();
        assert_eq!(seq_out.makespan.to_bits(), par_out.makespan.to_bits());
        assert_eq!(seq_out.steady.to_bits(), par_out.steady.to_bits());
        assert_eq!(seq_out.stats, par_out.stats);
        assert!(par.cold_stats().parallel_tasks >= 2, "frontier should fan out");
        assert_eq!(seq.cold_stats().parallel_tasks, 0);
    }

    #[test]
    fn step_memo_never_merges_steps_that_time_differently() {
        // Steps that differ in one timed quantity only — loads listed or
        // not, elided bytes, stores — must each time exactly as the naive
        // path times them, even when an earlier step filled the memo.
        let cfg = MachineConfig::cambricon_f1();
        let memo = PerfSim::new(&cfg);
        let naive = PerfSim::with_options(&cfg, SimOptions::NAIVE);
        let region = Region::contiguous(0, cf_tensor::Shape::new(vec![64]));
        let dma = DmaOp { parent: region.clone(), local: region.clone() };
        let steps = [
            // The load is resident at the node: elided, but still listed.
            Step { loads: vec![dma.clone()], ..Step::default() },
            Step { elided_bytes: region.bytes(), ..Step::default() },
            Step { elided_bytes: 2 * region.bytes(), ..Step::default() },
            Step { stores: vec![dma], ..Step::default() },
            Step::default(),
        ];
        let bits =
            |t: StageTimes| [t.id, t.ld, t.ex_full, t.ex_steady, t.rd, t.wb].map(f64::to_bits);
        for step in &steps {
            let m = memo.step_entry(1, step, &[&region], &[]).unwrap();
            let n = naive.step_entry(1, step, &[&region], &[]).unwrap();
            assert_eq!(bits(m.times), bits(n.times), "{step:?}");
            assert_eq!(m.stats, n.stats, "{step:?}");
        }
        let cold = memo.cold_stats();
        assert_eq!((cold.step_memo_hits, cold.step_memo_misses), (0, steps.len() as u64));
    }

    #[test]
    fn pipeline_scheduler_monotone() {
        // Synthetic check of the scheduler: stages never go backwards and
        // the DMA engine never overlaps itself.
        let plan = NodePlan {
            steps: vec![Step::default(), Step::default(), Step::default()],
            local_elems: 0,
        };
        let times =
            vec![
                StageTimes { id: 1.0, ld: 2.0, ex_full: 5.0, ex_steady: 3.0, rd: 1.0, wb: 2.0 };
                3
            ];
        let (sched, makespan) = schedule_pipeline(&plan, &times, true);
        for w in sched.windows(2) {
            assert!(w[1].ld.0 >= w[0].ld.0);
            assert!(w[1].ex.0 >= w[0].ex.1 - 1e-12);
        }
        // DMA serialisation: LD(i+1) does not start before WB(i-?) overlaps.
        assert!(makespan >= 5.0 + 3.0 + 3.0);
        assert!(sched[2].wb.1 <= makespan + 1e-12);
    }
}
