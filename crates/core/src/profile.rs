//! Opt-in profiling of the performance simulator.
//!
//! The perf model already computes everything an attribution view needs
//! — per-step stage durations (§3.4's ID/LD/EX/RD/WB pipeline), link
//! traffic, memoization-table activity, pipeline-concatenation savings
//! (§3.6) — and then throws it away, surfacing only makespan and steady
//! spacing. This module keeps it: a `ProfileState` threaded through
//! [`crate::perf::PerfSim`] (one `Option` branch on the disabled path)
//! accumulates
//!
//! * busy seconds per (hierarchy level × pipeline stage) and link
//!   traffic per level, **weighted by memoized reuse**: when a cached
//!   subtree outcome is reused, its recorded per-level contribution is
//!   replayed, so the attribution matches the simulated execution, not
//!   just the unique planning work;
//! * memoization hits and misses per level;
//! * a decomposition "flamegraph": per instruction signature, how often
//!   it was planned vs. served from the memo table and the inclusive
//!   simulated seconds it accounts for;
//! * pipeline-concatenation savings per level (the makespan-to-steady
//!   gap claimed at every concatenated admit).
//!
//! The result is a [`ProfileReport`] (`render_table` for humans, fields
//! for exporters) plus a Chrome Trace Event builder
//! ([`chrome_trace_events`]) that renders a [`Timeline`] — coarse
//! DMA/compute rows and fine per-stage intervals — into a
//! `chrome://tracing` / Perfetto-loadable JSON array.

use std::collections::HashMap;

use cf_isa::Instruction;
use serde_json::{Map, Value};

use crate::perf::{NodeOutcome, StageTimes};
use crate::timeline::{EventKind, Timeline};
use crate::MachineConfig;

/// One stage of the five-stage fractal pipeline (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeStage {
    /// Instruction decode.
    Id,
    /// DMA loads from the parent memory.
    Ld,
    /// Child (FFU) execution — recursive pipelines, or the leaf kernel.
    Ex,
    /// Reduction / LFU work (`g(·)`).
    Rd,
    /// DMA writebacks to the parent memory.
    Wb,
}

impl PipeStage {
    /// All stages in pipeline order.
    pub const ALL: [PipeStage; 5] =
        [PipeStage::Id, PipeStage::Ld, PipeStage::Ex, PipeStage::Rd, PipeStage::Wb];

    /// Lower-case stage mnemonic (`id`, `ld`, `ex`, `rd`, `wb`).
    pub fn name(self) -> &'static str {
        match self {
            PipeStage::Id => "id",
            PipeStage::Ld => "ld",
            PipeStage::Ex => "ex",
            PipeStage::Rd => "rd",
            PipeStage::Wb => "wb",
        }
    }

    /// Stable index in pipeline order (0..5).
    pub fn index(self) -> usize {
        match self {
            PipeStage::Id => 0,
            PipeStage::Ld => 1,
            PipeStage::Ex => 2,
            PipeStage::Rd => 3,
            PipeStage::Wb => 4,
        }
    }
}

/// Busy seconds attributed to each pipeline stage.
///
/// EX is attributed at its cold (`ex_full`) cost; what pipeline
/// concatenating saves on top is reported separately as
/// [`LevelProfile::concat_saved_s`]. Stages overlap in time, so the
/// per-stage sum generally exceeds the makespan — this is busy-time
/// attribution, not a partition of wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSeconds {
    /// Decode seconds.
    pub id: f64,
    /// Parent-link load seconds.
    pub ld: f64,
    /// Child/kernel execution seconds (cold).
    pub ex: f64,
    /// Reduction/LFU seconds.
    pub rd: f64,
    /// Parent-link writeback seconds.
    pub wb: f64,
}

impl StageSeconds {
    /// Seconds of one stage.
    pub fn get(&self, stage: PipeStage) -> f64 {
        match stage {
            PipeStage::Id => self.id,
            PipeStage::Ld => self.ld,
            PipeStage::Ex => self.ex,
            PipeStage::Rd => self.rd,
            PipeStage::Wb => self.wb,
        }
    }

    /// Sum over all stages.
    pub fn total(&self) -> f64 {
        self.id + self.ld + self.ex + self.rd + self.wb
    }

    pub(crate) fn add_times(&mut self, t: &StageTimes) {
        self.id += t.id;
        self.ld += t.ld;
        self.ex += t.ex_full;
        self.rd += t.rd;
        self.wb += t.wb;
    }

    fn merge(&mut self, other: &StageSeconds) {
        self.id += other.id;
        self.ld += other.ld;
        self.ex += other.ex;
        self.rd += other.rd;
        self.wb += other.wb;
    }
}

/// Profile of one hierarchy level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelProfile {
    /// Hierarchy level (0 = root).
    pub level: usize,
    /// Reuse-weighted busy seconds per pipeline stage.
    pub seconds: StageSeconds,
    /// Reuse-weighted parent-link traffic (loads + writebacks) in bytes.
    pub traffic_bytes: u64,
    /// Memoization-table hits for instructions arriving at this level.
    pub memo_hits: u64,
    /// Memoization-table misses (signatures actually planned and timed).
    pub memo_misses: u64,
    /// Seconds saved by pipeline concatenating at this level's admits
    /// (the makespan-to-steady gap, summed over concatenated children).
    pub concat_saved_s: f64,
}

/// One instruction signature in the decomposition flamegraph.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureProfile {
    /// Level the signature arrived at.
    pub level: usize,
    /// Opcode name.
    pub op: String,
    /// Operand-shape summary, e.g. `[512x512, 512x512]`.
    pub detail: String,
    /// Times the memo table served this signature.
    pub hits: u64,
    /// Times it was actually planned and timed.
    pub computed: u64,
    /// Inclusive simulated seconds (subtree makespan × occurrences).
    pub inclusive_s: f64,
    /// The signature's own (node-local, per-occurrence) stage seconds.
    pub stage: StageSeconds,
}

/// The full profile of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Simulated end-to-end time in seconds.
    pub makespan_s: f64,
    /// Per-level attribution, index = hierarchy level.
    pub levels: Vec<LevelProfile>,
    /// Hottest signatures by inclusive time, descending.
    pub signatures: Vec<SignatureProfile>,
    /// Split decisions the planner served from the shape-level memo
    /// (cold-path optimisation; see [`crate::memo`]).
    pub shape_memo_hits: u64,
    /// Split decisions the planner computed and cached.
    pub shape_memo_misses: u64,
}

impl ProfileReport {
    /// Total memo hits across levels.
    pub fn memo_hits(&self) -> u64 {
        self.levels.iter().map(|l| l.memo_hits).sum()
    }

    /// Total memo misses across levels.
    pub fn memo_misses(&self) -> u64 {
        self.levels.iter().map(|l| l.memo_misses).sum()
    }

    /// Total concatenation savings across levels, in seconds.
    pub fn concat_saved_s(&self) -> f64 {
        self.levels.iter().map(|l| l.concat_saved_s).sum()
    }

    /// Renders the aligned human summary `cfrun --profile` prints.
    pub fn render_table(&self, cfg: &MachineConfig) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile on {}: makespan {:.6e} s, memo {} hit / {} miss, shape memo {} hit / {} \
             miss, concat saved {:.3e} s\n",
            cfg.name,
            self.makespan_s,
            self.memo_hits(),
            self.memo_misses(),
            self.shape_memo_hits,
            self.shape_memo_misses,
            self.concat_saved_s(),
        ));
        out.push_str(
            "  level            id          ld          ex          rd          wb     traffic(B)  hit/miss  concat(s)\n",
        );
        for l in &self.levels {
            let name = level_name(cfg, l.level);
            out.push_str(&format!(
                "  L{} {:<7} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e} {:>14} {:>4}/{:<4} {:>9.3e}\n",
                l.level,
                name,
                l.seconds.id,
                l.seconds.ld,
                l.seconds.ex,
                l.seconds.rd,
                l.seconds.wb,
                l.traffic_bytes,
                l.memo_hits,
                l.memo_misses,
                l.concat_saved_s,
            ));
        }
        if !self.signatures.is_empty() {
            out.push_str("  hottest signatures by inclusive simulated time:\n");
            for (i, s) in self.signatures.iter().enumerate() {
                out.push_str(&format!(
                    "  {:>3}. L{} {:<10} {:>11.3e} s  {:>6} hit {:>6} planned  {}\n",
                    i + 1,
                    s.level,
                    s.op,
                    s.inclusive_s,
                    s.hits,
                    s.computed,
                    s.detail,
                ));
            }
        }
        out
    }
}

/// Display name of a hierarchy level on `cfg` (leaf levels are `Core`).
pub fn level_name(cfg: &MachineConfig, level: usize) -> &str {
    if level < cfg.levels.len() {
        cfg.levels[level].name.as_str()
    } else {
        "Core"
    }
}

// ---------------------------------------------------------------------
// Accumulation state (owned by PerfSim, mutated through its hooks).
// ---------------------------------------------------------------------

/// Per-level accumulation that must replay on memo hits.
#[derive(Debug, Clone, Copy, Default)]
struct LevelDelta {
    seconds: StageSeconds,
    traffic_bytes: u64,
    concat_saved_s: f64,
}

impl LevelDelta {
    fn merge(&mut self, other: &LevelDelta) {
        self.seconds.merge(&other.seconds);
        self.traffic_bytes += other.traffic_bytes;
        self.concat_saved_s += other.concat_saved_s;
    }
}

/// Signature identity: the same granularity as the memo-table key, so a
/// hit replays exactly the subtree its miss recorded.
#[derive(Debug, PartialEq, Eq, Hash)]
struct SigKey {
    level: usize,
    op: cf_isa::Opcode,
    params: String,
    in_dims: Vec<Vec<usize>>,
    resident: Vec<bool>,
    shared: Vec<u32>,
}

impl SigKey {
    fn new(level: usize, inst: &Instruction, resident: &[bool], shared: &[u32]) -> Self {
        SigKey {
            level,
            op: inst.op,
            params: format!("{:?}", inst.params),
            in_dims: inst.inputs.iter().map(|r| r.shape().dims().to_vec()).collect(),
            resident: resident.to_vec(),
            shared: shared.to_vec(),
        }
    }
}

#[derive(Debug, Default)]
struct SigAccum {
    hits: u64,
    computed: u64,
    inclusive_s: f64,
    /// The node's own per-occurrence stage seconds.
    own: StageSeconds,
    /// Per-occurrence subtree makespan.
    makespan: f64,
    /// Per-occurrence per-level contribution of the whole subtree,
    /// replayed into the level accumulators on every memo hit.
    subtree: Vec<LevelDelta>,
}

#[derive(Debug, Default)]
struct LevelAccum {
    delta: LevelDelta,
    memo_hits: u64,
    memo_misses: u64,
}

/// Accumulates per-level and per-signature attribution while the perf
/// simulator runs. A stack of capture frames mirrors the in-flight memo
/// misses: every contribution lands in the global accumulators *and* in
/// each open frame, so a finished miss knows its full subtree delta and
/// later hits can replay it.
#[derive(Debug, Default)]
pub(crate) struct ProfileState {
    levels: Vec<LevelAccum>,
    sigs: HashMap<SigKey, SigAccum>,
    frames: Vec<Vec<LevelDelta>>,
    /// Stage seconds of the most recent `time_plan` — by the recursion
    /// order, the node's own plan when its miss frame closes.
    last_plan: StageSeconds,
}

impl ProfileState {
    fn level_slot(levels: &mut Vec<LevelDelta>, level: usize) -> &mut LevelDelta {
        if levels.len() <= level {
            levels.resize(level + 1, LevelDelta::default());
        }
        &mut levels[level]
    }

    fn accum_slot(&mut self, level: usize) -> &mut LevelAccum {
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, LevelAccum::default);
        }
        &mut self.levels[level]
    }

    /// Adds one per-level contribution everywhere it belongs: the global
    /// accumulator and every open capture frame.
    fn contribute(&mut self, level: usize, delta: &LevelDelta) {
        self.accum_slot(level).delta.merge(delta);
        for frame in &mut self.frames {
            Self::level_slot(frame, level).merge(delta);
        }
    }

    /// Hook: a plan at `level` was timed (`seconds` summed over its
    /// steps in order, `own_bytes` over this node's parent link).
    pub(crate) fn record_plan(&mut self, level: usize, seconds: StageSeconds, own_bytes: u64) {
        self.last_plan = seconds;
        self.contribute(
            level,
            &LevelDelta { seconds, traffic_bytes: own_bytes, concat_saved_s: 0.0 },
        );
    }

    /// Hook: pipeline concatenating admitted a child at steady spacing,
    /// saving `saved` seconds at `level`.
    pub(crate) fn record_concat_saved(&mut self, level: usize, saved: f64) {
        self.contribute(
            level,
            &LevelDelta {
                seconds: StageSeconds::default(),
                traffic_bytes: 0,
                concat_saved_s: saved,
            },
        );
    }

    /// Hook: a memo miss begins — open a capture frame for its subtree.
    pub(crate) fn begin_compute(&mut self) {
        self.frames.push(Vec::new());
    }

    /// Hook: the memo miss opened by the matching [`Self::begin_compute`]
    /// finished with `outcome`.
    pub(crate) fn end_compute(
        &mut self,
        level: usize,
        inst: &Instruction,
        resident: &[bool],
        shared: &[u32],
        outcome: &NodeOutcome,
    ) {
        let subtree = self.frames.pop().unwrap_or_default();
        self.accum_slot(level).memo_misses += 1;
        let own = self.last_plan;
        let sig = self.sigs.entry(SigKey::new(level, inst, resident, shared)).or_default();
        sig.computed += 1;
        sig.inclusive_s += outcome.makespan;
        sig.own = own;
        sig.makespan = outcome.makespan;
        sig.subtree = subtree;
    }

    /// Hook: the memo table served `inst` at `level` — replay the
    /// signature's recorded subtree so reuse shows up in the totals.
    pub(crate) fn record_hit(
        &mut self,
        level: usize,
        inst: &Instruction,
        resident: &[bool],
        shared: &[u32],
    ) {
        self.accum_slot(level).memo_hits += 1;
        let key = SigKey::new(level, inst, resident, shared);
        let replay = match self.sigs.get_mut(&key) {
            Some(sig) => {
                sig.hits += 1;
                sig.inclusive_s += sig.makespan;
                sig.subtree.clone()
            }
            None => Vec::new(),
        };
        for (lvl, delta) in replay.iter().enumerate() {
            self.contribute(lvl, delta);
        }
    }

    /// Builds the report, keeping the `top` hottest signatures.
    pub(crate) fn report(&self, makespan_s: f64, top: usize) -> ProfileReport {
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(level, a)| LevelProfile {
                level,
                seconds: a.delta.seconds,
                traffic_bytes: a.delta.traffic_bytes,
                memo_hits: a.memo_hits,
                memo_misses: a.memo_misses,
                concat_saved_s: a.delta.concat_saved_s,
            })
            .collect();
        // Aggregate signatures by what the reader sees (level, op,
        // shapes); residency-mask variants of one shape merge here.
        let mut by_display: HashMap<(usize, String, String), SignatureProfile> = HashMap::new();
        for (key, sig) in &self.sigs {
            let op = format!("{:?}", key.op);
            let detail = format!(
                "[{}]",
                key.in_dims
                    .iter()
                    .map(|d| { d.iter().map(ToString::to_string).collect::<Vec<_>>().join("x") })
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let entry =
                by_display.entry((key.level, op.clone(), detail.clone())).or_insert_with(|| {
                    SignatureProfile {
                        level: key.level,
                        op,
                        detail,
                        hits: 0,
                        computed: 0,
                        inclusive_s: 0.0,
                        stage: StageSeconds::default(),
                    }
                });
            entry.hits += sig.hits;
            entry.computed += sig.computed;
            entry.inclusive_s += sig.inclusive_s;
            entry.stage.merge(&sig.own);
        }
        let mut signatures: Vec<SignatureProfile> = by_display.into_values().collect();
        signatures.sort_by(|a, b| {
            b.inclusive_s
                .total_cmp(&a.inclusive_s)
                .then_with(|| a.level.cmp(&b.level))
                .then_with(|| a.op.cmp(&b.op))
                .then_with(|| a.detail.cmp(&b.detail))
        });
        signatures.truncate(top);
        ProfileReport { makespan_s, levels, signatures, shape_memo_hits: 0, shape_memo_misses: 0 }
    }
}

// ---------------------------------------------------------------------
// Chrome Trace Event export.
// ---------------------------------------------------------------------

/// Trace-Event process ID of the coarse per-level DMA/compute tracks.
pub const TRACE_PID_LEVELS: u64 = 1;
/// Trace-Event process ID of the fine per-stage tracks.
pub const TRACE_PID_STAGES: u64 = 2;
/// Trace-Event process ID runtime span tracks use (see `cf-runtime`).
pub const TRACE_PID_RUNTIME: u64 = 3;

/// A complete (`ph:"X"`) Trace Event. Times are in microseconds, as the
/// Trace Event Format requires.
pub fn trace_complete_event(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
) -> Value {
    let mut m = Map::new();
    m.insert("name", name);
    m.insert("cat", cat);
    m.insert("ph", "X");
    m.insert("ts", ts_us);
    m.insert("dur", dur_us);
    m.insert("pid", pid);
    m.insert("tid", tid);
    Value::Object(m)
}

/// A `process_name` metadata event.
pub fn trace_process_name(pid: u64, name: &str) -> Value {
    trace_metadata("process_name", pid, 0, name)
}

/// A `thread_name` metadata event.
pub fn trace_thread_name(pid: u64, tid: u64, name: &str) -> Value {
    trace_metadata("thread_name", pid, tid, name)
}

fn trace_metadata(kind: &str, pid: u64, tid: u64, name: &str) -> Value {
    let mut args = Map::new();
    args.insert("name", name);
    let mut m = Map::new();
    m.insert("name", kind);
    m.insert("ph", "M");
    m.insert("pid", pid);
    m.insert("tid", tid);
    m.insert("args", Value::Object(args));
    Value::Object(m)
}

/// Renders a [`Timeline`] as Chrome Trace Events: one track per
/// hierarchy level (pid [`TRACE_PID_LEVELS`], tid = level) carrying the
/// coarse DMA/compute intervals, plus one track per (level, pipeline
/// stage) (pid [`TRACE_PID_STAGES`], tid = level × 8 + stage index)
/// carrying the fine ID/LD/EX/RD/WB schedule. Combine with
/// `Tracer::chrome_events` from `cf-runtime` for runtime spans, wrap in
/// a JSON array, and the file loads in `chrome://tracing` / Perfetto.
pub fn chrome_trace_events(cfg: &MachineConfig, tl: &Timeline) -> Vec<Value> {
    let mut out = Vec::with_capacity(tl.events.len() + tl.stages.len() + 16);
    out.push(trace_process_name(TRACE_PID_LEVELS, &format!("{}: levels", cfg.name)));
    out.push(trace_process_name(TRACE_PID_STAGES, &format!("{}: pipeline stages", cfg.name)));
    let mut named_levels: Vec<usize> = tl.events.iter().map(|e| e.level).collect();
    named_levels.sort_unstable();
    named_levels.dedup();
    for &level in &named_levels {
        out.push(trace_thread_name(
            TRACE_PID_LEVELS,
            level as u64,
            &format!("L{level} {}", level_name(cfg, level)),
        ));
    }
    let mut named_stage_tracks: Vec<(usize, PipeStage)> =
        tl.stages.iter().map(|s| (s.level, s.stage)).collect();
    named_stage_tracks.sort_unstable_by_key(|(l, s)| (*l, s.index()));
    named_stage_tracks.dedup();
    for &(level, stage) in &named_stage_tracks {
        out.push(trace_thread_name(
            TRACE_PID_STAGES,
            (level * 8 + stage.index()) as u64,
            &format!("L{level} {}", stage.name()),
        ));
    }
    for e in &tl.events {
        let name = match e.kind {
            EventKind::Dma => "dma",
            EventKind::Compute => "compute",
        };
        out.push(trace_complete_event(
            name,
            "sim",
            TRACE_PID_LEVELS,
            e.level as u64,
            e.start * 1e6,
            (e.end - e.start) * 1e6,
        ));
    }
    for s in &tl.stages {
        out.push(trace_complete_event(
            s.stage.name(),
            "stage",
            TRACE_PID_STAGES,
            (s.level * 8 + s.stage.index()) as u64,
            s.start * 1e6,
            (s.end - s.start) * 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use cf_isa::{Opcode, ProgramBuilder};

    fn matmul(n: usize) -> cf_isa::Program {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![n, n]);
        let w = b.alloc("w", vec![n, n]);
        b.apply(Opcode::MatMul, [a, w]).unwrap();
        b.build()
    }

    #[test]
    fn profiled_simulation_matches_unprofiled_and_attributes_time() {
        let m = Machine::new(MachineConfig::cambricon_f1());
        let p = matmul(1024);
        let plain = m.simulate(&p).unwrap();
        let (report, profile) = m.simulate_profiled(&p, 10).unwrap();
        assert_eq!(
            plain.makespan_seconds, report.makespan_seconds,
            "profiling must not perturb timing"
        );
        assert_eq!(profile.makespan_s, report.makespan_seconds);
        assert!(!profile.levels.is_empty());
        // The leaves did real EX work and the memo table was exercised.
        let total_ex: f64 = profile.levels.iter().map(|l| l.seconds.ex).sum();
        assert!(total_ex > 0.0);
        assert!(profile.memo_hits() > 0, "a 1024³ matmul must reuse signatures");
        assert!(profile.memo_misses() > 0);
        assert!(!profile.signatures.is_empty());
        // Signatures are sorted hottest-first.
        for w in profile.signatures.windows(2) {
            assert!(w[0].inclusive_s >= w[1].inclusive_s);
        }
    }

    #[test]
    fn reuse_weighting_scales_attribution_with_hits() {
        // Two matmuls of the same shape: the second is a pure memo hit,
        // and the per-level EX attribution must roughly double.
        let cfg = MachineConfig::cambricon_f1();
        let m = Machine::new(cfg);
        let one = m.simulate_profiled(&matmul(512), 5).unwrap().1;
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![512, 512]);
        let w = b.alloc("w", vec![512, 512]);
        b.apply(Opcode::MatMul, [a, w]).unwrap();
        let a2 = b.alloc("a2", vec![512, 512]);
        let w2 = b.alloc("w2", vec![512, 512]);
        b.apply(Opcode::MatMul, [a2, w2]).unwrap();
        let two = m.simulate_profiled(&b.build(), 5).unwrap().1;
        let ex = |p: &ProfileReport| p.levels.iter().map(|l| l.seconds.ex).sum::<f64>();
        let ratio = ex(&two) / ex(&one);
        assert!(
            (1.8..=2.2).contains(&ratio),
            "doubling the work should double EX attribution, got ×{ratio:.3}"
        );
    }

    #[test]
    fn concat_savings_recorded_when_concat_is_on() {
        let m = Machine::new(MachineConfig::cambricon_f1());
        let profile = m.simulate_profiled(&matmul(1024), 5).unwrap().1;
        assert!(profile.concat_saved_s() > 0.0, "concatenating a 1024³ matmul saves time");
        let off = Machine::new(
            MachineConfig::cambricon_f1()
                .with_opts(crate::OptFlags { concat: false, ..Default::default() }),
        );
        let profile_off = off.simulate_profiled(&matmul(1024), 5).unwrap().1;
        assert_eq!(profile_off.concat_saved_s(), 0.0);
    }

    #[test]
    fn render_table_mentions_levels_and_signatures() {
        let cfg = MachineConfig::cambricon_f1();
        let m = Machine::new(cfg.clone());
        let profile = m.simulate_profiled(&matmul(512), 3).unwrap().1;
        let table = profile.render_table(&cfg);
        assert!(table.contains("profile on"));
        assert!(table.contains("L0"));
        assert!(table.contains("MatMul"));
        assert!(table.contains("hottest signatures"));
    }

    #[test]
    fn chrome_events_are_well_formed() {
        let cfg = MachineConfig::cambricon_f1();
        let m = Machine::new(cfg.clone());
        let tl = m.timeline(&matmul(512), 2).unwrap();
        assert!(!tl.stages.is_empty(), "timeline must carry stage spans");
        let events = chrome_trace_events(&cfg, &tl);
        let mut complete = 0;
        for e in &events {
            let ph = e.get("ph").and_then(Value::as_str).unwrap();
            assert!(e.get("pid").and_then(Value::as_u64).is_some());
            assert!(e.get("tid").and_then(Value::as_u64).is_some());
            assert!(e.get("name").and_then(Value::as_str).is_some());
            if ph == "X" {
                complete += 1;
                assert!(e.get("ts").and_then(Value::as_f64).unwrap() >= 0.0);
                assert!(e.get("dur").and_then(Value::as_f64).unwrap() > 0.0);
                assert!(e.get("cat").and_then(Value::as_str).is_some());
            } else {
                assert_eq!(ph, "M");
            }
        }
        assert!(complete > 0);
        // Round-trip: the array parses back identically.
        let text = Value::Array(events.clone()).to_string();
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back, Value::Array(events));
    }
}
