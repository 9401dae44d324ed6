//! Execution-timeline extraction (paper Figure 13).
//!
//! Walks the performance model *without* memoization down to a depth
//! limit, emitting per-level DMA (blue in the paper) and compute (red)
//! intervals. Adjacent intervals closer than a coalescing threshold are
//! merged so that paper-scale runs produce readable Gantt rows.

use cf_isa::Program;

use crate::perf::{schedule_pipeline, PerfSim};
use crate::plan::Step;
use crate::profile::PipeStage;
use crate::{CoreError, MachineConfig};

/// Kind of activity in a timeline interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// DMA transfer (LD or WB).
    Dma,
    /// FFU/LFU/leaf computation.
    Compute,
}

/// One busy interval of one hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Hierarchy level (0 = top).
    pub level: usize,
    /// Activity kind.
    pub kind: EventKind,
    /// Interval start in seconds.
    pub start: f64,
    /// Interval end in seconds.
    pub end: f64,
}

/// One pipeline-stage interval of one step at one level — the fine
/// companion to the coarse DMA/compute [`Event`]s, consumed by the
/// Chrome-trace exporter ([`crate::profile::chrome_trace_events`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpan {
    /// Hierarchy level (0 = top).
    pub level: usize,
    /// Pipeline stage.
    pub stage: PipeStage,
    /// Interval start in seconds.
    pub start: f64,
    /// Interval end in seconds.
    pub end: f64,
}

/// A per-level Gantt chart of one program execution.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Coalesced busy intervals, grouped by level. Within one
    /// (level, kind) the intervals are non-overlapping and sorted —
    /// overlaps from clamping and representative-child drift are merged
    /// during extraction.
    pub events: Vec<Event>,
    /// Per-step pipeline-stage intervals (uncoalesced, capped at the
    /// extraction event limit).
    pub stages: Vec<StageSpan>,
    /// Total execution time.
    pub makespan: f64,
}

impl Timeline {
    /// Events of one level.
    pub fn level_events(&self, level: usize) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.level == level)
    }

    /// Busy fraction of one level and kind over the makespan.
    pub fn busy_fraction(&self, level: usize, kind: EventKind) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 =
            self.level_events(level).filter(|e| e.kind == kind).map(|e| e.end - e.start).sum();
        (busy / self.makespan).max(0.0)
    }

    /// Renders an ASCII Gantt chart with `width` columns (for the
    /// experiment harness).
    pub fn render_ascii(&self, levels: usize, width: usize) -> String {
        let mut out = String::new();
        for level in 0..levels {
            let mut row = vec![b' '; width];
            for e in self.level_events(level) {
                let a = ((e.start / self.makespan) * width as f64) as usize;
                let b = (((e.end / self.makespan) * width as f64).ceil() as usize).min(width);
                let ch = match e.kind {
                    EventKind::Dma => b'#',
                    EventKind::Compute => b'=',
                };
                for c in row.iter_mut().take(b).skip(a.min(width)) {
                    // Compute overrides DMA for overlapping pixels.
                    if *c == b' ' || ch == b'=' {
                        *c = ch;
                    }
                }
            }
            out.push_str(&format!("L{level} |{}|\n", String::from_utf8_lossy(&row)));
        }
        out
    }
}

struct Recorder {
    events: Vec<Event>,
    stages: Vec<StageSpan>,
    coalesce: f64,
    max_events: usize,
}

impl Recorder {
    fn push_stage(&mut self, level: usize, stage: PipeStage, start: f64, end: f64) {
        if end > start && self.stages.len() < self.max_events {
            self.stages.push(StageSpan { level, stage, start, end });
        }
    }

    fn push(&mut self, level: usize, kind: EventKind, start: f64, end: f64) {
        if end <= start {
            return;
        }
        // Coalesce with the most recent event of the same (level, kind).
        if let Some(last) =
            self.events.iter_mut().rev().take(16).find(|e| e.level == level && e.kind == kind)
        {
            if start - last.end <= self.coalesce && start >= last.start {
                last.end = last.end.max(end);
                return;
            }
        }
        if self.events.len() < self.max_events {
            self.events.push(Event { level, kind, start, end });
        }
    }
}

/// Extracts the execution timeline of `program` on `cfg`, recursing at
/// most `max_depth` levels deep (deeper levels use the memoized aggregate
/// durations and emit no events).
///
/// # Errors
///
/// Propagates planning errors.
pub fn extract_timeline(
    cfg: &MachineConfig,
    program: &Program,
    max_depth: usize,
    max_events: usize,
) -> Result<Timeline, CoreError> {
    let sim = PerfSim::new(cfg);
    let root_outcome = sim.simulate(program)?;
    let mut rec = Recorder {
        events: Vec::new(),
        stages: Vec::new(),
        coalesce: root_outcome.makespan / 2000.0,
        max_events,
    };
    let plan = sim.planner().plan_root(program.instructions(), program.extern_elems())?;
    let makespan = walk(&sim, 0, &plan, &[], &[], None, 0.0, max_depth, &mut rec)?;
    let mut events = rec.events;
    let mut stages = rec.stages;
    // Representative-child recursion can drift slightly past the parent's
    // concatenated EX window; clamp to the makespan for presentation.
    for e in &mut events {
        e.start = e.start.min(makespan);
        e.end = e.end.min(makespan);
    }
    events.retain(|e| e.end > e.start);
    for s in &mut stages {
        s.start = s.start.min(makespan);
        s.end = s.end.min(makespan);
    }
    stages.retain(|s| s.end > s.start);
    stages.sort_by(|a, b| {
        (a.level, a.stage.index())
            .cmp(&(b.level, b.stage.index()))
            .then(a.start.total_cmp(&b.start))
    });
    // Merge overlaps within each (level, kind) so every row is a clean
    // sequence of disjoint intervals (clamping and drift can overlap).
    events.sort_by(|a, b| {
        (a.level, kind_rank(a.kind))
            .cmp(&(b.level, kind_rank(b.kind)))
            .then(a.start.total_cmp(&b.start))
    });
    let mut merged: Vec<Event> = Vec::with_capacity(events.len());
    for e in events {
        match merged.last_mut() {
            Some(m) if m.level == e.level && m.kind == e.kind && e.start <= m.end => {
                m.end = m.end.max(e.end);
            }
            _ => merged.push(e),
        }
    }
    merged.sort_by(|a, b| a.level.cmp(&b.level).then(a.start.total_cmp(&b.start)));
    Ok(Timeline { events: merged, stages, makespan })
}

fn kind_rank(kind: EventKind) -> u8 {
    match kind {
        EventKind::Dma => 0,
        EventKind::Compute => 1,
    }
}

#[allow(clippy::too_many_arguments)]
fn walk(
    sim: &PerfSim,
    level: usize,
    plan: &crate::plan::NodePlan,
    resident: &[bool],
    shared: &[u32],
    incoming: Option<&cf_isa::Instruction>,
    t0: f64,
    max_depth: usize,
    rec: &mut Recorder,
) -> Result<f64, CoreError> {
    let (times, _) = sim.stage_times_of_plan(level, plan, resident, shared, incoming)?;
    let (sched, makespan) = schedule_pipeline(plan, &times, sim.planner().config().opts.concat);
    for (step, s) in plan.steps.iter().zip(&sched) {
        rec.push_stage(level, PipeStage::Id, t0 + s.id.0, t0 + s.id.1);
        rec.push_stage(level, PipeStage::Ld, t0 + s.ld.0, t0 + s.ld.1);
        rec.push_stage(level, PipeStage::Ex, t0 + s.ex.0, t0 + s.ex.1);
        rec.push_stage(level, PipeStage::Rd, t0 + s.rd.0, t0 + s.rd.1);
        rec.push_stage(level, PipeStage::Wb, t0 + s.wb.0, t0 + s.wb.1);
        rec.push(level, EventKind::Dma, t0 + s.ld.0, t0 + s.ld.1);
        rec.push(level, EventKind::Dma, t0 + s.wb.0, t0 + s.wb.1);
        if has_local_compute(step) {
            rec.push(level, EventKind::Compute, t0 + s.rd.0, t0 + s.rd.1);
        }
        if step.local_exec.is_some() && sim.planner().config().is_leaf(level) {
            rec.push(level, EventKind::Compute, t0 + s.ex.0, t0 + s.ex.1);
        }
        if step.child_count() > 0 {
            if level < max_depth && rec.events.len() < rec.max_events {
                // Recurse into the first child as the representative.
                let child = step.child(0);
                let child_plan = sim.planner().plan_instruction(level + 1, &child.inst, false)?;
                walk(
                    sim,
                    level + 1,
                    &child_plan,
                    &child.resident_inputs,
                    &child.shared_inputs,
                    Some(&child.inst),
                    t0 + s.ex.0,
                    max_depth,
                    rec,
                )?;
            } else {
                rec.push(level + 1, EventKind::Compute, t0 + s.ex.0, t0 + s.ex.1);
            }
        }
    }
    Ok(makespan)
}

fn has_local_compute(step: &Step) -> bool {
    step.reduce.is_some() || step.streaming_exec.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_isa::{Opcode, ProgramBuilder};

    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![256, 256]);
        let w = b.alloc("w", vec![256, 256]);
        let c = b.apply(Opcode::MatMul, [a, w]).unwrap();
        b.apply(Opcode::Act1D, [c[0]]).unwrap();
        b.build()
    }

    #[test]
    fn timeline_covers_all_requested_levels() {
        let cfg = MachineConfig::cambricon_f1();
        let tl = extract_timeline(&cfg, &program(), 2, 10_000).unwrap();
        assert!(tl.makespan > 0.0);
        assert!(tl.level_events(1).count() > 0, "FMP level should be busy");
        assert!(tl.level_events(2).count() > 0, "core level should be busy");
    }

    #[test]
    fn events_lie_within_makespan() {
        let cfg = MachineConfig::cambricon_f1();
        let tl = extract_timeline(&cfg, &program(), 2, 10_000).unwrap();
        for e in &tl.events {
            assert!(e.start >= -1e-9 && e.end <= tl.makespan * 1.05 + 1e-9);
            assert!(e.end > e.start);
        }
    }

    #[test]
    fn busy_fraction_bounded() {
        let cfg = MachineConfig::cambricon_f1();
        let tl = extract_timeline(&cfg, &program(), 1, 10_000).unwrap();
        let f = tl.busy_fraction(1, EventKind::Compute);
        assert!((0.0..=1.0 + 1e-9).contains(&f));
    }

    #[test]
    fn ascii_render_has_rows() {
        let cfg = MachineConfig::cambricon_f1();
        let tl = extract_timeline(&cfg, &program(), 2, 10_000).unwrap();
        let art = tl.render_ascii(3, 60);
        assert_eq!(art.lines().count(), 3);
        assert!(art.contains('='));
    }
}
