//! Decomposition inspection: how a program actually unfolds across the
//! hierarchy — sub-instruction counts per level and opcode, DMA volumes,
//! reduction counts. This is the quantitative companion to the paper's
//! Figure 12 (the STMH execution model): every level sees the same task at
//! a different granularity, and this module shows exactly how.

use std::collections::BTreeMap;

use cf_isa::{Instruction, Opcode, Program};

use crate::plan::{Planner, Step};
use crate::{CoreError, MachineConfig};

/// Per-level decomposition statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelBreakdown {
    /// Pipeline steps executed by nodes of this level (total).
    pub steps: u64,
    /// Sub-instructions issued to this level's FFUs, by opcode.
    pub child_ops: BTreeMap<Opcode, u64>,
    /// DMA load volume from the parent level, in bytes.
    pub load_bytes: u64,
    /// DMA writeback volume to the parent level, in bytes.
    pub store_bytes: u64,
    /// Reduction (`g(·)`) steps executed here.
    pub reductions: u64,
    /// Instructions executed whole on this level's LFU or leaf compute.
    pub local_execs: u64,
    /// Steps with no read-after-write dependence on their predecessor —
    /// the ones pipeline concatenating can pre-assign (§3.6).
    pub preassignable_steps: u64,
}

/// The full decomposition picture of one program on one machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecompositionReport {
    /// Per-level breakdowns, index 0 = root.
    pub levels: Vec<LevelBreakdown>,
}

impl DecompositionReport {
    /// Fraction of all pipeline steps machine-wide that pipeline
    /// concatenating can pre-assign — the paper's 93.11 % ResNet metric.
    pub fn preassignable_fraction(&self) -> f64 {
        let total: u64 = self.levels.iter().map(|l| l.steps).sum();
        let ok: u64 = self.levels.iter().map(|l| l.preassignable_steps).sum();
        if total == 0 {
            1.0
        } else {
            ok as f64 / total as f64
        }
    }

    /// Mean granularity (operand elements per sub-instruction) issued *to*
    /// `level` — Figure 12's "each hierarchy sees a part of the task with
    /// different granularity", quantified.
    pub fn mean_granularity_into(&self, level: usize) -> f64 {
        // Granularity proxies: bytes loaded per step at that level.
        self.levels
            .get(level)
            .map(|l| {
                if l.steps == 0 {
                    0.0
                } else {
                    (l.load_bytes + l.store_bytes) as f64 / l.steps as f64
                }
            })
            .unwrap_or(0.0)
    }

    /// Renders an aligned text summary.
    pub fn render(&self, cfg: &MachineConfig) -> String {
        let mut out = String::new();
        out.push_str(&format!("decomposition on {}:\n", cfg.name));
        for (i, l) in self.levels.iter().enumerate() {
            let name = if i < cfg.levels.len() { cfg.levels[i].name.as_str() } else { "Core" };
            let ops: Vec<String> = l.child_ops.iter().map(|(op, n)| format!("{op}×{n}")).collect();
            out.push_str(&format!(
                "  L{i} {name:<7} steps {:>9}  ld {:>10} B  wb {:>10} B  g(·) {:>6}  local {:>7}  issues [{}]\n",
                l.steps,
                l.load_bytes,
                l.store_bytes,
                l.reductions,
                l.local_execs,
                ops.join(", ")
            ));
        }
        out
    }
}

/// Computes the decomposition report of `program` on `cfg`, walking each
/// distinct sub-instruction signature once per occurrence down to the
/// leaves (exact counts, no sampling).
///
/// # Errors
///
/// Propagates planning errors.
pub fn decomposition_report(
    cfg: &MachineConfig,
    program: &Program,
) -> Result<DecompositionReport, CoreError> {
    let planner = Planner::new(cfg);
    let mut report = DecompositionReport::default();
    let plan = planner.plan_root(program.instructions(), program.extern_elems())?;
    // Memoize subtree breakdowns per (level, signature) to keep this
    // tractable on paper-scale programs.
    let mut cache: std::collections::HashMap<(usize, String), DecompositionReport> =
        std::collections::HashMap::new();
    for step in &plan.steps {
        absorb_step(&planner, 0, 0, step, &mut report, &mut cache)?;
    }
    Ok(report)
}

fn signature(inst: &Instruction) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{:?}|{:?}", inst.op, inst.params);
    for r in inst.inputs.iter().chain(&inst.outputs) {
        let _ = write!(s, "|{}", r.shape());
    }
    s
}

fn absorb_step(
    planner: &Planner<'_>,
    abs_level: usize,
    rel_level: usize,
    step: &Step,
    report: &mut DecompositionReport,
    cache: &mut std::collections::HashMap<(usize, String), DecompositionReport>,
) -> Result<(), CoreError> {
    if report.levels.len() <= rel_level {
        report.levels.resize(rel_level + 1, LevelBreakdown::default());
    }
    {
        let l = &mut report.levels[rel_level];
        l.steps += 1;
        l.load_bytes += step.loads.iter().map(|d| d.parent.bytes()).sum::<u64>();
        l.store_bytes += step.stores.iter().map(|d| d.parent.bytes()).sum::<u64>();
        if step.reduce.is_some() {
            l.reductions += 1;
        }
        if step.local_exec.is_some() || step.streaming_exec.is_some() {
            l.local_execs += 1;
        }
        if !step.raw_dep_prev {
            l.preassignable_steps += 1;
        }
        if let Some(c) = &step.children {
            for slot in 0..c.split.len() {
                *l.child_ops.entry(c.split.piece(slot).op).or_insert(0) += 1;
            }
        }
    }
    for child in step.child_insts() {
        let key = (abs_level + 1, signature(&child.inst));
        let sub = match cache.get(&key) {
            Some(sub) => sub.clone(),
            None => {
                let plan = planner.plan_instruction(abs_level + 1, &child.inst, false)?;
                let mut sub = DecompositionReport::default();
                for s in &plan.steps {
                    absorb_step(planner, abs_level + 1, 0, s, &mut sub, cache)?;
                }
                cache.insert(key, sub.clone());
                sub
            }
        };
        // Shift the sub-report below this level and merge.
        for (i, lb) in sub.levels.iter().enumerate() {
            let dst = rel_level + 1 + i;
            if report.levels.len() <= dst {
                report.levels.resize(dst + 1, LevelBreakdown::default());
            }
            merge(&mut report.levels[dst], lb);
        }
    }
    Ok(())
}

fn merge(dst: &mut LevelBreakdown, src: &LevelBreakdown) {
    dst.steps += src.steps;
    dst.preassignable_steps += src.preassignable_steps;
    dst.load_bytes += src.load_bytes;
    dst.store_bytes += src.store_bytes;
    dst.reductions += src.reductions;
    dst.local_execs += src.local_execs;
    for (op, n) in &src.child_ops {
        *dst.child_ops.entry(*op).or_insert(0) += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_isa::ProgramBuilder;

    fn matmul_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![n, n]);
        let w = b.alloc("w", vec![n, n]);
        b.apply(Opcode::MatMul, [a, w]).unwrap();
        b.build()
    }

    #[test]
    fn report_covers_every_level() {
        let cfg = MachineConfig::cambricon_f1();
        let report = decomposition_report(&cfg, &matmul_program(512)).unwrap();
        assert_eq!(report.levels.len(), cfg.depth());
        // The root issues exactly as many sub-instructions as it has steps
        // times pieces; leaves never issue.
        assert!(report.levels.last().unwrap().child_ops.is_empty());
        assert!(report.levels.last().unwrap().steps > 0);
    }

    #[test]
    fn granularity_shrinks_down_the_hierarchy() {
        // Figure 12: each level sees the task at finer granularity.
        let cfg = MachineConfig::cambricon_f1();
        let report = decomposition_report(&cfg, &matmul_program(1024)).unwrap();
        let g1 = report.mean_granularity_into(1);
        let g2 = report.mean_granularity_into(2);
        assert!(g1 > g2, "FMP step granularity {g1} should exceed core step granularity {g2}");
    }

    #[test]
    fn render_is_nonempty_and_mentions_levels() {
        let cfg = MachineConfig::tiny(2, 2, 64 << 10);
        let report = decomposition_report(&cfg, &matmul_program(64)).unwrap();
        let text = report.render(&cfg);
        assert!(text.contains("L0"));
        assert!(text.contains("Core"));
    }
}
