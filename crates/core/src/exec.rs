//! Functional execution of FISA programs on a fractal machine.
//!
//! Every plan produced by the controller ([`crate::plan`]) is *performed*:
//! DMA transfers really copy regions between per-node memories, leaves run
//! the `cf-ops` reference kernels, LFUs apply the retrieving operators.
//! The result must be (ε-)identical to flat execution with
//! [`cf_ops::exec::execute_program`] — the central correctness property of
//! fractal computing, exercised heavily by the test suite.
//!
//! Functional mode ignores the performance-only annotations of the plan
//! (residency masks, broadcast sharing): those change *when* data moves,
//! never *what* is computed.

use cf_isa::Program;
use cf_ops::fractal::ReduceKind;
use cf_ops::kernels;
use cf_tensor::{Memory, Tensor};

use crate::fault::{DmaFaultHook, FaultSession};
use crate::plan::{NodePlan, Planner, ReduceStep, Space, Step};
use crate::{CoreError, MachineConfig};

/// Runs `program` functionally on a machine configured by `cfg`, with its
/// external data in `global` (laid out per [`Program::symbols`]).
///
/// `global` is grown if the plan needs scratch space beyond the program's
/// footprint.
///
/// # Errors
///
/// Propagates planning and kernel errors.
pub fn run_program(
    cfg: &MachineConfig,
    program: &Program,
    global: &mut Memory,
) -> Result<(), CoreError> {
    run_program_hooked(cfg, program, global, None)
}

/// [`run_program`] with an optional DMA fault hook: every load/store the
/// fractal plan performs is numbered in plan order and offered to the hook
/// before the copy happens (see [`crate::fault`]).
///
/// # Errors
///
/// Propagates planning and kernel errors, plus
/// [`CoreError::TransientFault`] for transfers the hook fails.
pub fn run_program_hooked(
    cfg: &MachineConfig,
    program: &Program,
    global: &mut Memory,
    hook: Option<&dyn DmaFaultHook>,
) -> Result<(), CoreError> {
    let session = FaultSession::new(hook);
    let planner = Planner::new(cfg);
    let plan = planner.plan_root(program.instructions(), program.extern_elems())?;
    if (global.len() as u64) < plan.local_elems {
        let mut grown = Memory::new(plan.local_elems as usize);
        grown.as_mut_slice()[..global.len()].copy_from_slice(global.as_slice());
        *global = grown;
    }
    for step in &plan.steps {
        exec_step(&planner, 0, step, None, global, &session)?;
    }
    Ok(())
}

/// Executes one planned incoming instruction at `level`, with operands in
/// `parent`.
fn exec_plan(
    planner: &Planner<'_>,
    level: usize,
    plan: &NodePlan,
    parent: &mut Memory,
    session: &FaultSession<'_>,
) -> Result<(), CoreError> {
    let mut local = Memory::new(plan.local_elems as usize);
    for step in &plan.steps {
        for l in &step.loads {
            session.dma()?;
            local.copy_from(&l.local, parent, &l.parent)?;
        }
        exec_step(planner, level, step, Some(parent), &mut local, session)?;
        for s in &step.stores {
            session.dma()?;
            parent.copy_from(&s.parent, &local, &s.local)?;
        }
    }
    Ok(())
}

/// Executes the compute portion of one step. `parent` is `None` at the
/// root, where the local memory *is* the global memory.
fn exec_step(
    planner: &Planner<'_>,
    level: usize,
    step: &Step,
    parent: Option<&mut Memory>,
    local: &mut Memory,
    session: &FaultSession<'_>,
) -> Result<(), CoreError> {
    if let Some(inst) = &step.streaming_exec {
        // Streaming ops address the incoming (parent) space directly.
        match parent {
            Some(parent) => cf_ops::exec::execute_instruction(inst, parent)?,
            None => cf_ops::exec::execute_instruction(inst, local)?,
        }
        return Ok(());
    }
    if let Some(inst) = &step.local_exec {
        cf_ops::exec::execute_instruction(inst, local)?;
    }
    for child in step.child_insts() {
        let child_plan = planner.plan_instruction(level + 1, &child.inst, false)?;
        exec_plan(planner, level + 1, &child_plan, local, session)?;
    }
    if let Some(reduce) = &step.reduce {
        apply_reduce(reduce, parent, local)?;
    }
    Ok(())
}

/// Applies the retrieving operator `g(·)` of a reduce step.
fn apply_reduce(
    r: &ReduceStep,
    parent: Option<&mut Memory>,
    local: &mut Memory,
) -> Result<(), CoreError> {
    // Gather partials from local memory first (outputs may alias scratch).
    let partials: Vec<Vec<Tensor>> = r
        .partials
        .iter()
        .map(|regions| regions.iter().map(|reg| local.read_region(reg)).collect())
        .collect::<Result<_, _>>()?;
    // A reduce step with no partials (or a partial with no tensors) is a
    // planner bug; surface it as a typed error rather than an index panic
    // so the service layer can fail just this job.
    let malformed = || CoreError::Internal("reduce step carries no partials".to_string());
    let first = partials.first().ok_or_else(malformed)?;
    let first_tensor = first.first().ok_or_else(malformed)?;
    let combined: Vec<Tensor> = match r.kind {
        ReduceKind::Add | ReduceKind::Mul => {
            let mut acc = first_tensor.clone();
            for p in &partials[1..] {
                let operand = p.first().ok_or_else(malformed)?;
                acc = if r.kind == ReduceKind::Add {
                    kernels::eltwise_add(&acc, operand)?
                } else {
                    kernels::eltwise_mul(&acc, operand)?
                };
            }
            vec![acc]
        }
        ReduceKind::Merge => {
            let with_payload = first.len() == 2;
            let mut keys = first_tensor.clone();
            let mut payload = with_payload.then(|| first[1].clone());
            for p in &partials[1..] {
                let head = p.first().ok_or_else(malformed)?;
                let (k, pl) = kernels::merge(&keys, head, payload.as_ref(), p.get(1))?;
                keys = k;
                payload = pl;
            }
            match payload {
                Some(pl) => vec![keys, pl],
                None => vec![keys],
            }
        }
    };
    let dst: &mut Memory = match (r.output_space, parent) {
        (Space::Parent, Some(parent)) => parent,
        _ => local,
    };
    for (region, tensor) in r.outputs.iter().zip(&combined) {
        // Reduction results may be written through a reshape (e.g. a
        // partial accumulated as a flat buffer into a matrix region).
        let t = if tensor.shape() == region.shape() {
            tensor.clone()
        } else {
            tensor.clone().reshape(region.shape().clone())?
        };
        dst.write_region(region, &t)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_isa::{Opcode, ProgramBuilder};
    use cf_tensor::gen::DataGen;
    use cf_tensor::Shape;

    /// Builds external memory for a program with seeded data in every
    /// input symbol.
    fn seeded_memory(program: &Program, seed: u64) -> Memory {
        let mut mem = Memory::new(program.extern_elems() as usize);
        let t = DataGen::new(seed).uniform(
            Shape::new(vec![program.extern_elems() as usize]),
            -1.5,
            1.5,
        );
        mem.as_mut_slice().copy_from_slice(t.data());
        mem
    }

    /// Fractal execution must match flat execution for the program.
    fn check_program(program: &Program, cfg: &MachineConfig, seed: u64, tol: f32) {
        let mut flat = seeded_memory(program, seed);
        cf_ops::exec::execute_program(program, &mut flat).unwrap();
        let mut fractal = seeded_memory(program, seed);
        run_program(cfg, program, &mut fractal).unwrap();
        for (name, region) in program.symbols() {
            let a = flat.read_region(region).unwrap();
            let b = fractal.read_region(region).unwrap();
            assert!(
                a.approx_eq(&b, tol),
                "symbol `{name}` diverged on {} (max diff {:?})",
                cfg.name,
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn matmul_chain_matches_flat() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![24, 16]);
        let w1 = b.alloc("w1", vec![16, 20]);
        let w2 = b.alloc("w2", vec![20, 12]);
        let h = b.apply(Opcode::MatMul, [a, w1]).unwrap();
        let h = b.apply(Opcode::Act1D, [h[0]]).unwrap();
        b.apply(Opcode::MatMul, [h[0], w2]).unwrap();
        let p = b.build();
        check_program(&p, &MachineConfig::tiny(2, 2, 16 << 10), 1, 1e-3);
    }

    #[test]
    fn conv_pool_net_matches_flat() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc("x", vec![2, 8, 8, 3]);
        let w = b.alloc("w", vec![3, 3, 3, 4]);
        let c = b
            .apply_with(
                Opcode::Cv2D,
                cf_isa::OpParams::Conv(cf_isa::ConvParams::same(1, 1)),
                [x, w],
            )
            .unwrap();
        let r = b.apply(Opcode::Act1D, [c[0]]).unwrap();
        b.apply(Opcode::Max2D, [r[0]]).unwrap();
        let p = b.build();
        check_program(&p, &MachineConfig::tiny(2, 2, 8 << 10), 2, 1e-3);
    }

    #[test]
    fn sort_and_count_match_flat() {
        let mut b = ProgramBuilder::new();
        let keys = b.alloc("keys", vec![64]);
        let vals = b.alloc("vals", vec![64]);
        let sorted = b.apply(Opcode::Sort1D, [keys, vals]).unwrap();
        b.apply_with(
            Opcode::Count1D,
            cf_isa::OpParams::Count(cf_isa::CountParams { value: 0.5, tol: 0.75 }),
            [sorted[1]],
        )
        .unwrap();
        let p = b.build();
        check_program(&p, &MachineConfig::tiny(1, 4, 2 << 10), 3, 0.0);
    }

    #[test]
    fn euclidean_distance_matches_flat() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc("x", vec![12, 10]);
        let y = b.alloc("y", vec![9, 10]);
        b.apply(Opcode::Euclidian1D, [x, y]).unwrap();
        let p = b.build();
        check_program(&p, &MachineConfig::tiny(2, 3, 2 << 10), 4, 1e-3);
    }

    #[test]
    fn horizontal_reductions_match_flat() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc("x", vec![500]);
        b.apply(Opcode::HSum1D, [x]).unwrap();
        let p = b.build();
        // Node memory of 2 KiB forces SD-level reductions.
        check_program(&p, &MachineConfig::tiny(1, 2, 2 << 10), 5, 1e-2);
    }

    #[test]
    fn deep_machine_matches_shallow() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![18, 18]);
        let w = b.alloc("w", vec![18, 18]);
        b.apply(Opcode::MatMul, [a, w]).unwrap();
        let p = b.build();
        for depth in 1..=3 {
            check_program(&p, &MachineConfig::tiny(depth, 2, 8 << 10), 6, 1e-3);
        }
    }

    #[test]
    fn ttt_forwarding_never_serves_recycled_segments() {
        // Regression: inner-axis accumulation interleaves reduce steps
        // with instruction steps; if FISA cycles were counted over reduce
        // steps too, a still-valid TTT record's backing segment could be
        // recycled under it and forwarding would serve garbage.
        let mut b = ProgramBuilder::new();
        let x = b.alloc("x", vec![64, 96]);
        let w = b.alloc("w", vec![96, 96]);
        b.apply(Opcode::MatMul, [x, w]).unwrap();
        let p = b.build();
        check_program(&p, &MachineConfig::tiny(3, 2, 16 << 10), 7, 1e-3);
    }

    #[test]
    fn ttt_off_gives_identical_results() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc("x", vec![6, 8, 8, 3]);
        let w = b.alloc("w", vec![3, 3, 3, 5]);
        b.apply_with(Opcode::Cv2D, cf_isa::OpParams::Conv(cf_isa::ConvParams::same(1, 1)), [x, w])
            .unwrap();
        let p = b.build();
        let on = MachineConfig::tiny(2, 2, 8 << 10);
        let off = MachineConfig::tiny(2, 2, 8 << 10).with_opts(crate::OptFlags::none());
        check_program(&p, &on, 7, 1e-3);
        check_program(&p, &off, 7, 1e-3);
    }
}
