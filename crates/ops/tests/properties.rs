//! The fractal-operation property (paper eq. 1), property-tested: for any
//! primitive, any decomposition axis and any piece count,
//! decompose-and-execute must equal direct execution. And the planner's
//! shape-only score of a split equals what the built split's pieces sum to.

use cf_isa::{infer_output_shapes, ConvParams, Instruction, OpParams, Opcode, Pad, PoolParams};
use cf_ops::exec::execute_instruction;
use cf_ops::fractal::{apply_split, split_axes, split_cost, ReduceKind, SplitOutcome};
use cf_ops::kernels;
use cf_tensor::{gen::DataGen, Memory, Region, Shape};
use proptest::prelude::*;

fn reg(offset: u64, dims: &[usize]) -> Region {
    Region::contiguous(offset, Shape::new(dims.to_vec()))
}

/// Executes `inst` via a `parts`-way split along `axis`, materialising
/// partials past the end of the memory, and compares against direct
/// execution. (Same harness as the unit tests, generalised for proptest.)
fn check_axis(inst: &Instruction, mem: &Memory, axis: usize, parts: usize, tol: f32) {
    let mut direct = mem.clone();
    execute_instruction(inst, &mut direct).unwrap();
    let mut fractal = mem.clone();
    match apply_split(inst, axis, parts).unwrap() {
        SplitOutcome::Direct(pieces) => {
            for p in &pieces {
                execute_instruction(p, &mut fractal).unwrap();
            }
        }
        SplitOutcome::Reduce { pieces, kind } => {
            let mut scratch = fractal.len() as u64;
            let mut insts = Vec::new();
            let mut regions_all = Vec::new();
            for piece in &pieces {
                let regions: Vec<Region> = piece
                    .partial_shapes
                    .iter()
                    .map(|s| {
                        let r = Region::contiguous(scratch, s.clone());
                        scratch += s.numel();
                        r
                    })
                    .collect();
                regions_all.push(regions.clone());
                insts.push(piece.clone().into_instruction(regions).unwrap());
            }
            let mut grown = Memory::new(scratch as usize);
            grown.as_mut_slice()[..fractal.len()].copy_from_slice(fractal.as_slice());
            for p in &insts {
                execute_instruction(p, &mut grown).unwrap();
            }
            match kind {
                ReduceKind::Add | ReduceKind::Mul => {
                    let mut acc = grown.read_region(&regions_all[0][0]).unwrap();
                    for regions in &regions_all[1..] {
                        let t = grown.read_region(&regions[0]).unwrap();
                        acc = if kind == ReduceKind::Add {
                            kernels::eltwise_add(&acc, &t).unwrap()
                        } else {
                            kernels::eltwise_mul(&acc, &t).unwrap()
                        };
                    }
                    let acc = acc.reshape(inst.outputs[0].shape().clone()).unwrap();
                    grown.write_region(&inst.outputs[0], &acc).unwrap();
                }
                ReduceKind::Merge => {
                    let with_payload = regions_all[0].len() == 2;
                    let mut keys = grown.read_region(&regions_all[0][0]).unwrap();
                    let mut pay =
                        with_payload.then(|| grown.read_region(&regions_all[0][1]).unwrap());
                    for regions in &regions_all[1..] {
                        let k2 = grown.read_region(&regions[0]).unwrap();
                        let p2 = with_payload.then(|| grown.read_region(&regions[1]).unwrap());
                        let (k, p) = kernels::merge(&keys, &k2, pay.as_ref(), p2.as_ref()).unwrap();
                        keys = k;
                        pay = p;
                    }
                    grown.write_region(&inst.outputs[0], &keys).unwrap();
                    if let Some(pay) = pay {
                        grown.write_region(&inst.outputs[1], &pay).unwrap();
                    }
                }
            }
            let n = fractal.len();
            fractal.as_mut_slice().copy_from_slice(&grown.as_slice()[..n]);
        }
    }
    for out in &inst.outputs {
        let a = direct.read_region(out).unwrap();
        let b = fractal.read_region(out).unwrap();
        assert!(
            a.approx_eq(&b, tol),
            "axis {axis} x{parts} of {} diverged by {:?}",
            inst.op,
            a.max_abs_diff(&b)
        );
    }
}

fn filled(n: usize, seed: u64) -> Memory {
    let mut mem = Memory::new(n);
    let t = DataGen::new(seed).uniform(Shape::new(vec![n]), -1.5, 1.5);
    mem.as_mut_slice().copy_from_slice(t.data());
    mem
}

/// An instance of `op` over small extents `d`, with kernel extents `k`,
/// stride `stride` and asymmetric padding `pad` for the windowed opcodes
/// (padding may exceed the kernel, so some spatial pieces see only
/// padding); `None` when those shapes are not a legal signature.
fn instance(
    op: Opcode,
    d: [usize; 5],
    k: [usize; 3],
    stride: usize,
    pad: (usize, usize),
    payload: bool,
) -> Option<Instruction> {
    let pads = [Pad { before: pad.0, after: pad.1 }, Pad { before: pad.1, after: pad.0 }];
    let (params, inputs): (OpParams, Vec<Vec<usize>>) = match op {
        Opcode::Cv2D => (
            OpParams::Conv(ConvParams { stride, pads: [pads[0], pads[1], pads[0]] }),
            vec![vec![d[0], d[1], d[2], d[3]], vec![k[0], k[1], d[3], d[4]]],
        ),
        Opcode::Cv3D => (
            OpParams::Conv(ConvParams { stride, pads: [pads[0], pads[1], pads[0]] }),
            vec![vec![d[0], d[1], d[2], d[1], d[3]], vec![k[0], k[1], k[2], d[3], d[4]]],
        ),
        Opcode::Max2D | Opcode::Min2D | Opcode::Avg2D => (
            OpParams::Pool(PoolParams { kh: k[0], kw: k[1], stride, pads }),
            vec![vec![d[0], d[1], d[2], d[3]]],
        ),
        Opcode::Lrn => (OpParams::None, vec![vec![d[0], d[1], d[2], d[3]]]),
        Opcode::MatMul => (OpParams::None, vec![vec![d[0], d[1]], vec![d[1], d[2]]]),
        Opcode::Euclidian1D => (OpParams::None, vec![vec![d[0], d[1]], vec![d[2], d[1]]]),
        Opcode::Sort1D if payload => (OpParams::None, vec![vec![d[0] * d[1]]; 2]),
        Opcode::Sort1D | Opcode::Count1D | Opcode::HSum1D | Opcode::HProd1D => {
            (OpParams::None, vec![vec![d[0] * d[1]]])
        }
        Opcode::Add1D | Opcode::Sub1D | Opcode::Mul1D => {
            (OpParams::None, vec![vec![d[0], d[1], d[2]]; 2])
        }
        Opcode::Act1D => (OpParams::None, vec![vec![d[0], d[1], d[2]]]),
        Opcode::Merge1D => (OpParams::None, vec![vec![d[0]], vec![d[1]]]),
    };
    let inputs: Vec<Shape> = inputs.into_iter().map(Shape::new).collect();
    let outputs = infer_output_shapes(op, &params, &inputs).ok()?;
    let mut offset = 0;
    let mut place = |s: Shape| {
        let r = Region::contiguous(offset, s);
        offset += r.numel();
        r
    };
    let inputs = inputs.into_iter().map(&mut place).collect();
    let outputs = outputs.into_iter().map(&mut place).collect();
    Instruction::new(op, params, inputs, outputs).ok()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn split_cost_equals_the_built_split(
        d in (1usize..7, 1usize..7, 1usize..7, 1usize..7, 1usize..7),
        k in (1usize..4, 1usize..4, 1usize..4),
        stride in 1usize..4, pad in (0usize..4, 0usize..4), payload in 0usize..2,
    ) {
        for op in Opcode::ALL {
            let (d, k) = ([d.0, d.1, d.2, d.3, d.4], [k.0, k.1, k.2]);
            let Some(inst) = instance(op, d, k, stride, pad, payload == 1) else { continue };
            for axis in split_axes(&inst) {
                for parts in 1..=8 {
                    let what = format!("{op} axis {} x{parts}", axis.label);
                    let cost = split_cost(&inst, &axis, parts);
                    let Ok(outcome) = apply_split(&inst, axis.index, parts) else {
                        prop_assert!(cost.is_none(), "{}: scored a split that errs", what);
                        continue;
                    };
                    prop_assert!(cost.is_some(), "{}: no score for a split that builds", what);
                    let cost = cost.unwrap();
                    // The reference: sums over the built pieces.
                    let bytes = |rs: &[Region]| rs.iter().map(Region::bytes).sum::<u64>();
                    let (operand, partial, first, overhead, reduce) = match &outcome {
                        SplitOutcome::Direct(pieces) => {
                            let operand: u64 =
                                pieces.iter().map(Instruction::operand_bytes).sum();
                            (operand, 0, 0, operand.saturating_sub(inst.operand_bytes()), None)
                        }
                        SplitOutcome::Reduce { pieces, kind } => {
                            let operand: u64 = pieces.iter().map(|p| bytes(&p.inputs)).sum();
                            let partial_of = |p: &cf_ops::fractal::PartialPiece| {
                                p.partial_shapes.iter().map(Shape::bytes).sum::<u64>()
                            };
                            let partial: u64 = pieces.iter().map(partial_of).sum();
                            let overhead =
                                (operand + 2 * partial).saturating_sub(bytes(&inst.inputs));
                            (operand, partial, partial_of(&pieces[0]), overhead, Some(*kind))
                        }
                    };
                    prop_assert_eq!(cost.pieces, outcome.len(), "{}: pieces", what);
                    prop_assert_eq!(cost.operand_bytes, operand, "{}: operand bytes", what);
                    prop_assert_eq!(cost.partial_bytes, partial, "{}: partial bytes", what);
                    prop_assert_eq!(cost.first_partial_bytes, first, "{}: first partial", what);
                    prop_assert_eq!(cost.overhead_bytes(&inst), overhead, "{}: overhead", what);
                    prop_assert_eq!(cost.reduce, reduce, "{}: reduce kind", what);
                }
            }
        }
    }

    #[test]
    fn matmul_every_axis(
        m in 1usize..14, k in 1usize..14, n in 1usize..14,
        parts in 2usize..5, seed in 0u64..1000,
    ) {
        let inst = Instruction::new(
            Opcode::MatMul,
            OpParams::None,
            vec![reg(0, &[m, k]), reg((m * k) as u64, &[k, n])],
            vec![reg((m * k + k * n) as u64, &[m, n])],
        ).unwrap();
        let mem = filled(m * k + k * n + m * n, seed);
        for axis in split_axes(&inst) {
            if axis.extent >= 2 {
                check_axis(&inst, &mem, axis.index, parts, 1e-3);
            }
        }
    }

    #[test]
    fn conv2d_every_axis(
        nb in 1usize..3, hw in 3usize..8, ci in 1usize..4, co in 1usize..4,
        stride in 1usize..3, pad in 0usize..2,
        parts in 2usize..4, seed in 0u64..1000,
    ) {
        let padded = hw + 2 * pad;
        prop_assume!(padded >= 3);
        let ho = (padded - 3) / stride + 1;
        let x = reg(0, &[nb, hw, hw, ci]);
        let w = reg(x.numel(), &[3, 3, ci, co]);
        let o = reg(x.numel() + w.numel(), &[nb, ho, ho, co]);
        let total = (x.numel() + w.numel() + o.numel()) as usize;
        let inst = Instruction::new(
            Opcode::Cv2D,
            OpParams::Conv(ConvParams::same(stride, pad)),
            vec![x, w],
            vec![o],
        ).unwrap();
        let mem = filled(total, seed);
        for axis in split_axes(&inst) {
            if axis.extent >= 2 {
                check_axis(&inst, &mem, axis.index, parts, 1e-3);
            }
        }
    }

    #[test]
    fn pooling_every_axis(
        nb in 1usize..3, hw in 4usize..10, c in 1usize..4,
        k in 2usize..4, parts in 2usize..4, seed in 0u64..1000, mode in 0usize..3,
    ) {
        prop_assume!(hw >= k);
        let op = [Opcode::Max2D, Opcode::Min2D, Opcode::Avg2D][mode];
        let ho = (hw - k) / k + 1;
        let x = reg(0, &[nb, hw, hw, c]);
        let o = reg(x.numel(), &[nb, ho, ho, c]);
        let total = (x.numel() + o.numel()) as usize;
        let inst = Instruction::new(
            op,
            OpParams::Pool(PoolParams::square(k, k, 0)),
            vec![x],
            vec![o],
        ).unwrap();
        let mem = filled(total, seed);
        for axis in split_axes(&inst) {
            if axis.extent >= 2 {
                check_axis(&inst, &mem, axis.index, parts, 1e-4);
            }
        }
    }

    #[test]
    fn sort_and_reductions_every_axis(
        n in 2usize..120, parts in 2usize..6, seed in 0u64..1000,
    ) {
        for op in [Opcode::Sort1D, Opcode::Count1D, Opcode::HSum1D] {
            let outs = match op {
                Opcode::Sort1D => vec![reg(n as u64, &[n])],
                _ => vec![reg(n as u64, &[1])],
            };
            let inst =
                Instruction::new(op, OpParams::None, vec![reg(0, &[n])], outs).unwrap();
            let mem = filled(2 * n + 1, seed);
            for axis in split_axes(&inst) {
                if axis.extent >= 2 {
                    check_axis(&inst, &mem, axis.index, parts, 1e-3);
                }
            }
        }
    }

    #[test]
    fn euclidean_every_axis(
        n in 1usize..10, m in 1usize..10, d in 1usize..10,
        parts in 2usize..4, seed in 0u64..1000,
    ) {
        let x = reg(0, &[n, d]);
        let y = reg(x.numel(), &[m, d]);
        let o = reg(x.numel() + y.numel(), &[n, m]);
        let total = (x.numel() + y.numel() + o.numel()) as usize;
        let inst =
            Instruction::new(Opcode::Euclidian1D, OpParams::None, vec![x, y], vec![o])
                .unwrap();
        let mem = filled(total, seed);
        for axis in split_axes(&inst) {
            if axis.extent >= 2 {
                check_axis(&inst, &mem, axis.index, parts, 1e-3);
            }
        }
    }
}
