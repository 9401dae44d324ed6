//! Fractal-operation theory (paper §2) made executable.
//!
//! An operation `f(X)` is *fractal* when `f(X) = g(f(X_A), f(X_B), …)` for
//! some retrieving operator `g(·)`. This module knows, for every FISA
//! opcode, along which axes the operation decomposes, what dependency class
//! each axis has, what `g(·)` is, and what data redundancy an
//! independent-style execution of an input-dependent split incurs
//! (Table 2) — and performs the actual region arithmetic of a split.
//!
//! Both decomposers of the Cambricon-F controller are built on
//! [`apply_split`]: the sequential decomposer splits until sub-instructions
//! fit local memory, and the parallel decomposer splits across FFUs. They
//! choose the axis from shapes alone: [`split_cost`] scores a candidate
//! axis with the same arithmetic, without building its pieces, so only
//! the chosen axis is split.

#[cfg(test)]
use cf_isa::{ConvParams, PoolParams};
use cf_isa::{Instruction, OpParams, Opcode, Pad};
use cf_tensor::{Region, Shape};

use crate::OpsError;

/// Dependency class of a decomposition (paper §2.2, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dependency {
    /// Pieces touch disjoint inputs and outputs.
    Independent,
    /// Pieces need overlapping/replicated inputs but write disjoint outputs.
    InputDependent,
    /// Piece results must be combined by a retrieving operator `g(·)`.
    OutputDependent,
}

impl std::fmt::Display for Dependency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Dependency::Independent => "Independent",
            Dependency::InputDependent => "Input",
            Dependency::OutputDependent => "Output",
        };
        f.write_str(s)
    }
}

/// The retrieving operator `g(·)` of an output-dependent decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// Elementwise sum of partials.
    Add,
    /// Elementwise product of partials.
    Mul,
    /// k-way merge of sorted runs (left-biased, payload-carrying).
    Merge,
}

impl std::fmt::Display for ReduceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReduceKind::Add => "Add",
            ReduceKind::Mul => "Mul",
            ReduceKind::Merge => "Merge",
        };
        f.write_str(s)
    }
}

/// One decomposition axis an instruction offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxisInfo {
    /// Stable index to pass to [`apply_split`].
    pub index: usize,
    /// Human-readable axis name (used in Table 2 and diagnostics).
    pub label: &'static str,
    /// Dependency class of splitting along this axis.
    pub dependency: Dependency,
    /// The retrieving operator, for output-dependent axes.
    pub reduce: Option<ReduceKind>,
    /// Data replicated to every piece when executed independently
    /// (Table 2 "Data Redundancy" column).
    pub redundancy: &'static str,
    /// Extent available for splitting (1 ⇒ the axis cannot be split).
    pub extent: usize,
    /// Which operands a split along this axis slices, and how.
    cut: Cut,
}

/// How a split along one axis slices the operands. Both the split itself
/// ([`apply_split`]) and its shape-only score ([`split_cost`]) read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cut {
    /// Disjoint output slices: every output along `out_axis` (whose
    /// extents the pieces take), input `i` along `inputs[i]` or whole
    /// (replicated to every piece) when `None`.
    Direct { inputs: [Option<usize>; 2], out_axis: usize },
    /// Spatial axis `spatial` (0-based among the spatial axes; tensor axis
    /// `spatial + 1`) of a convolution or pooling: input 0 is sliced to
    /// each piece's window, with the piece's own padding, and other inputs
    /// are replicated.
    Spatial { spatial: usize, kernel: usize, stride: usize, pad: Pad },
    /// Output-dependent: input `i` sliced along `inputs[i]` (extents from
    /// input 0), each piece producing `partials` that `kind` combines.
    Reduce { inputs: [usize; 2], partials: Partials, kind: ReduceKind },
}

/// The partial outputs each piece of an output-dependent split produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Partials {
    /// One block shaped like output 0.
    Output,
    /// One block per input, shaped like the piece's slice of it.
    Inputs,
    /// One scalar.
    Scalar,
}

/// A piece of an output-dependent split: a full sub-operation whose outputs
/// are *partials* that `g(·)` later combines. The caller (the machine's
/// memory manager) allocates the partial buffers and calls
/// [`PartialPiece::into_instruction`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartialPiece {
    /// Opcode of the piece (same as the parent for every FISA primitive).
    pub op: Opcode,
    /// Parameters of the piece.
    pub params: OpParams,
    /// Input region slices (in the parent instruction's address space).
    pub inputs: Vec<Region>,
    /// Shapes of the partial outputs this piece produces.
    pub partial_shapes: Vec<Shape>,
}

impl PartialPiece {
    /// Materialises the piece as an instruction writing to `outputs`.
    ///
    /// # Errors
    ///
    /// Returns validation errors if `outputs` do not match
    /// [`PartialPiece::partial_shapes`].
    pub fn into_instruction(self, outputs: Vec<Region>) -> Result<Instruction, OpsError> {
        Ok(Instruction::new(self.op, self.params, self.inputs, outputs)?)
    }
}

/// Result of splitting an instruction along one axis.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitOutcome {
    /// Independent / input-dependent split: the sub-instructions jointly
    /// write disjoint slices of the original outputs, so assembling is
    /// `g(x) = x`.
    Direct(Vec<Instruction>),
    /// Output-dependent split: pieces produce partials combined by `kind`.
    Reduce {
        /// The sub-operation pieces.
        pieces: Vec<PartialPiece>,
        /// The retrieving operator `g(·)`.
        kind: ReduceKind,
    },
}

impl SplitOutcome {
    /// Number of pieces.
    pub fn len(&self) -> usize {
        match self {
            SplitOutcome::Direct(v) => v.len(),
            SplitOutcome::Reduce { pieces, .. } => pieces.len(),
        }
    }

    /// Whether the split produced no pieces (never happens for `parts ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lists the decomposition axes of an instruction, in the opcode's
/// preference-neutral canonical order.
pub fn split_axes(inst: &Instruction) -> Vec<AxisInfo> {
    use Dependency::*;
    use ReduceKind::{Add, Merge, Mul};
    let dim = |r: &Region, i: usize| r.shape().dim(i);
    let mut axes = Vec::new();
    let mut push = |label, dependency, redundancy, extent, cut| {
        let reduce = match cut {
            Cut::Reduce { kind, .. } => Some(kind),
            _ => None,
        };
        axes.push(AxisInfo {
            index: axes.len(),
            label,
            dependency,
            reduce,
            redundancy,
            extent,
            cut,
        });
    };
    let direct = |input: usize, in_axis: usize, out_axis: usize| {
        let mut inputs = [None; 2];
        inputs[input] = Some(in_axis);
        Cut::Direct { inputs, out_axis }
    };
    let reduce = |inputs, partials, kind| Cut::Reduce { inputs, partials, kind };
    match inst.op {
        Opcode::Cv2D | Opcode::Cv3D => {
            let (x, w, o) = (&inst.inputs[0], &inst.inputs[1], &inst.outputs[0]);
            let p = inst.params.conv();
            let c = x.shape().rank() - 1; // NHWC / NDHWC channel axis
            let spatial_labels: &[&'static str] = if inst.op == Opcode::Cv2D {
                &["spatial-h", "spatial-w"]
            } else {
                &["spatial-d", "spatial-h", "spatial-w"]
            };
            push("batch", InputDependent, "Weight", dim(x, 0), direct(0, 0, 0));
            for (s, label) in spatial_labels.iter().enumerate() {
                let cut = Cut::Spatial {
                    spatial: s,
                    kernel: dim(w, s),
                    stride: p.stride,
                    pad: p.pads[s],
                };
                push(*label, InputDependent, "Weight, Overlapped", dim(o, s + 1), cut);
            }
            push("out-feature", InputDependent, "Input", dim(o, c), direct(1, c, c));
            push(
                "in-feature",
                OutputDependent,
                "-",
                dim(x, c),
                reduce([c, c - 1], Partials::Output, Add),
            );
        }
        Opcode::Max2D | Opcode::Min2D | Opcode::Avg2D => {
            let (x, o) = (&inst.inputs[0], &inst.outputs[0]);
            let p = inst.params.pool();
            push("batch", Independent, "-", dim(x, 0), direct(0, 0, 0));
            push("feature", Independent, "-", dim(x, 3), direct(0, 3, 3));
            for (s, (label, kernel)) in
                [("spatial-h", p.kh), ("spatial-w", p.kw)].into_iter().enumerate()
            {
                let cut = Cut::Spatial { spatial: s, kernel, stride: p.stride, pad: p.pads[s] };
                push(label, InputDependent, "Overlapped", dim(o, s + 1), cut);
            }
        }
        Opcode::Lrn => {
            let x = &inst.inputs[0];
            for (a, label) in ["batch", "spatial-h", "spatial-w"].into_iter().enumerate() {
                push(label, Independent, "-", dim(x, a), direct(0, a, a));
            }
        }
        Opcode::MatMul => {
            let (a, b) = (&inst.inputs[0], &inst.inputs[1]);
            push("left-rows", InputDependent, "Right Matrix", dim(a, 0), direct(0, 0, 0));
            push("right-cols", InputDependent, "Left Matrix", dim(b, 1), direct(1, 1, 1));
            push("inner", OutputDependent, "-", dim(a, 1), reduce([1, 0], Partials::Output, Add));
        }
        Opcode::Euclidian1D => {
            let (x, y) = (&inst.inputs[0], &inst.inputs[1]);
            push("left", InputDependent, "Right Operand", dim(x, 0), direct(0, 0, 0));
            push("right", InputDependent, "Left Operand", dim(y, 0), direct(1, 0, 1));
            push("dim", OutputDependent, "-", dim(x, 1), reduce([1, 1], Partials::Output, Add));
        }
        Opcode::Sort1D => {
            let cut = reduce([0, 0], Partials::Inputs, Merge);
            push("segment", OutputDependent, "-", dim(&inst.inputs[0], 0), cut);
        }
        Opcode::Count1D | Opcode::HSum1D | Opcode::HProd1D => {
            let kind = if inst.op == Opcode::HProd1D { Mul } else { Add };
            let cut = reduce([0, 0], Partials::Scalar, kind);
            push("segment", OutputDependent, "-", dim(&inst.inputs[0], 0), cut);
        }
        Opcode::Add1D | Opcode::Sub1D | Opcode::Mul1D | Opcode::Act1D => {
            // Elementwise: any axis splits independently. Expose each
            // dimension, labelled by position.
            static LABELS: [&str; 6] = ["dim-0", "dim-1", "dim-2", "dim-3", "dim-4", "dim-5"];
            let x = &inst.inputs[0];
            for (i, label) in LABELS.iter().enumerate().take(x.shape().rank()) {
                let cut = Cut::Direct { inputs: [Some(i); 2], out_axis: i };
                push(label, Independent, "-", dim(x, i), cut);
            }
        }
        Opcode::Merge1D => {
            // Streaming local operation; not fractally decomposed.
        }
    }
    axes
}

/// Input slice and per-piece padding for one spatial axis of a
/// convolution/pooling split: output rows `[out_start, out_start+out_len)`
/// read input rows `[in_start, in_start+in_len)` with piece padding `pad`.
fn spatial_slice(
    in_extent: usize,
    kernel: usize,
    stride: usize,
    pad: Pad,
    out_start: usize,
    out_len: usize,
) -> (usize, usize, Pad) {
    let lo = out_start as isize * stride as isize - pad.before as isize;
    let hi = (out_start + out_len - 1) as isize * stride as isize - pad.before as isize
        + kernel as isize;
    let in_lo = lo.max(0) as usize;
    let in_hi = (hi.min(in_extent as isize)).max(0) as usize;
    let before = (-lo).max(0) as usize;
    let after = (hi - in_extent as isize).max(0) as usize;
    (in_lo, in_hi.saturating_sub(in_lo), Pad { before, after })
}

/// The `(start, len)` pieces of an `extent`-long axis split `parts` ways
/// (both at least 1): [`Shape::split_axis_extents`]' arithmetic
/// (ceil-sized pieces first, none empty), without the vector.
fn extents(extent: usize, parts: usize) -> impl Iterator<Item = (usize, usize)> {
    let chunk = extent.div_ceil(parts);
    (0..extent).step_by(chunk).map(move |start| (start, chunk.min(extent - start)))
}

/// `regions` sliced along `axis` (`None`: kept whole), in a vector of
/// exactly their length.
fn slice_each(
    regions: &[Region],
    axes: impl IntoIterator<Item = Option<usize>>,
    start: usize,
    len: usize,
) -> Result<Vec<Region>, OpsError> {
    let mut out = Vec::with_capacity(regions.len());
    for (r, axis) in regions.iter().zip(axes) {
        out.push(match axis {
            Some(axis) => r.slice(axis, start, len)?,
            None => r.clone(),
        });
    }
    Ok(out)
}

/// `params` with spatial axis `spatial`'s padding replaced by `pad`.
fn with_pad(params: OpParams, spatial: usize, pad: Pad) -> OpParams {
    match params {
        OpParams::Conv(mut p) => {
            p.pads[spatial] = pad;
            OpParams::Conv(p)
        }
        OpParams::Pool(mut p) => {
            p.pads[spatial] = pad;
            OpParams::Pool(p)
        }
        other => other,
    }
}

/// Splits `inst` into at most `parts` sub-operations along axis
/// `axis_index` (an index into [`split_axes`]).
///
/// # Errors
///
/// Returns [`OpsError::NoSuchAxis`] for an invalid axis,
/// [`OpsError::NotDecomposable`] for `Merge1D`, and region/validation
/// errors if the split arithmetic produces illegal slices (`parts == 0`,
/// or a spatial piece whose window lies wholly in the padding).
pub fn apply_split(
    inst: &Instruction,
    axis_index: usize,
    parts: usize,
) -> Result<SplitOutcome, OpsError> {
    if inst.op == Opcode::Merge1D {
        return Err(OpsError::NotDecomposable("Merge1D"));
    }
    let axes = split_axes(inst);
    let axis = axes
        .get(axis_index)
        .ok_or(OpsError::NoSuchAxis { axis: axis_index, op: inst.op.mnemonic() })?;
    match axis.cut {
        Cut::Direct { inputs, out_axis } => {
            let extents = inst.outputs[0].shape().split_axis_extents(out_axis, parts)?;
            let pieces = extents
                .into_iter()
                .map(|(start, len)| {
                    let ins = slice_each(&inst.inputs, inputs, start, len)?;
                    let outs = slice_each(&inst.outputs, [Some(out_axis); 2], start, len)?;
                    Ok(Instruction::new(inst.op, inst.params, ins, outs)?)
                })
                .collect::<Result<_, OpsError>>()?;
            Ok(SplitOutcome::Direct(pieces))
        }
        Cut::Spatial { spatial, kernel, stride, pad } => {
            let axis = spatial + 1; // NHWC / NDHWC
            let in_extent = inst.inputs[0].shape().dim(axis);
            let extents = inst.outputs[0].shape().split_axis_extents(axis, parts)?;
            let pieces = extents
                .into_iter()
                .map(|(start, len)| {
                    let (in_lo, in_len, piece_pad) =
                        spatial_slice(in_extent, kernel, stride, pad, start, len);
                    let mut ins = inst.inputs.clone();
                    ins[0] = ins[0].slice(axis, in_lo, in_len)?;
                    let outs = slice_each(&inst.outputs, [Some(axis); 2], start, len)?;
                    let params = with_pad(inst.params, spatial, piece_pad);
                    Ok(Instruction::new(inst.op, params, ins, outs)?)
                })
                .collect::<Result<_, OpsError>>()?;
            Ok(SplitOutcome::Direct(pieces))
        }
        Cut::Reduce { inputs, partials, kind } => {
            let extents = inst.inputs[0].shape().split_axis_extents(inputs[0], parts)?;
            let pieces = extents
                .into_iter()
                .map(|(start, len)| {
                    let ins = slice_each(&inst.inputs, inputs.map(Some), start, len)?;
                    let partial_shapes = match partials {
                        Partials::Output => vec![inst.outputs[0].shape().clone()],
                        Partials::Inputs => ins.iter().map(|r| r.shape().clone()).collect(),
                        Partials::Scalar => vec![Shape::scalar()],
                    };
                    Ok(PartialPiece {
                        op: inst.op,
                        params: inst.params,
                        inputs: ins,
                        partial_shapes,
                    })
                })
                .collect::<Result<_, OpsError>>()?;
            Ok(SplitOutcome::Reduce { pieces, kind })
        }
    }
}

/// What a `parts`-way split along one axis moves, computed from the
/// operand shapes alone: the decomposers score every candidate axis with
/// it and build the pieces of the chosen one only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitCost {
    /// Number of pieces.
    pub pieces: usize,
    /// Operand bytes summed over the pieces: inputs and outputs of a
    /// direct split's pieces, inputs only for an output-dependent split.
    pub operand_bytes: u64,
    /// Partial-output bytes summed over the pieces (0 for a direct split).
    pub partial_bytes: u64,
    /// The first piece's partial-output bytes.
    pub first_partial_bytes: u64,
    /// The retrieving operator of an output-dependent split.
    pub reduce: Option<ReduceKind>,
}

impl SplitCost {
    /// Extra bytes the split moves relative to executing `inst` whole:
    /// replicated or overlapping operands, plus partial buffers (written
    /// once and read once by `g(·)`). The decomposers minimise this.
    pub fn overhead_bytes(&self, inst: &Instruction) -> u64 {
        match self.reduce {
            None => {
                self.operand_bytes.saturating_sub(bytes_of(inst.inputs.iter().chain(&inst.outputs)))
            }
            Some(_) => self
                .operand_bytes
                .saturating_add(self.partial_bytes.saturating_mul(2))
                .saturating_sub(bytes_of(&inst.inputs)),
        }
    }
}

/// Total bytes of `regions`, saturating at `u64::MAX`.
fn bytes_of<'a>(regions: impl IntoIterator<Item = &'a Region>) -> u64 {
    regions.into_iter().fold(0, |sum, r| sum.saturating_add(r.bytes()))
}

/// Bytes of `r` sliced to `len` along `axis`.
fn slice_bytes(r: &Region, axis: usize, len: usize) -> u64 {
    r.bytes() / r.shape().dim(axis) as u64 * len as u64
}

/// The cost of splitting `inst` `parts` ways along `axis` (one of
/// [`split_axes`]`(inst)`), without building a piece: equal to what
/// summing [`apply_split`]'s pieces gives, with byte sums saturating.
/// `None` exactly where [`apply_split`] errs: `parts == 0`, or a spatial
/// piece whose window lies wholly in the padding.
pub fn split_cost(inst: &Instruction, axis: &AxisInfo, parts: usize) -> Option<SplitCost> {
    if parts == 0 {
        return None;
    }
    let direct = |pieces, operand_bytes| SplitCost {
        pieces,
        operand_bytes,
        partial_bytes: 0,
        first_partial_bytes: 0,
        reduce: None,
    };
    match axis.cut {
        Cut::Direct { inputs, out_axis } => {
            // Sliced operands sum to themselves; whole ones repeat per piece.
            let pieces = extents(inst.outputs[0].shape().dim(out_axis), parts).count();
            let whole = inst.inputs.iter().zip(inputs).filter(|(_, a)| a.is_none());
            let sliced = inst.inputs.iter().zip(inputs).filter(|(_, a)| a.is_some());
            let bytes = bytes_of(sliced.map(|(r, _)| r).chain(&inst.outputs))
                .saturating_add(bytes_of(whole.map(|(r, _)| r)).saturating_mul(pieces as u64));
            Some(direct(pieces, bytes))
        }
        Cut::Spatial { spatial, kernel, stride, pad } => {
            let axis = spatial + 1;
            let x = &inst.inputs[0];
            let in_extent = x.shape().dim(axis);
            let (mut pieces, mut x_bytes) = (0usize, 0u64);
            for (start, len) in extents(inst.outputs[0].shape().dim(axis), parts) {
                let (_, in_len, _) = spatial_slice(in_extent, kernel, stride, pad, start, len);
                if in_len == 0 {
                    return None;
                }
                pieces += 1;
                x_bytes = x_bytes.saturating_add(slice_bytes(x, axis, in_len));
            }
            let bytes = x_bytes
                .saturating_add(bytes_of(&inst.outputs))
                .saturating_add(bytes_of(&inst.inputs[1..]).saturating_mul(pieces as u64));
            Some(direct(pieces, bytes))
        }
        Cut::Reduce { inputs, partials, kind } => {
            let extent = inst.inputs[0].shape().dim(inputs[0]);
            let (pieces, first) = (extents(extent, parts).count(), extent.div_ceil(parts));
            let (total, first) = match partials {
                Partials::Output => {
                    let b = inst.outputs[0].bytes();
                    (b.saturating_mul(pieces as u64), b)
                }
                Partials::Inputs => (
                    bytes_of(&inst.inputs),
                    inst.inputs
                        .iter()
                        .zip(inputs)
                        .fold(0u64, |sum, (r, a)| sum.saturating_add(slice_bytes(r, a, first))),
                ),
                Partials::Scalar => {
                    let b = Shape::scalar().bytes();
                    (b.saturating_mul(pieces as u64), b)
                }
            };
            Some(SplitCost {
                pieces,
                operand_bytes: bytes_of(&inst.inputs),
                partial_bytes: total,
                first_partial_bytes: first,
                reduce: Some(kind),
            })
        }
    }
}

/// One row of the paper's Table 2 ("Computing primitives analysis").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Primitive name as printed in the paper.
    pub primitive: &'static str,
    /// Decomposition label as printed in the paper.
    pub decomposition: &'static str,
    /// Dependency class.
    pub dependency: Dependency,
    /// `g(·)`.
    pub reduce: Option<ReduceKind>,
    /// Data-redundancy column.
    pub redundancy: &'static str,
}

/// The paper's Table 2, derived from this module's axis metadata. `IP`
/// (inner production) is `Euclidian1D`/`MatMul`-style length-wise
/// reduction; `ELTW` stands for all elementwise opcodes.
pub fn table2() -> Vec<Table2Row> {
    use Dependency::*;
    vec![
        Table2Row {
            primitive: "IP",
            decomposition: "Length-Wise",
            dependency: OutputDependent,
            reduce: Some(ReduceKind::Add),
            redundancy: "-",
        },
        Table2Row {
            primitive: "CONV",
            decomposition: "Feature-Wise",
            dependency: OutputDependent,
            reduce: Some(ReduceKind::Add),
            redundancy: "-",
        },
        Table2Row {
            primitive: "CONV",
            decomposition: "Batch-Wise",
            dependency: InputDependent,
            reduce: None,
            redundancy: "Weight",
        },
        Table2Row {
            primitive: "CONV",
            decomposition: "Spatial",
            dependency: InputDependent,
            reduce: None,
            redundancy: "Weight, Overlapped",
        },
        Table2Row {
            primitive: "POOL",
            decomposition: "Feature-Wise",
            dependency: Independent,
            reduce: None,
            redundancy: "-",
        },
        Table2Row {
            primitive: "POOL",
            decomposition: "Spatial",
            dependency: InputDependent,
            reduce: None,
            redundancy: "Overlapped",
        },
        Table2Row {
            primitive: "MMM",
            decomposition: "Left, Vertical",
            dependency: OutputDependent,
            reduce: Some(ReduceKind::Add),
            redundancy: "-",
        },
        Table2Row {
            primitive: "MMM",
            decomposition: "Right, Vertical",
            dependency: InputDependent,
            reduce: None,
            redundancy: "Left Matrix",
        },
        Table2Row {
            primitive: "ELTW",
            decomposition: "Any",
            dependency: Independent,
            reduce: None,
            redundancy: "-",
        },
        Table2Row {
            primitive: "SORT",
            decomposition: "Any",
            dependency: OutputDependent,
            reduce: Some(ReduceKind::Merge),
            redundancy: "-",
        },
        Table2Row {
            primitive: "COUNT",
            decomposition: "Any",
            dependency: OutputDependent,
            reduce: Some(ReduceKind::Add),
            redundancy: "-",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_tensor::Memory;

    use crate::exec::execute_instruction;

    fn reg(offset: u64, dims: &[usize]) -> Region {
        Region::contiguous(offset, Shape::new(dims.to_vec()))
    }

    /// Runs `inst` both directly and via a `parts`-way split along every
    /// available axis, asserting identical (or ε-close) results.
    fn check_all_axes(inst: &Instruction, mem: &Memory, parts: usize, tol: f32) {
        let mut direct = mem.clone();
        execute_instruction(inst, &mut direct).unwrap();
        for axis in split_axes(inst) {
            if axis.extent < 2 {
                continue;
            }
            let mut fractal = mem.clone();
            match apply_split(inst, axis.index, parts).unwrap() {
                SplitOutcome::Direct(pieces) => {
                    for p in &pieces {
                        execute_instruction(p, &mut fractal).unwrap();
                    }
                }
                SplitOutcome::Reduce { pieces, kind } => {
                    // Allocate partials past the end of the program data.
                    let scratch = fractal.len() as u64;
                    let mut partial_insts = Vec::new();
                    let mut partial_regions: Vec<Vec<Region>> = Vec::new();
                    let mut extra = 0u64;
                    for piece in &pieces {
                        let regions: Vec<Region> = piece
                            .partial_shapes
                            .iter()
                            .map(|s| {
                                let r = Region::contiguous(scratch + extra, s.clone());
                                extra += s.numel();
                                r
                            })
                            .collect();
                        partial_regions.push(regions.clone());
                        partial_insts.push(piece.clone().into_instruction(regions).unwrap());
                    }
                    let mut grown = Memory::new(fractal.len() + extra as usize);
                    grown.as_mut_slice()[..fractal.len()].copy_from_slice(fractal.as_slice());
                    for p in &partial_insts {
                        execute_instruction(p, &mut grown).unwrap();
                    }
                    // Apply g(·).
                    match kind {
                        ReduceKind::Add | ReduceKind::Mul => {
                            let shape = inst.outputs[0].shape().clone();
                            let mut acc = grown.read_region(&partial_regions[0][0]).unwrap();
                            for regs in &partial_regions[1..] {
                                let t = grown.read_region(&regs[0]).unwrap();
                                acc = if kind == ReduceKind::Add {
                                    crate::kernels::eltwise_add(&acc, &t).unwrap()
                                } else {
                                    crate::kernels::eltwise_mul(&acc, &t).unwrap()
                                };
                            }
                            let acc = acc.reshape(shape).unwrap();
                            grown.write_region(&inst.outputs[0], &acc).unwrap();
                        }
                        ReduceKind::Merge => {
                            let with_payload = partial_regions[0].len() == 2;
                            let mut keys = grown.read_region(&partial_regions[0][0]).unwrap();
                            let mut pay = with_payload
                                .then(|| grown.read_region(&partial_regions[0][1]).unwrap());
                            for regs in &partial_regions[1..] {
                                let k2 = grown.read_region(&regs[0]).unwrap();
                                let p2 = with_payload.then(|| grown.read_region(&regs[1]).unwrap());
                                let (k, p) =
                                    crate::kernels::merge(&keys, &k2, pay.as_ref(), p2.as_ref())
                                        .unwrap();
                                keys = k;
                                pay = p;
                            }
                            grown.write_region(&inst.outputs[0], &keys).unwrap();
                            if let Some(pay) = pay {
                                grown.write_region(&inst.outputs[1], &pay).unwrap();
                            }
                        }
                    }
                    // Copy back visible part.
                    let n = fractal.len();
                    fractal.as_mut_slice().copy_from_slice(&grown.as_slice()[..n]);
                }
            }
            // Compare only the output regions: scratch layouts differ.
            for out in &inst.outputs {
                let a = direct.read_region(out).unwrap();
                let b = fractal.read_region(out).unwrap();
                assert!(
                    a.approx_eq(&b, tol),
                    "axis `{}` of {} diverged (max diff {})",
                    axis.label,
                    inst.op,
                    a.max_abs_diff(&b).unwrap()
                );
            }
        }
    }

    /// The axis whose `parts`-way split moves the fewest extra bytes (the
    /// first of equals); `None` when no axis splits.
    fn cheapest_axis(inst: &Instruction, parts: usize) -> Option<AxisInfo> {
        split_axes(inst)
            .into_iter()
            .filter(|axis| axis.extent >= 2)
            .filter_map(|axis| Some((split_cost(inst, &axis, parts)?, axis)))
            .filter(|(cost, _)| cost.pieces >= 2)
            .min_by_key(|(cost, _)| cost.overhead_bytes(inst))
            .map(|(_, axis)| axis)
    }

    fn filled_memory(n: usize, seed: u64) -> Memory {
        let mut mem = Memory::new(n);
        let t = cf_tensor::gen::DataGen::new(seed).uniform(Shape::new(vec![n]), -2.0, 2.0);
        mem.as_mut_slice().copy_from_slice(t.data());
        mem
    }

    #[test]
    fn conv2d_all_axes_match_direct() {
        // x[2,6,6,4] w[3,3,4,5] -> o[2,6,6,5], stride 1 pad 1.
        let inst = Instruction::new(
            Opcode::Cv2D,
            OpParams::Conv(ConvParams::same(1, 1)),
            vec![reg(0, &[2, 6, 6, 4]), reg(288, &[3, 3, 4, 5])],
            vec![reg(468, &[2, 6, 6, 5])],
        )
        .unwrap();
        let mem = filled_memory(828, 11);
        check_all_axes(&inst, &mem, 3, 1e-4);
    }

    #[test]
    fn conv2d_strided_spatial_split() {
        let inst = Instruction::new(
            Opcode::Cv2D,
            OpParams::Conv(ConvParams::same(2, 1)),
            vec![reg(0, &[1, 9, 9, 2]), reg(162, &[3, 3, 2, 3])],
            vec![reg(216, &[1, 5, 5, 3])],
        )
        .unwrap();
        let mem = filled_memory(291, 12);
        check_all_axes(&inst, &mem, 2, 1e-4);
    }

    #[test]
    fn cv3d_all_axes_match_direct() {
        let inst = Instruction::new(
            Opcode::Cv3D,
            OpParams::Conv(ConvParams::same(1, 1)),
            vec![reg(0, &[1, 4, 4, 4, 2]), reg(128, &[3, 3, 3, 2, 3])],
            vec![reg(290, &[1, 4, 4, 4, 3])],
        )
        .unwrap();
        let mem = filled_memory(482, 13);
        check_all_axes(&inst, &mem, 2, 1e-4);
    }

    #[test]
    fn pooling_all_axes_match_direct() {
        for op in [Opcode::Max2D, Opcode::Min2D, Opcode::Avg2D] {
            let inst = Instruction::new(
                op,
                OpParams::Pool(PoolParams::square(3, 2, 1)),
                vec![reg(0, &[2, 7, 7, 3])],
                vec![reg(294, &[2, 4, 4, 3])],
            )
            .unwrap();
            let mem = filled_memory(390, 14);
            check_all_axes(&inst, &mem, 2, 1e-5);
        }
    }

    #[test]
    fn lrn_axes_match_direct() {
        let inst = Instruction::new(
            Opcode::Lrn,
            OpParams::None,
            vec![reg(0, &[2, 4, 4, 8])],
            vec![reg(256, &[2, 4, 4, 8])],
        )
        .unwrap();
        let mem = filled_memory(512, 15);
        check_all_axes(&inst, &mem, 2, 1e-5);
    }

    #[test]
    fn matmul_all_axes_match_direct() {
        let inst = Instruction::new(
            Opcode::MatMul,
            OpParams::None,
            vec![reg(0, &[6, 8]), reg(48, &[8, 5])],
            vec![reg(88, &[6, 5])],
        )
        .unwrap();
        let mem = filled_memory(118, 16);
        check_all_axes(&inst, &mem, 3, 1e-4);
    }

    #[test]
    fn euclidean_all_axes_match_direct() {
        let inst = Instruction::new(
            Opcode::Euclidian1D,
            OpParams::None,
            vec![reg(0, &[5, 6]), reg(30, &[4, 6])],
            vec![reg(54, &[5, 4])],
        )
        .unwrap();
        let mem = filled_memory(74, 17);
        check_all_axes(&inst, &mem, 2, 1e-4);
    }

    #[test]
    fn sort_with_payload_matches_direct() {
        let inst = Instruction::new(
            Opcode::Sort1D,
            OpParams::None,
            vec![reg(0, &[16]), reg(16, &[16])],
            vec![reg(32, &[16]), reg(48, &[16])],
        )
        .unwrap();
        let mem = filled_memory(64, 18);
        check_all_axes(&inst, &mem, 4, 0.0);
    }

    #[test]
    fn horizontal_and_count_match_direct() {
        for op in [Opcode::HSum1D, Opcode::HProd1D, Opcode::Count1D] {
            let inst =
                Instruction::new(op, OpParams::None, vec![reg(0, &[13])], vec![reg(13, &[1])])
                    .unwrap();
            // Keep values near 1 so HProd stays in float range.
            let mut mem = Memory::new(14);
            let t = cf_tensor::gen::DataGen::new(19).uniform(Shape::new(vec![14]), 0.5, 1.5);
            mem.as_mut_slice().copy_from_slice(t.data());
            check_all_axes(&inst, &mem, 3, 1e-4);
        }
    }

    #[test]
    fn eltwise_all_axes_match_direct() {
        for op in [Opcode::Add1D, Opcode::Sub1D, Opcode::Mul1D] {
            let inst = Instruction::new(
                op,
                OpParams::None,
                vec![reg(0, &[4, 6]), reg(24, &[4, 6])],
                vec![reg(48, &[4, 6])],
            )
            .unwrap();
            let mem = filled_memory(72, 20);
            check_all_axes(&inst, &mem, 3, 0.0);
        }
    }

    #[test]
    fn merge_is_not_decomposable() {
        let inst = Instruction::new(
            Opcode::Merge1D,
            OpParams::None,
            vec![reg(0, &[4]), reg(4, &[4])],
            vec![reg(8, &[8])],
        )
        .unwrap();
        assert!(split_axes(&inst).is_empty());
        assert!(matches!(apply_split(&inst, 0, 2), Err(OpsError::NotDecomposable(_))));
    }

    #[test]
    fn choose_split_prefers_independent_axes() {
        // Pooling: batch/feature splits are overhead-free, spatial overlaps.
        let inst = Instruction::new(
            Opcode::Max2D,
            OpParams::Pool(PoolParams::square(3, 1, 0)),
            vec![reg(0, &[4, 8, 8, 4])],
            vec![reg(1024, &[4, 6, 6, 4])],
        )
        .unwrap();
        let axis = cheapest_axis(&inst, 4).unwrap();
        assert_eq!(axis.dependency, Dependency::Independent);
    }

    #[test]
    fn choose_split_matmul_avoids_reduction_when_possible() {
        let inst = Instruction::new(
            Opcode::MatMul,
            OpParams::None,
            vec![reg(0, &[64, 8]), reg(512, &[8, 64])],
            vec![reg(1024, &[64, 64])],
        )
        .unwrap();
        let axis = cheapest_axis(&inst, 4).unwrap();
        assert_ne!(axis.dependency, Dependency::OutputDependent);
    }

    #[test]
    fn choose_split_none_for_scalar_work() {
        let inst = Instruction::new(
            Opcode::HSum1D,
            OpParams::None,
            vec![reg(0, &[1])],
            vec![reg(1, &[1])],
        )
        .unwrap();
        assert!(cheapest_axis(&inst, 4).is_none());
    }

    #[test]
    fn split_cost_is_none_where_a_piece_reads_only_padding() {
        // A 1×1 kernel over one row padded by one on each side: the
        // output's first and last rows read padding only.
        let inst = Instruction::new(
            Opcode::Cv2D,
            OpParams::Conv(ConvParams::same(1, 1)),
            vec![reg(0, &[1, 1, 1, 1]), reg(1, &[1, 1, 1, 1])],
            vec![reg(2, &[1, 3, 3, 1])],
        )
        .unwrap();
        let h = split_axes(&inst).into_iter().find(|a| a.label == "spatial-h").unwrap();
        assert!(apply_split(&inst, h.index, 3).is_err());
        assert_eq!(split_cost(&inst, &h, 3), None);
        let whole = split_cost(&inst, &h, 1).unwrap();
        assert_eq!((whole.pieces, whole.operand_bytes), (1, inst.operand_bytes()));
        assert_eq!(whole.overhead_bytes(&inst), 0);
    }

    #[test]
    fn table2_is_consistent_with_axis_metadata() {
        // CONV rows.
        let conv = Instruction::new(
            Opcode::Cv2D,
            OpParams::Conv(ConvParams::same(1, 0)),
            vec![reg(0, &[2, 5, 5, 3]), reg(150, &[3, 3, 3, 4])],
            vec![reg(258, &[2, 3, 3, 4])],
        )
        .unwrap();
        let axes = split_axes(&conv);
        let feature = axes.iter().find(|a| a.label == "in-feature").unwrap();
        assert_eq!(feature.dependency, Dependency::OutputDependent);
        assert_eq!(feature.reduce, Some(ReduceKind::Add));
        let batch = axes.iter().find(|a| a.label == "batch").unwrap();
        assert_eq!(batch.redundancy, "Weight");
        // Cross-check against the static table.
        let t2 = table2();
        assert!(t2.iter().any(|r| r.primitive == "CONV"
            && r.decomposition == "Batch-Wise"
            && r.redundancy == "Weight"));
        assert_eq!(t2.len(), 11);
    }

    #[test]
    fn spatial_slice_edges() {
        // 6-wide input, kernel 3, stride 1, pad 1 → output 6. First half
        // of the output needs rows 0..4 with pad_before 1.
        let (lo, len, pad) = spatial_slice(6, 3, 1, Pad::same(1), 0, 3);
        assert_eq!((lo, len), (0, 4));
        assert_eq!(pad, Pad { before: 1, after: 0 });
        let (lo, len, pad) = spatial_slice(6, 3, 1, Pad::same(1), 3, 3);
        assert_eq!((lo, len), (2, 4));
        assert_eq!(pad, Pad { before: 0, after: 1 });
    }
}
