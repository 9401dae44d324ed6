//! Reference kernels, fractal decomposition rules and cost model for every
//! FISA primitive.
//!
//! Three layers:
//!
//! * [`kernels`] — plain-Rust reference implementations of the seventeen
//!   FISA operations. These are the ground truth the fractal machine is
//!   validated against, and they double as the leaf-accelerator functional
//!   model.
//! * [`fractal`] — the paper's §2 theory made executable: which axes each
//!   primitive can be decomposed along, the dependency class of each axis
//!   (*independent*, *input dependent*, *output dependent*), the retrieving
//!   operator `g(·)` and the data redundancy (Table 2), plus the region
//!   arithmetic that actually performs a split ([`fractal::apply_split`])
//!   and a shape-only scorer of it ([`fractal::split_cost`]: piece count,
//!   operand and partial bytes, without building a piece), which the
//!   decomposers use to pick an axis before building its pieces.
//! * [`cost`] — operation/byte counts per instruction, used by the leaf
//!   timing model, the decomposition chooser and the Table 1 profiler.
//!
//! # Examples
//!
//! Decompose-and-execute equals direct execution (the fractal-operation
//! property, eq. (1) of the paper):
//!
//! ```
//! use cf_isa::{Instruction, Opcode, OpParams};
//! use cf_ops::fractal::{apply_split, SplitOutcome};
//! use cf_tensor::{Region, Shape};
//!
//! let inst = Instruction::new(
//!     Opcode::Add1D,
//!     OpParams::None,
//!     vec![Region::contiguous(0, Shape::new(vec![64])), Region::contiguous(64, Shape::new(vec![64]))],
//!     vec![Region::contiguous(128, Shape::new(vec![64]))],
//! )?;
//! let axes = cf_ops::fractal::split_axes(&inst);
//! match apply_split(&inst, axes[0].index, 2)? {
//!     SplitOutcome::Direct(parts) => assert_eq!(parts.len(), 2),
//!     _ => unreachable!("elementwise splits are independent"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;

pub mod cost;
pub mod exec;
pub mod fractal;
pub mod kernels;

pub use error::OpsError;
