use crate::inline::InlineVec;
use crate::{Shape, TensorError};

/// A strided view into a linear `f32` memory.
///
/// Regions are the addressing unit of FISA operands and of DMA transfers
/// between a node and its parent: the demotion decoder slices parent-memory
/// regions into sub-regions, and the DMA controller copies regions between
/// memories. A region never owns data.
///
/// # Examples
///
/// ```
/// use cf_tensor::{Region, Shape};
///
/// // A 4x4 matrix stored row-major at element 100.
/// let m = Region::contiguous(100, Shape::new(vec![4, 4]));
/// // Its lower-right 2x2 block.
/// let block = m.slice(0, 2, 2).unwrap().slice(1, 2, 2).unwrap();
/// assert_eq!(block.offset(), 100 + 2 * 4 + 2);
/// assert_eq!(block.shape().dims(), &[2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    offset: u64,
    shape: Shape,
    strides: InlineVec<u64>,
}

impl Region {
    /// A row-major (contiguous) region of `shape` starting at element
    /// `offset`.
    pub fn contiguous(offset: u64, shape: Shape) -> Self {
        let strides = shape.row_major_strides_inline();
        Region { offset, shape, strides }
    }

    /// A region with explicit strides (in elements).
    ///
    /// # Panics
    ///
    /// Panics if `strides.len() != shape.rank()`.
    pub fn strided(offset: u64, shape: Shape, strides: Vec<u64>) -> Self {
        assert_eq!(strides.len(), shape.rank(), "stride/rank mismatch");
        Region { offset, shape, strides: InlineVec::from_vec(strides) }
    }

    /// Element offset of the first element.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The same view translated `delta` elements forward in memory.
    ///
    /// Slicing is translation-invariant, so a region derived from a
    /// zero-based operand can be rebased onto the operand's real address
    /// by translating it by the operand's offset.
    pub fn translated(&self, delta: u64) -> Self {
        Region {
            offset: self.offset + delta,
            shape: self.shape.clone(),
            strides: self.strides.clone(),
        }
    }

    /// The same view starting at element `offset`.
    pub fn with_offset(&self, offset: u64) -> Self {
        Region { offset, shape: self.shape.clone(), strides: self.strides.clone() }
    }

    /// The region's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Per-axis strides in elements.
    pub fn strides(&self) -> &[u64] {
        self.strides.as_slice()
    }

    /// Number of elements in the region.
    pub fn numel(&self) -> u64 {
        self.shape.numel()
    }

    /// Size in bytes (`f32` elements).
    pub fn bytes(&self) -> u64 {
        self.shape.bytes()
    }

    /// Whether the region is dense row-major (a single contiguous block).
    pub fn is_contiguous(&self) -> bool {
        self.strides == self.shape.row_major_strides_inline()
    }

    /// Address of the last element the region touches (inclusive).
    pub fn end(&self) -> u64 {
        self.offset
            + self
                .shape
                .dims()
                .iter()
                .zip(self.strides.as_slice())
                .map(|(&d, &s)| (d as u64 - 1) * s)
                .sum::<u64>()
    }

    /// Sub-region selecting `[start, start+len)` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for an invalid axis,
    /// [`TensorError::EmptySplit`] when `len == 0`, and
    /// [`TensorError::RegionOutOfBounds`] when the slice exceeds the axis
    /// extent.
    pub fn slice(&self, axis: usize, start: usize, len: usize) -> Result<Region, TensorError> {
        if axis >= self.shape.rank() {
            return Err(TensorError::AxisOutOfRange { axis, rank: self.shape.rank() });
        }
        if len == 0 {
            return Err(TensorError::EmptySplit);
        }
        if start + len > self.shape.dim(axis) {
            return Err(TensorError::RegionOutOfBounds {
                end: (start + len) as u64,
                len: self.shape.dim(axis) as u64,
            });
        }
        Ok(Region {
            offset: self.offset + start as u64 * self.strides.as_slice()[axis],
            shape: self.shape.with_dim(axis, len)?,
            strides: self.strides.clone(),
        })
    }

    /// Splits the region into near-equal sub-regions along `axis` (the
    /// region analogue of [`Shape::split_axis`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Shape::split_axis`].
    pub fn split_axis(&self, axis: usize, parts: usize) -> Result<Vec<Region>, TensorError> {
        self.shape
            .split_axis_extents(axis, parts)?
            .into_iter()
            .map(|(start, len)| self.slice(axis, start, len))
            .collect()
    }

    /// Conservative overlap test in the linear address space: `true` if the
    /// bounding intervals of the two regions intersect. Used for
    /// read-after-write hazard detection, where a false positive merely
    /// stalls the pipeline while a false negative would corrupt data.
    pub fn may_overlap(&self, other: &Region) -> bool {
        self.offset <= other.end() && other.offset <= self.end()
    }

    /// Visits the region as maximal contiguous `(start_address, length)`
    /// runs, in row-major order. This is the inner loop of every DMA copy.
    pub fn for_each_run(&self, mut f: impl FnMut(u64, usize)) {
        let rank = self.shape.rank();
        let strides = self.strides.as_slice();
        // The innermost axis forms a contiguous run only when its stride is 1;
        // otherwise it is emitted as element-sized runs.
        let inner_len = self.shape.dim(rank - 1);
        let inner_stride = strides[rank - 1];
        let outer_rank = rank - 1;
        let mut idx = vec![0usize; outer_rank];
        loop {
            let mut addr = self.offset;
            for (i, &ix) in idx.iter().enumerate() {
                addr += ix as u64 * strides[i];
            }
            if inner_stride == 1 {
                f(addr, inner_len);
            } else {
                for k in 0..inner_len {
                    f(addr + k as u64 * inner_stride, 1);
                }
            }
            // Odometer increment over the outer axes.
            let mut axis = outer_rank;
            loop {
                if axis == 0 {
                    return;
                }
                axis -= 1;
                idx[axis] += 1;
                if idx[axis] < self.shape.dim(axis) {
                    break;
                }
                idx[axis] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_region_end() {
        let r = Region::contiguous(10, Shape::new(vec![2, 3]));
        assert_eq!(r.end(), 10 + 5);
        assert!(r.is_contiguous());
    }

    #[test]
    fn slice_matrix_rows_stays_contiguous() {
        let r = Region::contiguous(0, Shape::new(vec![4, 8]));
        let top = r.slice(0, 0, 2).unwrap();
        assert!(top.is_contiguous());
        let bottom = r.slice(0, 2, 2).unwrap();
        assert_eq!(bottom.offset(), 16);
    }

    #[test]
    fn slice_matrix_cols_is_strided() {
        let r = Region::contiguous(0, Shape::new(vec![4, 8]));
        let right = r.slice(1, 4, 4).unwrap();
        assert!(!right.is_contiguous());
        assert_eq!(right.offset(), 4);
        assert_eq!(right.end(), 4 + 3 * 8 + 3);
    }

    #[test]
    fn split_axis_covers_region() {
        let r = Region::contiguous(0, Shape::new(vec![10]));
        let parts = r.split_axis(0, 3).unwrap();
        let total: u64 = parts.iter().map(Region::numel).sum();
        assert_eq!(total, 10);
        assert_eq!(parts[0].offset(), 0);
        assert_eq!(parts[1].offset(), 4);
    }

    #[test]
    fn overlap_detection() {
        let a = Region::contiguous(0, Shape::new(vec![10]));
        let b = Region::contiguous(5, Shape::new(vec![10]));
        let c = Region::contiguous(10, Shape::new(vec![4]));
        assert!(a.may_overlap(&b));
        assert!(b.may_overlap(&c));
        assert!(!a.may_overlap(&c));
    }

    #[test]
    fn runs_of_contiguous_region() {
        let r = Region::contiguous(3, Shape::new(vec![2, 4]));
        let mut runs = Vec::new();
        r.for_each_run(|a, l| runs.push((a, l)));
        assert_eq!(runs, vec![(3, 4), (7, 4)]);
    }

    #[test]
    fn runs_of_column_slice() {
        let r = Region::contiguous(0, Shape::new(vec![3, 4])).slice(1, 1, 2).unwrap();
        let mut runs = Vec::new();
        r.for_each_run(|a, l| runs.push((a, l)));
        assert_eq!(runs, vec![(1, 2), (5, 2), (9, 2)]);
    }

    #[test]
    fn runs_of_fully_strided_region() {
        // Column vector of a 3x4 matrix: stride 4, no contiguous runs.
        let r = Region::strided(2, Shape::new(vec![3]), vec![4]);
        let mut runs = Vec::new();
        r.for_each_run(|a, l| runs.push((a, l)));
        assert_eq!(runs, vec![(2, 1), (6, 1), (10, 1)]);
    }

    #[test]
    fn bad_slices_error() {
        let r = Region::contiguous(0, Shape::new(vec![4]));
        assert!(r.slice(0, 2, 3).is_err());
        assert!(r.slice(1, 0, 1).is_err());
        assert!(r.slice(0, 0, 0).is_err());
    }
}
