//! Dense cost matrix for assignment problems.

use std::borrow::Cow;
use std::fmt;

/// Row-major dense `n × n` cost matrix with `u32` entries.
///
/// Rows are "workers" (input tiles `I_u`), columns are "jobs" (target
/// positions `T_v`); entry `(u, v)` is the paper's edge weight
/// `w_{u,v} = E(I_u, T_v)`.
///
/// The entries are either owned ([`CostMatrix::from_vec`],
/// [`CostMatrix::from_fn`]) or borrowed from a row-major buffer that
/// already exists ([`CostMatrix::borrowed`]), so a caller holding the
/// Step-2 error matrix solves it where it lies instead of copying S²
/// entries first.
#[derive(Clone, PartialEq, Eq)]
pub struct CostMatrix<'a> {
    n: usize,
    data: Cow<'a, [u32]>,
}

impl CostMatrix<'static> {
    /// Wrap a row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != n * n` or `n == 0`.
    pub fn from_vec(n: usize, data: Vec<u32>) -> Self {
        CostMatrix::new(n, Cow::Owned(data))
    }

    /// Build from a closure over `(row, col)`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u32) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                data.push(f(r, c));
            }
        }
        CostMatrix::from_vec(n, data)
    }
}

impl<'a> CostMatrix<'a> {
    /// View a row-major buffer without copying it.
    ///
    /// # Panics
    /// Panics when `data.len() != n * n` or `n == 0`.
    pub fn borrowed(n: usize, data: &'a [u32]) -> Self {
        CostMatrix::new(n, Cow::Borrowed(data))
    }

    fn new(n: usize, data: Cow<'a, [u32]>) -> Self {
        assert!(n > 0, "cost matrix must be non-empty");
        assert_eq!(
            data.len(),
            n * n,
            "buffer length {} does not match {n}x{n}",
            data.len()
        );
        CostMatrix { n, data }
    }

    /// Dimension `n`.
    #[inline]
    pub fn size(&self) -> usize {
        self.n
    }

    /// Cost of assigning row `r` to column `c`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u32 {
        assert!(r < self.n && c < self.n, "({r},{c}) out of range");
        self.data[r * self.n + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        assert!(r < self.n, "row {r} out of range");
        &self.data[r * self.n..(r + 1) * self.n]
    }

    /// Raw row-major entries.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// Largest entry.
    pub fn max_entry(&self) -> u32 {
        self.data.iter().copied().max().unwrap_or(0)
    }

    /// Total cost of `row_to_col` (`row_to_col[r] = c`).
    ///
    /// # Panics
    /// Panics when the mapping's length differs from `n` or any column is
    /// out of range.
    pub fn total(&self, row_to_col: &[usize]) -> u64 {
        assert_eq!(row_to_col.len(), self.n, "mapping length must equal n");
        row_to_col
            .iter()
            .enumerate()
            .map(|(r, &c)| u64::from(self.get(r, c)))
            .sum()
    }
}

impl fmt::Debug for CostMatrix<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CostMatrix({0}x{0})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = CostMatrix::from_fn(3, |r, c| (r * 10 + c) as u32);
        assert_eq!(m.size(), 3);
        assert_eq!(m.get(2, 1), 21);
        assert_eq!(m.row(1), &[10, 11, 12]);
        assert_eq!(m.max_entry(), 22);
    }

    #[test]
    fn total_of_identity_mapping() {
        let m = CostMatrix::from_fn(3, |r, c| (r * 10 + c) as u32);
        assert_eq!(m.total(&[0, 1, 2]), 11 + 22);
        assert_eq!(m.total(&[2, 1, 0]), 2 + 11 + 20);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        let _ = CostMatrix::from_vec(0, vec![]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_buffer_len_panics() {
        let _ = CostMatrix::from_vec(2, vec![0; 3]);
    }

    #[test]
    fn borrowed_view_reads_the_buffer_in_place() {
        let data: Vec<u32> = (0..9).collect();
        let view = CostMatrix::borrowed(3, &data);
        assert_eq!(view.as_slice().as_ptr(), data.as_ptr());
        assert_eq!(view, CostMatrix::from_vec(3, data.clone()));
        assert_eq!(view.total(&[2, 1, 0]), 2 + 4 + 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let m = CostMatrix::from_vec(1, vec![0]);
        let _ = m.get(0, 1);
    }
}
