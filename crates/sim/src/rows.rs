//! `from × to` tables that grow on first use.
//!
//! Actor ids are dense (`0..n_actors`), so anything kept per directed link
//! — the [`crate::Metrics`] link records, the [`crate::BandwidthLinks`]
//! free horizons — is a row per sender indexed by receiver: one bounds
//! check and an add per send instead of a map probe. A row is only as long
//! as the highest receiver its sender has addressed, so memory follows the
//! links that exist, not `n²`.

/// Rows of `T`, indexed `[row][col]`, every cell `T::default()` until
/// written.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkRows<T> {
    rows: Vec<Vec<T>>,
}

impl<T: Clone + Default> LinkRows<T> {
    /// The cell at `[row][col]`, growing the table to hold it.
    #[inline]
    pub(crate) fn cell_mut(&mut self, row: usize, col: usize) -> &mut T {
        if row >= self.rows.len() {
            self.rows.resize_with(row + 1, Vec::new);
        }
        let cells = &mut self.rows[row];
        if col >= cells.len() {
            cells.resize(col + 1, T::default());
        }
        &mut cells[col]
    }

    /// The cell at `[row][col]`, if the table has grown that far.
    pub(crate) fn get(&self, row: usize, col: usize) -> Option<&T> {
        self.rows.get(row)?.get(col)
    }

    /// Row `row` (empty if the table has not grown that far).
    pub(crate) fn row(&self, row: usize) -> &[T] {
        self.rows.get(row).map_or(&[], Vec::as_slice)
    }

    /// Every row, in index order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[T]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// Every cell with its `(row, col)`, rows then columns ascending.
    pub(crate) fn cells(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, cells)| cells.iter().enumerate().map(move |(c, t)| ((r, c), t)))
    }
}
