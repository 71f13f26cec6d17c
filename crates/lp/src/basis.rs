//! Basis bookkeeping for the bounded-variable revised simplex.

/// Status of one variable relative to the current basis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarStatus {
    /// Basic, sitting in the given basis row (position).
    Basic(usize),
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
}

impl VarStatus {
    /// The ±1 status weight used by the device pricing kernel: −1 at lower,
    /// +1 at upper, 0 when basic (excluded from pricing).
    pub fn sigma(self) -> f64 {
        match self {
            VarStatus::Basic(_) => 0.0,
            VarStatus::AtLower => -1.0,
            VarStatus::AtUpper => 1.0,
        }
    }
}

/// A complete basis description: which column occupies each basis row, and
/// every variable's status. This is the warm-start snapshot passed between
/// tree nodes (Section 5.3) and across cut rounds (Section 5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    /// `cols[i]` = column index basic in row `i`; length `m`.
    pub cols: Vec<usize>,
    /// Per-variable status; length `n`.
    pub status: Vec<VarStatus>,
}

impl Basis {
    /// Builds a basis with the given basic columns; everything else starts
    /// at its lower bound.
    pub fn with_basic_cols(cols: Vec<usize>, n: usize) -> Self {
        let mut status = vec![VarStatus::AtLower; n];
        for (i, &j) in cols.iter().enumerate() {
            status[j] = VarStatus::Basic(i);
        }
        Self { cols, status }
    }

    /// Number of basic variables (rows).
    pub fn m(&self) -> usize {
        self.cols.len()
    }

    /// Number of variables tracked.
    pub fn n(&self) -> usize {
        self.status.len()
    }

    /// Applies a pivot: column `q` becomes basic in row `r`; the previous
    /// occupant moves to the given nonbasic status.
    pub fn pivot(&mut self, r: usize, q: usize, leaving_to: VarStatus) {
        debug_assert!(!matches!(leaving_to, VarStatus::Basic(_)));
        let leaving = self.cols[r];
        self.status[leaving] = leaving_to;
        self.cols[r] = q;
        self.status[q] = VarStatus::Basic(r);
    }

    /// Extends the basis for `k` appended cut rows whose slack columns start
    /// at `first_slack_col`: each new slack becomes basic in its own row
    /// (preserving dual feasibility — the Section 5.2 warm-start pattern).
    pub fn extend_for_cuts(&mut self, first_slack_col: usize, k: usize) {
        for t in 0..k {
            let row = self.cols.len();
            let col = first_slack_col + t;
            if col >= self.status.len() {
                self.status.resize(col + 1, VarStatus::AtLower);
            }
            self.cols.push(col);
            self.status[col] = VarStatus::Basic(row);
        }
    }

    /// Internal consistency check: every basic column's status points back
    /// at its row, and nonbasic statuses are not referenced by `cols`.
    pub fn is_consistent(&self) -> bool {
        for (i, &j) in self.cols.iter().enumerate() {
            if j >= self.status.len() || self.status[j] != VarStatus::Basic(i) {
                return false;
            }
        }
        let basics = self
            .status
            .iter()
            .filter(|s| matches!(s, VarStatus::Basic(_)))
            .count();
        basics == self.cols.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_consistency() {
        let b = Basis::with_basic_cols(vec![3, 4], 5);
        assert_eq!(b.m(), 2);
        assert_eq!(b.n(), 5);
        assert!(b.is_consistent());
        assert_eq!(b.status[3], VarStatus::Basic(0));
        assert_eq!(b.status[0], VarStatus::AtLower);
    }

    #[test]
    fn sigma_weights() {
        assert_eq!(VarStatus::AtLower.sigma(), -1.0);
        assert_eq!(VarStatus::AtUpper.sigma(), 1.0);
        assert_eq!(VarStatus::Basic(0).sigma(), 0.0);
    }

    #[test]
    fn pivot_swaps_roles() {
        let mut b = Basis::with_basic_cols(vec![3, 4], 5);
        b.pivot(0, 1, VarStatus::AtUpper);
        assert_eq!(b.cols[0], 1);
        assert_eq!(b.status[1], VarStatus::Basic(0));
        assert_eq!(b.status[3], VarStatus::AtUpper);
        assert!(b.is_consistent());
    }

    #[test]
    fn cut_extension_keeps_consistency() {
        let mut b = Basis::with_basic_cols(vec![0, 1], 4);
        b.extend_for_cuts(4, 2);
        assert_eq!(b.m(), 4);
        assert_eq!(b.n(), 6);
        assert_eq!(b.cols[2], 4);
        assert_eq!(b.cols[3], 5);
        assert!(b.is_consistent());
    }

    #[test]
    fn inconsistency_detected() {
        let mut b = Basis::with_basic_cols(vec![0], 2);
        b.status[0] = VarStatus::AtLower; // corrupt
        assert!(!b.is_consistent());
    }
}
