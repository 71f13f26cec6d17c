//! The host's record of what an install left on the device.
//!
//! An install assembles nine vectors on the host — `c`, `b`, σ, `x_N`,
//! `c_B`, `l_B`, `u_B`, `l`, `u` — and a device engine keeps them resident.
//! [`InstallRecord`] is the host's copy of what the device holds: set by
//! every completed install, kept up to date by the stores a pivot or a
//! bound flip carries (so right after a run it is what the next install of
//! the run's basis assembles), and forgotten when an install fails or a cut
//! grows the problem. An install against a held record ships only the
//! entries that differ from it, and when those fit one launch's arguments
//! ([`LAUNCH_WRITES`]) they ride the install's first kernel and cross
//! nothing. Both engines that model the device keep one:
//! [`crate::DeviceSimplex`], which turns the changes into stores against its
//! resident vectors' handles, and each wave lane's
//! [`crate::RecordingEngine`], which needs only the decision and mirrors the
//! same pivot and flip stores, so a lane decides upload or delta exactly as
//! a device engine on the same calls would.

use crate::basis::Basis;
use crate::engine::{PivotPlan, ProblemView};
use crate::LpResult;
use gmip_gpu::LAUNCH_WRITES;

/// Slot of `c`.
const C: usize = 0;
/// Slot of `b`.
const B: usize = 1;
/// Slot of σ.
const SIGMA: usize = 2;
/// Slot of `x_N`.
const X_N: usize = 3;
/// Slot of `c_B`.
const C_B: usize = 4;
/// Slot of `l_B`.
const L_B: usize = 5;
/// Slot of `u_B`.
const U_B: usize = 6;
/// Slot of `l`.
const L: usize = 7;
/// Slot of `u`.
const U: usize = 8;
/// A slot no recorded vector has: `x_B`'s, which the device derives.
const X_B: usize = 9;

/// Writes `value` over `held` and says whether its bits differ.
#[inline(always)]
fn replace(held: &mut f64, value: f64) -> bool {
    let differs = held.to_bits() != value.to_bits();
    *held = value;
    differs
}

/// An install's host buffers, which are also the record of what the device
/// holds in the vectors they are uploaded to. The buffers are kept across
/// installs, so a warm re-solve assembles, compares and records without
/// allocating.
#[derive(Debug, Default)]
pub(crate) struct InstallRecord {
    /// `c`, `b`, σ, `x_N`, `c_B`, `l_B`, `u_B`, `l`, `u`, back to back, as
    /// the device holds them when `held` is set: one buffer, which an
    /// install reads front to back (a wave lane's comes back to it cold).
    buf: Vec<f64>,
    /// Where each of the nine vectors ends in `buf`.
    ends: [usize; 9],
    pub(crate) held: bool,
}

impl InstallRecord {
    /// Assembles an install into the record, entry by entry, and returns
    /// whether what it changed of a held record fits one launch's arguments
    /// ([`LAUNCH_WRITES`]); each change that fits is handed to `store` as
    /// `(slot, entry, value)`. The record is not held afterwards:
    /// [`hold`](Self::hold) it once the install completes.
    pub(crate) fn take(
        &mut self,
        view: ProblemView<'_>,
        basis: &Basis,
        mut store: impl FnMut(usize, usize, f64),
    ) -> LpResult<bool> {
        debug_assert_eq!(view.b.len(), basis.cols.len(), "one basic column per row");
        let lens = Self::lens_of(view.b.len(), view.c.len());
        let kept = std::mem::take(&mut self.held) && self.lens() == lens;
        if !kept {
            let mut end = 0;
            self.ends = lens.map(|len| {
                end += len;
                end
            });
            self.buf.clear();
            self.buf.resize(end, 0.0);
        }
        let (mut fits, mut stores) = (kept, 0);
        let mut changed = |k: usize, i: usize, value: f64| {
            if fits {
                fits = stores < LAUNCH_WRITES;
                if fits {
                    stores += 1;
                    store(k, i, value);
                }
            }
        };
        let [c, b, sigma, x_n, c_b, l_b, u_b, l, u] = self.vectors_mut();
        for (k, held, src) in [
            (C, c, view.c),
            (B, b, view.b),
            (L, l, view.lb),
            (U, u, view.ub),
        ] {
            if !kept {
                held.copy_from_slice(src);
                continue;
            }
            // Scan for the next entry that differs: most do not.
            let mut i = 0;
            while let Some(d) = (held[i..].iter().zip(&src[i..]))
                .position(|(held, value)| held.to_bits() != value.to_bits())
            {
                i += d;
                held[i] = src[i];
                changed(k, i, src[i]);
                i += 1;
            }
        }
        let columns = basis.status.iter().zip(sigma.iter_mut().zip(x_n));
        for (j, (&status, (held_s, held_x))) in columns.enumerate() {
            let (s, x) = view.column(j, status)?;
            if replace(held_s, s) {
                changed(SIGMA, j, s);
            }
            if replace(held_x, x) {
                changed(X_N, j, x);
            }
        }
        let rows = view.rows(basis).zip(c_b.iter_mut().zip(l_b).zip(u_b));
        for (i, (row, ((held_c, held_l), held_u))) in rows.enumerate() {
            for (k, held, value) in [
                (C_B, held_c, row[0]),
                (L_B, held_l, row[1]),
                (U_B, held_u, row[2]),
            ] {
                if replace(held, value) {
                    changed(k, i, value);
                }
            }
        }
        Ok(fits)
    }

    /// Marks the record as what the device holds: an install completed.
    pub(crate) fn hold(&mut self) {
        self.held = true;
    }

    /// The lengths of the nine recorded vectors of an `m`-row, `n`-column
    /// problem, in slot order.
    fn lens_of(m: usize, n: usize) -> [usize; 9] {
        [n, m, n, n, m, m, m, n, n]
    }

    /// Device bytes of the state a simplex lane holds for an `m`-row,
    /// `n`-column problem: the nine vectors a record stands for, and the
    /// two the device derives from them and keeps resident beside them,
    /// `x_B` (one entry per row) and the Devex weights (one per column).
    pub(crate) fn lane_bytes(m: usize, n: usize) -> usize {
        let recorded: usize = Self::lens_of(m, n).iter().sum();
        std::mem::size_of::<f64>() * (recorded + m + n)
    }

    /// Bytes of the nine recorded vectors: what an install that uploads
    /// ships.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.buf[..])
    }

    /// The recorded vector in slot `k`.
    pub(crate) fn vector(&self, k: usize) -> &[f64] {
        &self.buf[self.range(k)]
    }

    /// Where the vector in slot `k` lies in `buf`.
    fn range(&self, k: usize) -> std::ops::Range<usize> {
        k.checked_sub(1).map_or(0, |p| self.ends[p])..self.ends[k]
    }

    /// The lengths of the nine recorded vectors.
    fn lens(&self) -> [usize; 9] {
        let mut start = 0;
        self.ends
            .map(|end| end - std::mem::replace(&mut start, end))
    }

    /// The nine recorded vectors, to write.
    fn vectors_mut(&mut self) -> [&mut [f64]; 9] {
        let lens = self.lens();
        let mut rest = &mut self.buf[..];
        lens.map(|len| {
            let (vector, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            vector
        })
    }

    /// The buffer's capacity: what the record keeps across installs.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Mirrors a pivot's stores (see [`PivotPlan::stores`]).
    pub(crate) fn pivot(&mut self, plan: &PivotPlan) {
        for (k, i, value) in plan.stores([X_B, SIGMA, C_B, L_B, U_B, X_N]) {
            if k != X_B {
                self.store(k, i, value);
            }
        }
    }

    /// Mirrors a bound flip's stores: σ_q, and `x_q` at the bound the column
    /// lands on (`u_q` at σ > 0), read where the device reads it.
    pub(crate) fn flip(&mut self, q: usize, new_sigma: f64) {
        let bound = self.vector(if new_sigma > 0.0 { U } else { L }).get(q);
        match bound.copied() {
            Some(x) => {
                self.store(SIGMA, q, new_sigma);
                self.store(X_N, q, x);
            }
            None => self.held = false,
        }
    }

    /// Mirrors the stores `(vector, entry, value)` a kernel made into the
    /// record, a vector named by its key in `keys`; a store to a vector
    /// outside `keys` is not recorded.
    pub(crate) fn note<K: PartialEq>(&mut self, keys: &[K; 9], stores: &[(K, usize, f64)]) {
        for (h, i, value) in stores {
            let Some(k) = keys.iter().position(|r| r == h) else {
                continue;
            };
            self.store(k, *i, *value);
        }
    }

    /// Entry `i` of the vector in slot `k` becomes `value`; past its end, the
    /// record is no longer what the device holds.
    fn store(&mut self, k: usize, i: usize, value: f64) {
        let range = self.range(k);
        match self.buf[range].get_mut(i) {
            Some(x) => *x = value,
            None => self.held = false,
        }
    }
}
