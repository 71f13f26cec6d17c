//! The lane-interleaved first-order arena and its one batched PDHG step.
//!
//! The first-order wave keeps every lane's iteration state in blocks of
//! [`FO_BLOCK`] lanes, array-of-structures-of-arrays: inside a block each
//! state vector is stored element-major with the block's lanes innermost,
//!
//! ```text
//! blocks[b].x = [ x₀ of lanes 8b..8b+8 | x₁ of lanes 8b..8b+8 | … | xₙ₋₁ … ]
//!                 └──── FO_BLOCK ────┘
//! ```
//!
//! so element `j` of lane `l` sits at `j * FO_BLOCK + l`. One PDHG
//! iteration of a block ([`fo_step_block`]) walks the shared CSR matrix
//! **once** with the innermost loop over the block's lanes — the matrix
//! entry and its column index are loaded once per eight multiply-adds and
//! the lane loop is a fixed-width contiguous run the compiler vectorizes —
//! where lane-by-lane execution re-reads the whole matrix per lane.
//!
//! **A block, not a lane, is the unit of parallelism.** Blocks own their
//! storage — the device state above and the host staging of their lanes'
//! KKT checks ([`BlockCheck`]) — so the engine hands the blocks to
//! [`gmip_gpu::Accel::dispatch`] as its items and each is stepped, and
//! checked, by exactly one thread. Within a lane the floating-point
//! operation order is the sequential one below (row-major `Aᵀy` scatter,
//! row-major `Ax̂` accumulation, element-wise updates), whichever block the
//! lane sits in and whichever thread runs it. Lane results are therefore
//! bit-identical across backends, wave widths and thread counts.
//!
//! **Inert lanes.** A slot that is empty, or retired and not yet refilled,
//! holds all-zero state with `τ = σ = 0` ([`FoBlock::clear_lane`]). The
//! eight-abreast step does not branch per lane — an inert lane computes
//! `0 − 0·c = 0`, clamps into `[0, 0]` and accumulates zeros, so it stays
//! finite and nothing it computes is observable. A block with no busy
//! lane is skipped outright, and one with only a few steps just those
//! lanes, each alone ([`fo_step_block`] says when and why).

use gmip_linalg::CsrMatrix;

/// Lanes per arena block: the innermost, vectorized dimension.
pub const FO_BLOCK: usize = 8;

/// Iteration state of [`FO_BLOCK`] first-order lanes, lane-interleaved.
///
/// The `n`-vectors (`x`, `x_sum`, `x_restart`, `lb`, `ub`, `aty`, `xhat`)
/// have length `n * FO_BLOCK`, the `m`-vectors (`y`, `y_sum`, `y_restart`,
/// `ax`) length `m * FO_BLOCK`; element `k` of lane `l` is at
/// `k * FO_BLOCK + l` (see [`gather`] / [`scatter`]). The lengths are fixed
/// at construction and must not change.
#[derive(Debug, Clone)]
pub struct FoBlock {
    /// Primal iterates.
    pub x: Vec<f64>,
    /// Dual iterates.
    pub y: Vec<f64>,
    /// Running primal-average accumulators.
    pub x_sum: Vec<f64>,
    /// Running dual-average accumulators.
    pub y_sum: Vec<f64>,
    /// Primal iterates at the last restart.
    pub x_restart: Vec<f64>,
    /// Dual iterates at the last restart.
    pub y_restart: Vec<f64>,
    /// Column lower bounds.
    pub lb: Vec<f64>,
    /// Column upper bounds.
    pub ub: Vec<f64>,
    /// Kernel scratch `Aᵀy`, fully overwritten every step.
    pub aty: Vec<f64>,
    /// Kernel scratch `x̂ = 2x⁺ − x`, fully overwritten every step.
    pub xhat: Vec<f64>,
    /// Kernel scratch `Ax̂`, fully overwritten every step.
    pub ax: Vec<f64>,
    /// Per-lane primal step `τ = η/ω` (0 for an inert lane).
    tau: [f64; FO_BLOCK],
    /// Per-lane dual step `σ = η·ω` (0 for an inert lane).
    sigma: [f64; FO_BLOCK],
    busy: [bool; FO_BLOCK],
    /// Host staging of the block's lanes: loads, KKT checks, reports.
    pub(super) check: BlockCheck,
}

/// One block's host staging: the contiguous memory its lanes load through,
/// check into and report from. Host memory, not device state, so
/// [`FoBlock::lane_bytes`] does not count it.
#[derive(Debug, Clone)]
pub(super) struct BlockCheck {
    /// Lane-contiguous `FO_BLOCK × n` / `FO_BLOCK × m`: a busy lane's
    /// running average at its last check, and — from the moment it retires
    /// until it is taken — its reported iterates.
    pub(super) x: Vec<f64>,
    pub(super) y: Vec<f64>,
    /// KKT quantities of each lane's last check.
    pub(super) out: [CheckOut; FO_BLOCK],
    /// One lane's box gathered contiguous.
    pub(super) lb: Vec<f64>,
    pub(super) ub: Vec<f64>,
    /// `A·x̄` of the lane being checked.
    pub(super) ax: Vec<f64>,
    /// The safe bound's clamped dual and its `Aᵀy`.
    pub(super) yc: Vec<f64>,
    pub(super) aty: Vec<f64>,
}

/// KKT quantities of one lane's running average (which itself sits in
/// [`BlockCheck::x`] / [`BlockCheck::y`]).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct CheckOut {
    pub(super) primal_res: f64,
    pub(super) obj: f64,
    pub(super) bound: f64,
}

impl FoBlock {
    /// An all-inert block for an `m × n` standard form.
    pub fn new(m: usize, n: usize) -> Self {
        let nv = || vec![0.0; n * FO_BLOCK];
        let mv = || vec![0.0; m * FO_BLOCK];
        Self {
            x: nv(),
            y: mv(),
            x_sum: nv(),
            y_sum: mv(),
            x_restart: nv(),
            y_restart: mv(),
            lb: nv(),
            ub: nv(),
            aty: nv(),
            xhat: nv(),
            ax: mv(),
            tau: [0.0; FO_BLOCK],
            sigma: [0.0; FO_BLOCK],
            busy: [false; FO_BLOCK],
            check: BlockCheck {
                x: vec![0.0; FO_BLOCK * n],
                y: vec![0.0; FO_BLOCK * m],
                out: [CheckOut::default(); FO_BLOCK],
                lb: vec![0.0; n],
                ub: vec![0.0; n],
                ax: vec![0.0; m],
                yc: vec![0.0; m],
                aty: vec![0.0; n],
            },
        }
    }

    /// Device bytes of one lane's share of a block: an entry of each of
    /// the seven `n`-vectors and four `m`-vectors [`Self::new`] allocates,
    /// and the lane's `τ` and `σ` (the check staging is host memory). No factorization state — the reason
    /// hundreds of first-order lanes fit where tens of simplex lanes do.
    pub fn lane_bytes(m: usize, n: usize) -> usize {
        std::mem::size_of::<f64>() * (7 * n + 4 * m + 2)
    }

    /// Marks `lane` busy with step sizes `τ`, `σ` (also how a restart
    /// re-balances them).
    pub fn set_steps(&mut self, lane: usize, tau: f64, sigma: f64) {
        self.tau[lane] = tau;
        self.sigma[lane] = sigma;
        self.busy[lane] = true;
    }

    /// Makes `lane` inert: zero state, `τ = σ = 0`, not busy.
    pub fn clear_lane(&mut self, lane: usize) {
        for v in [
            &mut self.x,
            &mut self.y,
            &mut self.x_sum,
            &mut self.y_sum,
            &mut self.x_restart,
            &mut self.y_restart,
            &mut self.lb,
            &mut self.ub,
            &mut self.aty,
            &mut self.xhat,
            &mut self.ax,
        ] {
            fill_lane(v, lane, 0.0);
        }
        self.tau[lane] = 0.0;
        self.sigma[lane] = 0.0;
        self.busy[lane] = false;
    }

    /// How many lanes of the block are iterating.
    pub fn busy_lanes(&self) -> usize {
        self.busy.iter().filter(|&&b| b).count()
    }
}

/// The arena of a `width`-lane wave: `⌈width / FO_BLOCK⌉` blocks; lane
/// `slot` is lane `slot % FO_BLOCK` of block `slot / FO_BLOCK`. Slots past
/// `width` in the last block stay inert forever.
#[derive(Debug, Clone)]
pub struct FoArena {
    blocks: Vec<FoBlock>,
}

impl FoArena {
    /// An all-inert arena for `width` lanes of an `m × n` standard form.
    pub fn new(m: usize, n: usize, width: usize) -> Self {
        Self {
            blocks: vec![FoBlock::new(m, n); width.div_ceil(FO_BLOCK)],
        }
    }

    /// The blocks: the items a superstep dispatches.
    pub fn blocks_mut(&mut self) -> &mut [FoBlock] {
        &mut self.blocks
    }

    /// The block holding `slot` and the lane's index inside it.
    pub fn lane(&self, slot: usize) -> (&FoBlock, usize) {
        (&self.blocks[slot / FO_BLOCK], slot % FO_BLOCK)
    }

    /// Mutable form of [`lane`](Self::lane).
    pub fn lane_mut(&mut self, slot: usize) -> (&mut FoBlock, usize) {
        (&mut self.blocks[slot / FO_BLOCK], slot % FO_BLOCK)
    }
}

/// Copies lane `lane` of the interleaved vector `src` into contiguous `out`.
pub fn gather(src: &[f64], lane: usize, out: &mut [f64]) {
    for (o, chunk) in out.iter_mut().zip(src.chunks_exact(FO_BLOCK)) {
        *o = chunk[lane];
    }
}

/// Copies contiguous `src` into lane `lane` of the interleaved vector `dst`.
pub fn scatter(dst: &mut [f64], lane: usize, src: &[f64]) {
    for (chunk, &s) in dst.chunks_exact_mut(FO_BLOCK).zip(src) {
        chunk[lane] = s;
    }
}

/// Sets every element of lane `lane` of the interleaved vector `dst`.
pub fn fill_lane(dst: &mut [f64], lane: usize, value: f64) {
    for chunk in dst.chunks_exact_mut(FO_BLOCK) {
        chunk[lane] = value;
    }
}

/// A block with at most this many busy lanes steps them one by one instead
/// of eight abreast (see [`fo_step_block`]).
const FO_NARROW: usize = 3;

/// One PDHG iteration of every busy lane of `blk` (a no-op when none is):
///
/// ```text
/// fo.spmv_t   aty = Aᵀy
/// fo.axpy     x⁺  = proj_[lb,ub](x − τ(c̃ + aty)),   x̂ = 2x⁺ − x
/// fo.spmv     ax  = Ax̂,   y += σ(ax − b),   x_sum += x⁺,   y_sum += y
/// ```
///
/// **How wide the step runs is chosen from the block's busy count.** The
/// eight-abreast form walks the CSR once for the whole block, but it costs
/// the same whether one lane is busy or eight: as much as four lanes
/// stepped alone on the 30-column forms the generators emit, as much as
/// three at 240–900 columns. So a block with more than `FO_NARROW` (3) busy
/// lanes steps all eight lanes at once (inert ones compute zeros), and a
/// narrower block steps only its busy lanes, each alone — the shape of the
/// width-1 node engine, of a worker rank (one lane loaded, run to retire,
/// taken) and of every wave's drain. Both are the same body at two widths,
/// and a lane's arithmetic never depends on its neighbours, so its bits do
/// not depend on which width ran it.
///
/// Per lane this is, operation for operation, `matvec_transposed_into` →
/// the axpy loop → `matvec_into` → the dual update → the two sums, with
/// one textual difference: the row-major `Aᵀy` scatter cannot skip a row
/// whose `yᵢ` is zero per lane. That is value-preserving — the accumulator
/// starts at `+0.0` and is never `−0.0` (a sum is `−0.0` only if both
/// addends are), matrix entries are finite, so the skipped terms are `±0.0`
/// and `acc + (±0.0) == acc` bit for bit (pinned by
/// `crates/lp/tests/native_bit_identity.rs`).
pub fn fo_step_block(csr: &CsrMatrix, c_tilde: &[f64], b: &[f64], blk: &mut FoBlock) {
    let busy = blk.busy_lanes();
    if busy == 0 {
        return;
    }
    let (m, n) = (csr.rows(), csr.cols());
    assert_eq!(c_tilde.len(), n, "fo.step: objective length");
    assert_eq!(b.len(), m, "fo.step: rhs length");
    assert_eq!(blk.x.len(), n * FO_BLOCK, "fo.step: block columns");
    assert_eq!(blk.y.len(), m * FO_BLOCK, "fo.step: block rows");
    if busy > FO_NARROW {
        step_lanes::<FO_BLOCK>(csr, c_tilde, b, blk, 0);
    } else {
        for lane in 0..FO_BLOCK {
            if blk.busy[lane] {
                step_lanes::<1>(csr, c_tilde, b, blk, lane);
            }
        }
    }
}

/// The step of lanes `lo..lo + W` of `blk`; the lane loop is innermost and
/// of compile-time width (`W = FO_BLOCK, lo = 0` vectorizes, `W = 1` is the
/// scalar per-lane step).
#[inline(always)]
fn step_lanes<const W: usize>(
    csr: &CsrMatrix,
    c_tilde: &[f64],
    b: &[f64],
    blk: &mut FoBlock,
    lo: usize,
) {
    const B: usize = FO_BLOCK;
    assert!(lo + W <= B, "fo.step: lane range");

    // Each vector as rows of `[f64; B]`: one bounds check per element,
    // a fixed-width lane loop inside.
    let (x, _) = blk.x.as_chunks_mut::<B>();
    let (y, _) = blk.y.as_chunks_mut::<B>();
    let (aty, _) = blk.aty.as_chunks_mut::<B>();
    let (xhat, _) = blk.xhat.as_chunks_mut::<B>();
    let (ax, _) = blk.ax.as_chunks_mut::<B>();
    let (x_sum, _) = blk.x_sum.as_chunks_mut::<B>();
    let (y_sum, _) = blk.y_sum.as_chunks_mut::<B>();
    let (lb, _) = blk.lb.as_chunks::<B>();
    let (ub, _) = blk.ub.as_chunks::<B>();
    let (tau, sigma) = (&blk.tau, &blk.sigma);

    // fo.spmv_t: aty = Aᵀy, row-major scatter.
    for out in aty.iter_mut() {
        out[lo..lo + W].fill(0.0);
    }
    for (i, yi) in y.iter().enumerate() {
        for (j, v) in csr.row_iter(i) {
            let out = &mut aty[j];
            for l in lo..lo + W {
                out[l] += v * yi[l];
            }
        }
    }

    // fo.axpy: projected primal step; x̂ over-relaxes against the old x.
    // (The averaging sums are element-wise, so they ride along here and
    // in the dual update instead of re-reading the iterates afterwards.)
    for j in 0..csr.cols() {
        let (x, xhat, x_sum) = (&mut x[j], &mut xhat[j], &mut x_sum[j]);
        let (aty, lb, ub) = (&aty[j], &lb[j], &ub[j]);
        for l in lo..lo + W {
            let step = x[l] - tau[l] * (c_tilde[j] + aty[l]);
            let xj = step.max(lb[l]).min(ub[l]);
            xhat[l] = 2.0 * xj - x[l];
            x[l] = xj;
            x_sum[l] += xj;
        }
    }

    // fo.spmv: ax = Ax̂, then dual ascent against the rhs.
    for i in 0..csr.rows() {
        let mut acc = [0.0; W];
        for (j, v) in csr.row_iter(i) {
            let xhat = &xhat[j];
            for k in 0..W {
                acc[k] += v * xhat[lo + k];
            }
        }
        let (ax, y, y_sum) = (&mut ax[i], &mut y[i], &mut y_sum[i]);
        for k in 0..W {
            let l = lo + k;
            ax[l] = acc[k];
            y[l] += sigma[l] * (acc[k] - b[i]);
            y_sum[l] += y[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_linalg::DenseMatrix;

    fn small_csr() -> CsrMatrix {
        let d = DenseMatrix::from_rows(&[vec![1.0, 2.0, 0.0], vec![0.0, -1.0, 3.0]]).unwrap();
        CsrMatrix::from_dense(&d)
    }

    fn lane_of(v: &[f64], lane: usize) -> Vec<f64> {
        let mut out = vec![0.0; v.len() / FO_BLOCK];
        gather(v, lane, &mut out);
        out
    }

    #[test]
    fn gather_scatter_round_trip_one_lane() {
        let mut v = vec![0.0; 3 * FO_BLOCK];
        scatter(&mut v, 5, &[1.0, 2.0, 3.0]);
        assert_eq!(lane_of(&v, 5), vec![1.0, 2.0, 3.0]);
        assert_eq!(lane_of(&v, 4), vec![0.0; 3]);
        assert_eq!(v[FO_BLOCK + 5], 2.0);
        fill_lane(&mut v, 5, 7.0);
        assert_eq!(lane_of(&v, 5), vec![7.0; 3]);
    }

    #[test]
    fn step_clamps_over_relaxes_then_ascends_and_sums() {
        let csr = small_csr();
        let (c_tilde, b) = (vec![1.0, -1.0, 0.0], vec![1.0, 1.0]);
        let mut blk = FoBlock::new(2, 3);
        let lane = 3;
        scatter(&mut blk.x, lane, &[0.5, 0.5, 0.25]);
        scatter(&mut blk.ub, lane, &[1.0, 0.6, 1.0]);
        blk.set_steps(lane, 1.0, 0.5);
        fo_step_block(&csr, &c_tilde, &b, &mut blk);

        // y = 0, so aty = 0: var 0 steps to -0.5 and clamps to 0, var 1
        // steps to 1.5 and clamps to 0.6, var 2 stays; each over-relaxes
        // against its pre-update x.
        assert_eq!(lane_of(&blk.aty, lane), vec![0.0; 3]);
        assert_eq!(lane_of(&blk.x, lane), vec![0.0, 0.6, 0.25]);
        assert_eq!(lane_of(&blk.xhat, lane), vec![-0.5, 0.7, 0.25]);
        // ax = A·x̂, y = σ(ax − b), and the sums see the updated iterates.
        let ax = csr.matvec(&[-0.5, 0.7, 0.25]).unwrap();
        assert_eq!(lane_of(&blk.ax, lane), ax);
        let y: Vec<f64> = ax.iter().zip(&b).map(|(a, b)| 0.5 * (a - b)).collect();
        assert_eq!(lane_of(&blk.y, lane), y);
        assert_eq!(lane_of(&blk.x_sum, lane), vec![0.0, 0.6, 0.25]);
        assert_eq!(lane_of(&blk.y_sum, lane), y);

        // The block's other lanes ran inert: still all zero.
        for other in (0..FO_BLOCK).filter(|&l| l != lane) {
            for v in [&blk.x, &blk.y, &blk.xhat, &blk.ax, &blk.x_sum, &blk.y_sum] {
                assert!(lane_of(v, other).iter().all(|&e| e == 0.0));
            }
        }
    }

    #[test]
    fn a_lane_steps_to_the_same_bits_alone_and_eight_abreast() {
        let csr = small_csr();
        let (c_tilde, b) = (vec![1.0, -1.0, 0.25], vec![1.0, -0.5]);
        let load = |blk: &mut FoBlock, lane: usize| {
            let k = lane as f64;
            scatter(&mut blk.x, lane, &[0.5 - 0.1 * k, 0.3, 0.1 * k]);
            scatter(&mut blk.y, lane, &[0.0, -0.2 * k]);
            scatter(&mut blk.lb, lane, &[-1.0, f64::NEG_INFINITY, 0.0]);
            scatter(&mut blk.ub, lane, &[1.0, 0.6, f64::INFINITY]);
            blk.set_steps(lane, 0.3 + 0.05 * k, 0.7 - 0.05 * k);
        };
        // Five busy lanes: stepped eight abreast.
        let lanes = [0, 2, 3, 5, 7];
        assert!(lanes.len() > FO_NARROW);
        let mut wide = FoBlock::new(2, 3);
        lanes.iter().for_each(|&l| load(&mut wide, l));
        // The same lanes in blocks of FO_NARROW or fewer: stepped alone.
        let mut narrow: Vec<FoBlock> = lanes
            .chunks(FO_NARROW)
            .map(|chunk| {
                let mut blk = FoBlock::new(2, 3);
                chunk.iter().for_each(|&l| load(&mut blk, l));
                blk
            })
            .collect();
        for _ in 0..4 {
            fo_step_block(&csr, &c_tilde, &b, &mut wide);
            for blk in &mut narrow {
                fo_step_block(&csr, &c_tilde, &b, blk);
            }
        }
        let bits = |v: &[f64], lane| -> Vec<u64> {
            lane_of(v, lane).iter().map(|e| e.to_bits()).collect()
        };
        for (k, &lane) in lanes.iter().enumerate() {
            let alone = &narrow[k / FO_NARROW];
            for (w, a) in [
                (&wide.x, &alone.x),
                (&wide.y, &alone.y),
                (&wide.aty, &alone.aty),
                (&wide.xhat, &alone.xhat),
                (&wide.ax, &alone.ax),
                (&wide.x_sum, &alone.x_sum),
                (&wide.y_sum, &alone.y_sum),
            ] {
                assert_eq!(bits(w, lane), bits(a, lane), "lane {lane}");
            }
        }
        // A narrow step leaves the block's inert lanes untouched.
        assert!(lane_of(&narrow[0].xhat, 1).iter().all(|&e| e == 0.0));
    }

    #[test]
    fn cleared_lane_is_inert_and_idle_block_is_skipped() {
        let csr = small_csr();
        let (c_tilde, b) = (vec![1.0, -1.0, 0.0], vec![1.0, 1.0]);
        let mut blk = FoBlock::new(2, 3);
        scatter(&mut blk.x, 0, &[0.5, 0.5, 0.25]);
        scatter(&mut blk.ub, 0, &[1.0; 3]);
        blk.set_steps(0, 1.0, 0.5);
        assert_eq!(blk.busy_lanes(), 1);
        blk.clear_lane(0);
        assert_eq!(blk.busy_lanes(), 0);
        assert!(blk.x.iter().chain(&blk.ub).all(|&e| e == 0.0));
        // With no busy lane the step must not even touch the scratch.
        blk.aty[0] = 9.0;
        fo_step_block(&csr, &c_tilde, &b, &mut blk);
        assert_eq!(blk.aty[0], 9.0);
    }

    #[test]
    fn arena_maps_slots_to_block_lanes() {
        let mut arena = FoArena::new(2, 3, 11);
        assert_eq!(arena.blocks_mut().len(), 2);
        let (blk, lane) = arena.lane_mut(10);
        assert_eq!(lane, 2);
        blk.set_steps(lane, 1.0, 1.0);
        assert_eq!(arena.lane(10).0.busy_lanes(), 1);
        assert_eq!(arena.lane(2).0.busy_lanes(), 0);
    }
}
