//! Pins the journal a [`RecordingEngine`] writes for a fixed workload.
//!
//! The batched wave replays these journals, so the *order* in which the
//! simplex drivers call engine primitives is part of the wave's contract:
//! a driver that regroups its calls (into pivot-shaped `select` / `apply`
//! methods, say) must leave every journal as it was, op for op. Recorded at
//! `31a28fd`, before the drivers moved to the pivot-shaped calls; it passed
//! unedited after. Its bytes and hash were re-pinned at the commit that
//! gave each lane the device engine's install record (the child of
//! `4973d56`): a warm install journals its upload as 0 bytes where it used
//! to journal the whole upload, and no op count, flop, iteration or status
//! moved. They moved once more when a journaled upload came to book the
//! record's nine vectors, as the device engine uploads them, where it had
//! booked seven (`16n` bytes short). The H2D count and the hash moved a
//! third time when a warm install stopped journaling its 0-byte upload:
//! the op only kept lockstep replay's phases aligned, and the replay now
//! fuses lanes by the state they are in; no kernel count, flop, byte,
//! iteration or status moved. The second test checks those uploads, where
//! and what, against a device engine's.

use gmip_gpu::Accel;
use gmip_linalg::DenseMatrix;
use gmip_lp::engine::PivotPlan;
use gmip_lp::{
    Basis, BoundChange, DeviceEngine, LpConfig, LpResult, LpSolver, LpStatus, PricingRule,
    ProblemView, RecordingEngine, SimplexEngine, StandardLp, WaveClass, WaveOp,
};
use gmip_problems::generators::knapsack;
use gmip_problems::MipInstance;

/// FNV-1a over 64-bit words.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Per-class op counts (the seven kernel classes, then H2D and D2H
/// transfers), total flops and bytes, and a hash of the whole op stream.
#[derive(Default)]
struct Journal {
    counts: [usize; 9],
    flops: f64,
    bytes: f64,
    hash: u64,
}

impl Journal {
    fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            ..Self::default()
        }
    }

    fn absorb(&mut self, ops: &[WaveOp]) {
        for op in ops {
            match *op {
                WaveOp::Kernel {
                    class,
                    flops,
                    bytes,
                } => {
                    self.counts[class as usize] += 1;
                    self.flops += flops;
                    self.bytes += bytes;
                    fnv(&mut self.hash, class as u64);
                    fnv(&mut self.hash, flops.to_bits());
                    fnv(&mut self.hash, bytes.to_bits());
                }
                WaveOp::Transfer { bytes, h2d } => {
                    self.counts[if h2d { 7 } else { 8 }] += 1;
                    self.bytes += bytes as f64;
                    fnv(&mut self.hash, 7 + u64::from(!h2d));
                    fnv(&mut self.hash, bytes as u64);
                }
            }
        }
    }
}

/// `knapsack(24)` on `lp`: the root, 40 bound re-solves (twenty items,
/// each fixed down and then up), one cut round with six more re-solves on
/// the grown matrix, and a child whose fixings overfill the knapsack.
/// `settle` sees every solve's status and iterations.
fn workload<E: SimplexEngine>(
    lp: &mut LpSolver<E>,
    m: &MipInstance,
    mut settle: impl FnMut(&mut LpSolver<E>, LpStatus, usize),
) {
    let root = lp.solve().expect("root LP");
    settle(lp, root.status, root.iterations);

    let resolve = |lp: &mut LpSolver<E>, bounds: &[BoundChange]| {
        lp.apply_node_bounds(bounds).expect("structural columns");
        let sol = lp.resolve().expect("warm resolve");
        (sol.status, sol.iterations)
    };
    let fix = |var: usize, to: f64| BoundChange {
        var,
        lb: to,
        ub: to,
    };
    for k in 0..20 {
        let j = (7 * k) % m.num_vars();
        for to in [0.0, 1.0] {
            let (status, iters) = resolve(lp, &[fix(j, to)]);
            settle(lp, status, iters);
        }
    }
    lp.apply_node_bounds(&[]).expect("root box");
    for (cut, rhs) in [
        (vec![(0, 1.0), (1, 1.0)], 1.0),
        (vec![(2, 1.0), (3, 1.0), (4, 1.0)], 2.0),
    ] {
        lp.add_cut(&cut, rhs).expect("cut");
    }
    for k in 0..6 {
        let (status, iters) = resolve(lp, &[fix((5 * k + 1) % m.num_vars(), (k % 2) as f64)]);
        settle(lp, status, iters);
    }
    // Every item fixed in: far over capacity.
    let all_in: Vec<BoundChange> = (0..m.num_vars()).map(|j| fix(j, 1.0)).collect();
    let (status, iters) = resolve(lp, &all_in);
    assert_eq!(status, LpStatus::Infeasible);
    settle(lp, status, iters);
}

fn solver<E: SimplexEngine>(
    m: &MipInstance,
    pricing: PricingRule,
    make: impl FnOnce(&DenseMatrix) -> E,
) -> LpSolver<E> {
    let mut cfg = LpConfig::standard();
    cfg.primal.pricing = pricing;
    LpSolver::new(StandardLp::from_instance(m, &[]), cfg, make)
}

/// The [`workload`]'s journal, summarized.
fn journal(pricing: PricingRule) -> String {
    assert_eq!(WaveClass::Gather as usize, 6, "seven kernel classes");
    let m = knapsack(24, 0.5, 3);
    let mut lp = solver(&m, pricing, |a| RecordingEngine::new(a.clone()));
    let mut journal = Journal::new();
    let (mut iterations, mut optimal, mut infeasible) = (0, 0, 0);
    workload(&mut lp, &m, |lp, status, iters| {
        iterations += iters;
        optimal += usize::from(status == LpStatus::Optimal);
        infeasible += usize::from(status == LpStatus::Infeasible);
        journal.absorb(&lp.engine_mut().take_ops());
    });
    format!(
        "optimal={optimal} infeasible={infeasible} iters={iterations} counts={:?} flops={} bytes={} hash={:016x}",
        journal.counts, journal.flops, journal.bytes, journal.hash
    )
}

/// Forwards the required methods of a device engine, so the drivers run
/// the trait's default bodies over it install by install, and notes for
/// each install the bytes it uploaded.
struct Installs {
    inner: DeviceEngine,
    uploaded: Vec<u64>,
}

impl SimplexEngine for Installs {
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()> {
        let h2d = |e: &DeviceEngine| e.accel().stats().h2d_bytes;
        let before = h2d(&self.inner);
        let out = self.inner.install(view, basis);
        self.uploaded.push(h2d(&self.inner) - before);
        out
    }
    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        self.inner.append_cut(row, col)
    }
    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.inner.price()
    }
    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        self.inner.reduced_costs_host()
    }
    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        self.inner.ftran_column(q)
    }
    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.inner.ratio_test(dir, tol)
    }
    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        self.inner.apply_flip(q, dir, t, new_sigma)
    }
    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        self.inner.apply_pivot(plan)
    }
    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        self.inner.basic_values()
    }
    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        self.inner.basic_entry(i)
    }
    fn eta_count(&self) -> usize {
        self.inner.eta_count()
    }
    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.inner.primal_infeas(tol)
    }
    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        self.inner.btran_row(r)
    }
    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        self.inner.dual_ratio(leaving_below, tol)
    }
    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        self.inner.alpha_r_entry(j)
    }
    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.inner.btran_row_host(r)
    }
    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        self.inner.dual_prices()
    }
    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.inner.price_devex()
    }
    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        self.inner.devex_update(q, leaving_j)
    }
}

/// The bytes each install in `ops` uploaded: an install journals its
/// `Factor` kernel, behind an H2D transfer when it uploads and with none
/// when its delta rides the kernel (0 bytes).
fn journaled_uploads(ops: &[WaveOp]) -> Vec<u64> {
    ops.iter()
        .enumerate()
        .filter_map(|(i, op)| match op {
            WaveOp::Kernel {
                class: WaveClass::Factor,
                ..
            } => Some(match i.checked_sub(1).map(|j| ops[j]) {
                Some(WaveOp::Transfer { bytes, h2d: true }) => bytes as u64,
                _ => 0,
            }),
            _ => None,
        })
        .collect()
}

#[test]
fn recording_engine_journals_are_pinned() {
    assert_eq!(
        [journal(PricingRule::Dantzig), journal(PricingRule::Devex)],
        [
            "optimal=47 infeasible=1 iters=56 counts=[95, 56, 105, 105, 136, 58, 64, 4, 48] flops=23096.66666666664 bytes=130584 hash=fe89a3227e86e857",
            "optimal=47 infeasible=1 iters=56 counts=[95, 56, 115, 115, 136, 68, 74, 4, 48] flops=26124.666666666664 bytes=141560 hash=ecfe18a743817087",
        ]
    );
}

/// A lane's journal keeps the install record a device engine keeps: on the
/// same calls, every journaled install uploads exactly where and what the
/// device engine's install uploads, and journals no upload where the
/// device engine's crosses nothing.
#[test]
fn journaled_installs_upload_where_the_device_does() {
    let m = knapsack(24, 0.5, 3);
    for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
        let mut rec = solver(&m, pricing, |a| RecordingEngine::new(a.clone()));
        let mut journaled = Vec::new();
        workload(&mut rec, &m, |lp, _, _| {
            journaled.extend(journaled_uploads(&lp.engine_mut().take_ops()));
        });
        let mut dev = solver(&m, pricing, |a| Installs {
            inner: DeviceEngine::new(Accel::gpu(1), a).expect("device upload"),
            uploaded: Vec::new(),
        });
        workload(&mut dev, &m, |_, _, _| {});
        let device = &dev.engine().uploaded;
        assert_eq!(&journaled, device, "{pricing:?}");
        // The root's install and the first after the cuts upload; the
        // warm installs in between ship deltas.
        assert_eq!(
            device.iter().filter(|&&up| up > 0).count(),
            2,
            "{pricing:?}"
        );
        assert!(device.len() > 40, "{pricing:?}: {} installs", device.len());
    }
}
