//! The [`Accelerator`] trait: fused kernel-class dispatch as an interface,
//! and its one implementation, the lane executor behind every
//! [`crate::Accel`].
//!
//! Every fused launch the wave engines issue goes through this trait. The
//! executor charges the simulated nanoseconds through the handle's one
//! [`GpuDevice`] — the simulator stays the deterministic oracle and the
//! only source of traced time. Its [`BackendKind`] decides *who runs the
//! lane numerics*:
//!
//! * [`BackendKind::Sim`]: the calling thread runs the arena blocks (and
//!   opaque lane bodies) in order, untimed, then applies the charge.
//! * [`BackendKind::Native`]: a persistent [`rayon::ThreadPool`] runs them
//!   — one parallel dispatch per first-order superstep
//!   ([`Accelerator::fo_step`], KKT checks included), one per opaque class
//!   — and real wall-clock per class lands in a `wall.*` metric family.
//!   Within a lane the floating-point operation order is untouched (the
//!   block kernel in [`crate::kernels`] is shared verbatim and a block is
//!   run by exactly one thread), so lane outcomes are bit-identical across
//!   backends and thread counts; only wall-clock varies, and wall-clock
//!   never enters traces or simulated `_ns` totals.

use crate::device::GpuDevice;
use crate::kernels::{self, FoArena, FoBlock};
use crate::stream::StreamId;
use gmip_linalg::CsrMatrix;
use gmip_trace::{names, MetricsRegistry};
use parking_lot::Mutex;
use std::iter::repeat_n;
use std::sync::Arc;
use std::time::Instant;

/// Which executing backend an [`crate::Accel`] dispatches lane bodies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Sequential host execution + cost-model charges (the oracle).
    #[default]
    Sim,
    /// Lane-parallel execution on the vendored rayon pool. `threads == 0`
    /// sizes the pool from `RAYON_NUM_THREADS` / available parallelism.
    Native {
        /// Worker threads (0 = auto).
        threads: usize,
    },
}

impl BackendKind {
    /// Parses a CLI `--backend` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(Self::Sim),
            "native" => Some(Self::Native { threads: 0 }),
            _ => None,
        }
    }

    /// Stable label for reports and errors.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Sim => "sim",
            Self::Native { .. } => "native",
        }
    }
}

/// One simulated cost charge a fused dispatch applies after executing its
/// lane bodies: a kernel class whose `lanes` active instances each cost
/// `per_lane` ([`GpuDevice::batched_wave_kernel`]).
#[derive(Debug, Clone, Copy)]
pub struct WaveCharge {
    /// Kernel-class span name (`fo.norm`, `prop.activity`, ...).
    pub name: &'static str,
    /// Active lanes of this class.
    pub lanes: usize,
    /// `(flops, bytes)` of each lane's instance.
    pub per_lane: (f64, f64),
    /// Charge at the sparse throughput instead of the dense rate.
    pub sparse: bool,
}

impl WaveCharge {
    /// Charges the class as one fused launch on `d`; returns the ns.
    fn apply(&self, d: &mut GpuDevice, stream: StreamId) -> f64 {
        let per_lane = repeat_n(self.per_lane, self.lanes);
        d.batched_wave_kernel(self.name, per_lane, self.sparse, stream)
    }
}

/// What one [`Accelerator::fo_step`] charges: `busy` lanes, each costing
/// the same `(flops, bytes)` per kernel class.
#[derive(Debug, Clone, Copy)]
pub struct FoStepCharges {
    /// Busy lanes — padding inside a block is never charged.
    pub busy: usize,
    /// Each of the two SpMV classes (`fo.spmv_t`, `fo.spmv`; sparse rate).
    pub spmv: (f64, f64),
    /// The `fo.axpy` class (dense rate).
    pub axpy: (f64, f64),
}

/// The `fo.norm` class of a step on which lanes land on a KKT check. The
/// check's math lives in `gmip-lp`, so it arrives as a body — and it rides
/// the step's own dispatch: a block is checked by the thread that just
/// stepped it, so a checking superstep costs no second fan-out.
pub struct FoCheck<'a> {
    /// Lanes on a check.
    pub lanes: usize,
    /// `(flops, bytes)` of each lane's check (dense rate).
    pub per_lane: (f64, f64),
    /// Called with `(block index, block)` for every block of the arena,
    /// right after the block stepped; calls may run concurrently.
    pub body: &'a (dyn Fn(usize, &FoBlock) + Sync),
}

impl std::fmt::Debug for FoCheck<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FoCheck")
            .field("lanes", &self.lanes)
            .field("per_lane", &self.per_lane)
            .finish_non_exhaustive()
    }
}

/// A per-lane executing body for classes whose numerics live outside
/// `gmip-gpu` (the `fo.norm` convergence checks, propagation rounds,
/// fix-and-propagate dives). Each body is called exactly once per
/// dispatch, by exactly one thread.
pub type LaneBody<'a> = &'a mut (dyn FnMut() + Send);

/// Fused kernel-class dispatch: execute the lane payloads, then charge the
/// simulated cost. All methods return the simulated ns charged.
pub trait Accelerator: Send + Sync + std::fmt::Debug {
    /// One batched PDHG iteration of every busy lane of `arena`
    /// ([`kernels::fo_step_block`] per block, the shared `csr` walked once
    /// per block) and, in the same dispatch, `check`'s body on each block;
    /// then — under one device lock — the three class charges `fo.spmv_t`,
    /// `fo.axpy`, `fo.spmv` for the *busy* lanes (padding lanes of a block
    /// are never charged: the modeled device packs busy lanes), the
    /// retire-boundary stream event, and `check`'s `fo.norm` charge.
    fn fo_step(
        &self,
        csr: &CsrMatrix,
        c_tilde: &[f64],
        b: &[f64],
        arena: &mut FoArena,
        charges: &FoStepCharges,
        check: Option<&FoCheck<'_>>,
        stream: StreamId,
    ) -> f64;

    /// Fused dispatch of opaque per-lane bodies under wall-clock class
    /// `class`, followed by the listed cost charges in order. Used for the
    /// propagation/dive sweeps (whose math lives in `gmip-prop`).
    fn fused_dispatch(
        &self,
        class: &'static str,
        bodies: &mut [LaneBody<'_>],
        charges: &[WaveCharge],
        stream: StreamId,
    ) -> f64;

    /// Snapshot of the backend's `wall.*` registry (empty for the
    /// simulator). Kept outside the device's `gpu.*` registry so the
    /// byte-determinism surface never sees wall-clock.
    fn wall(&self) -> MetricsRegistry;
}

/// The lane executor: the handle's one device, and the pool that runs the
/// lane bodies under [`BackendKind::Native`] (none under `Sim`, where the
/// calling thread runs them). The pool is boxed so that a `Sim` executor,
/// which every handle starts with, is two pointers.
#[derive(Debug)]
pub(crate) struct LaneExec {
    pub(crate) dev: Arc<Mutex<GpuDevice>>,
    pool: Option<Box<Pool>>,
}

/// Native execution: the worker threads and the wall-clock they record.
#[derive(Debug)]
struct Pool {
    workers: rayon::ThreadPool,
    wall: Mutex<MetricsRegistry>,
}

impl Pool {
    /// `threads` pool threads (0 = `rayon::current_num_threads()`), clamped
    /// to the host's available parallelism: a pool wider than the machine
    /// only adds wake-ups. `wall.threads` reports the effective count.
    fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        };
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        let threads = threads.min(host);
        let mut wall = MetricsRegistry::new();
        wall.set_gauge(names::WALL_THREADS, threads as f64);
        Self {
            workers: rayon::ThreadPool::new(threads),
            wall: Mutex::new(wall),
        }
    }

    fn wall_key(class: &str) -> &'static str {
        match class {
            "fo.step" => names::WALL_FO_STEP,
            "prop.round" => names::WALL_PROP_ROUND,
            "heur.dive" => names::WALL_HEUR_DIVE,
            _ => names::WALL_OTHER,
        }
    }
}

impl LaneExec {
    /// The executor `backend` names over the shared device `dev`.
    pub(crate) fn new(dev: Arc<Mutex<GpuDevice>>, backend: BackendKind) -> Self {
        let pool = match backend {
            BackendKind::Sim => None,
            BackendKind::Native { threads } => Some(Box::new(Pool::new(threads))),
        };
        Self { dev, pool }
    }

    /// Runs `f` over every item (an arena block, an opaque lane body) with
    /// its index, each touched by exactly one thread: in order on the
    /// calling thread without a pool, else across the pool, timing the
    /// fan-out under the class's wall key.
    fn run_lanes<T: Send>(
        &self,
        class: &'static str,
        lanes: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
    ) {
        let Some(pool) = &self.pool else {
            for (i, lane) in lanes.iter_mut().enumerate() {
                f(i, lane);
            }
            return;
        };
        let t0 = Instant::now();
        let base = lanes.as_mut_ptr() as usize;
        pool.workers.dispatch(lanes.len(), &|i| {
            // Safety: `dispatch` hands each index to exactly one thread and
            // blocks until all are done, so the `&mut` borrows are disjoint
            // and live for the call.
            let lane = unsafe { &mut *(base as *mut T).add(i) };
            f(i, lane);
        });
        let mut wall = pool.wall.lock();
        wall.incr(Pool::wall_key(class), t0.elapsed().as_nanos() as f64);
        wall.incr(names::WALL_DISPATCHES, 1.0);
    }
}

impl Accelerator for LaneExec {
    fn fo_step(
        &self,
        csr: &CsrMatrix,
        c_tilde: &[f64],
        b: &[f64],
        arena: &mut FoArena,
        charges: &FoStepCharges,
        check: Option<&FoCheck<'_>>,
        stream: StreamId,
    ) -> f64 {
        self.run_lanes("fo.step", arena.blocks_mut(), |i, blk| {
            kernels::fo_step_block(csr, c_tilde, b, blk);
            if let Some(check) = check {
                (check.body)(i, blk);
            }
        });
        let FoStepCharges { busy, spmv, axpy } = *charges;
        let class = |name, per_lane, sparse| WaveCharge {
            name,
            lanes: busy,
            per_lane,
            sparse,
        };
        let mut d = self.dev.lock();
        let mut ns = 0.0;
        for c in [
            class("fo.spmv_t", spmv, true),
            class("fo.axpy", axpy, false),
            class("fo.spmv", spmv, true),
        ] {
            ns += c.apply(&mut d, stream);
        }
        // Retire boundaries are stream events, not device barriers.
        let _ = d.record_event(stream);
        if let Some(c) = check {
            let norm = WaveCharge {
                name: "fo.norm",
                lanes: c.lanes,
                per_lane: c.per_lane,
                sparse: false,
            };
            ns += norm.apply(&mut d, stream);
        }
        ns
    }

    fn fused_dispatch(
        &self,
        class: &'static str,
        bodies: &mut [LaneBody<'_>],
        charges: &[WaveCharge],
        stream: StreamId,
    ) -> f64 {
        self.run_lanes(class, bodies, |_, body| body());
        let mut d = self.dev.lock();
        charges
            .iter()
            .fold(0.0, |ns, c| ns + c.apply(&mut d, stream))
    }

    fn wall(&self) -> MetricsRegistry {
        self.pool
            .as_ref()
            .map_or_else(MetricsRegistry::new, |p| p.wall.lock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DEFAULT_STREAM;
    use crate::kernels::FO_BLOCK;
    use crate::Accel;
    use gmip_linalg::DenseMatrix;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn native(threads: usize) -> Accel {
        Accel::gpu(1).with_backend(BackendKind::Native { threads })
    }

    #[test]
    fn backend_kind_parses() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(
            BackendKind::parse("native"),
            Some(BackendKind::Native { threads: 0 })
        );
        assert_eq!(BackendKind::parse("cuda"), None);
        assert_eq!(BackendKind::default().label(), "sim");
        assert_eq!(BackendKind::Native { threads: 3 }.label(), "native");
    }

    #[test]
    fn both_backends_charge_identical_ns() {
        let charges = FoStepCharges {
            busy: 4,
            spmv: (1000.0, 4000.0),
            axpy: (1000.0, 4000.0),
        };
        let (sim, nat) = (Accel::gpu(1), native(2));
        let csr = CsrMatrix::from_dense(&DenseMatrix::identity(3));
        let run = |a: &dyn Accelerator| {
            // Four busy lanes spread over two blocks.
            let mut arena = FoArena::new(3, 3, 12);
            for slot in [0, 5, 8, 11] {
                let (blk, lane) = arena.lane_mut(slot);
                kernels::scatter(&mut blk.y, lane, &[1.0, 2.0, 3.0]);
                kernels::scatter(&mut blk.ub, lane, &[1.0; 3]);
                blk.set_steps(lane, 0.5, 0.5);
            }
            // The check body sees each block once, already stepped.
            let seen = [AtomicU32::new(0), AtomicU32::new(0)];
            let check = FoCheck {
                lanes: 2,
                per_lane: (8.0, 64.0),
                body: &|i, blk| {
                    assert_eq!(blk.aty[FO_BLOCK * 2], 3.0, "lane 0, stepped");
                    seen[i].fetch_add(1, Ordering::Relaxed);
                },
            };
            let mut step = |check| {
                a.fo_step(
                    &csr,
                    &[0.0; 3],
                    &[0.0; 3],
                    &mut arena,
                    &charges,
                    check,
                    DEFAULT_STREAM,
                )
            };
            let unchecked = step(None);
            let t = step(Some(&check));
            assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
            assert!(t > unchecked, "the fo.norm class is charged on top");
            (t, arena.blocks_mut().to_vec())
        };
        let (t_sim, out_sim) = run(&*sim.exec());
        let (t_nat, out_nat) = run(&*nat.exec());
        assert_eq!(t_sim.to_bits(), t_nat.to_bits());
        for (a, b) in out_sim.iter().zip(&out_nat) {
            assert_eq!(a.aty, b.aty);
            assert_eq!(a.y, b.y);
        }
        assert_eq!(out_sim[0].aty[FO_BLOCK * 2 + 5], 3.0);
        // Wall clock exists only on the native side and never under gpu.*.
        assert!(sim.wall_metrics().is_empty());
        let wall = nat.wall_metrics();
        assert_eq!(wall.counter(names::WALL_DISPATCHES), 2.0);
        assert!(wall.counter(names::WALL_FO_STEP) > 0.0);
    }

    #[test]
    fn native_pool_is_clamped_to_the_host() {
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        let nat = native(host + 7);
        assert_eq!(nat.wall_metrics().gauge(names::WALL_THREADS), host as f64);
    }

    #[test]
    fn fused_dispatch_runs_bodies_and_charges_in_order() {
        let nat = native(3);
        let mut hits = [0u32; 8];
        let mut closures: Vec<_> = hits
            .iter_mut()
            .map(|h| {
                move || {
                    *h += 1;
                }
            })
            .collect();
        let mut bodies: Vec<LaneBody<'_>> = closures
            .iter_mut()
            .map(|c| c as &mut (dyn FnMut() + Send))
            .collect();
        let charge = |name, sparse| WaveCharge {
            name,
            lanes: 8,
            per_lane: (10.0, 10.0),
            sparse,
        };
        let t = nat.exec().fused_dispatch(
            "prop.round",
            &mut bodies,
            &[charge("prop.activity", true), charge("prop.reduce", false)],
            DEFAULT_STREAM,
        );
        assert!(t > 0.0);
        drop(bodies);
        drop(closures);
        assert!(hits.iter().all(|&h| h == 1));
        assert!(nat.wall_metrics().counter(names::WALL_PROP_ROUND) > 0.0);
    }
}
