//! The lane executor behind every [`crate::Accel`], and the
//! [`Accelerator`] trait that names its dispatch as an interface.
//!
//! [`Accel::dispatch`](crate::Accel::dispatch) is the one path from lane
//! items into the executor: it runs a body once per item, then applies the
//! listed cost charges in order under one device lock. What an item is — a
//! first-order arena block, a propagation lane, a dive — and what its body
//! computes belong to the crate that calls it; this module only runs the
//! bodies and charges the simulated nanoseconds through the handle's one
//! [`GpuDevice`], which stays the deterministic oracle and the only source
//! of traced time. Its [`BackendKind`] decides *who runs the bodies*:
//!
//! * [`BackendKind::Sim`]: the calling thread runs them in order, untimed.
//! * [`BackendKind::Native`]: a persistent [`rayon::ThreadPool`] runs them —
//!   one parallel fan-out per dispatch — and real wall-clock per class
//!   lands in a `wall.*` metric family. Each item is touched by exactly one
//!   thread, so a body that keeps the floating-point order inside its item
//!   computes bit-identical results across backends and thread counts;
//!   only wall-clock varies, and wall-clock never enters traces or
//!   simulated `_ns` totals.
//!
//! [`Accelerator::fused_dispatch`] is the same dispatch over opaque
//! [`LaneBody`] closures, for callers that hold the executor as a trait
//! object.

use crate::device::GpuDevice;
use crate::stream::StreamId;
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

/// One simulated cost charge a dispatch applies after running its items: a kernel class whose `lanes` active instances each cost
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

/// An opaque per-lane body for [`Accelerator::fused_dispatch`]. Each body
/// is called exactly once per dispatch, by exactly one thread.
pub type LaneBody<'a> = &'a mut (dyn FnMut() + Send);

/// Fused kernel-class dispatch as an object-safe interface. All methods
/// return the simulated ns charged.
pub trait Accelerator: Send + Sync + std::fmt::Debug {
    /// [`Accel::dispatch`](crate::Accel::dispatch) over opaque lane bodies:
    /// each body is called once, then `charges` apply in order.
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

    /// Runs `f` once per item with its index, each item touched by exactly
    /// one thread: in order on the calling thread without a pool, else
    /// across the pool, timing the fan-out under the class's wall key. Then
    /// applies `charges` in order under one device lock; returns their ns.
    pub(crate) fn dispatch<T: Send>(
        &self,
        class: &'static str,
        items: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
        charges: &[WaveCharge],
        stream: StreamId,
    ) -> f64 {
        if let Some(pool) = &self.pool {
            let t0 = Instant::now();
            let base = items.as_mut_ptr() as usize;
            pool.workers.dispatch(items.len(), &|i| {
                // SAFETY: `dispatch` hands each index to exactly one thread
                // and blocks until all are done, so the `&mut` borrows are
                // disjoint and live for the call.
                let item = unsafe { &mut *(base as *mut T).add(i) };
                f(i, item);
            });
            let mut wall = pool.wall.lock();
            wall.incr(Pool::wall_key(class), t0.elapsed().as_nanos() as f64);
            wall.incr(names::WALL_DISPATCHES, 1.0);
        } else {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
        }
        let mut d = self.dev.lock();
        charges
            .iter()
            .fold(0.0, |ns, c| ns + c.apply(&mut d, stream))
    }
}

impl Accelerator for LaneExec {
    fn fused_dispatch(
        &self,
        class: &'static str,
        bodies: &mut [LaneBody<'_>],
        charges: &[WaveCharge],
        stream: StreamId,
    ) -> f64 {
        self.dispatch(class, bodies, |_, body| body(), charges, stream)
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
    use crate::Accel;
    use gmip_trace::TraceSession;

    fn native(threads: usize) -> Accel {
        Accel::gpu(1).with_backend(BackendKind::Native { threads })
    }

    fn charge(name: &'static str, lanes: usize, sparse: bool) -> WaveCharge {
        WaveCharge {
            name,
            lanes,
            per_lane: (1000.0 * lanes as f64, 4000.0),
            sparse,
        }
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

    /// Both backends run every item once with its own index and charge the
    /// same ns bit for bit; only the native one records wall-clock.
    #[test]
    fn dispatch_runs_each_item_once_and_charges_identical_ns() {
        let charges = [charge("fo.spmv_t", 4, true), charge("fo.axpy", 4, false)];
        let run = |accel: &Accel| {
            let mut items: Vec<(usize, u32)> = (0..11).map(|i| (i * 7, 0)).collect();
            let ns = accel.dispatch(
                "fo.step",
                &mut items,
                |i, (tag, hits)| {
                    assert_eq!(*tag, i * 7, "item {i} got its own index");
                    *hits += 1;
                },
                &charges,
                DEFAULT_STREAM,
            );
            assert!(items.iter().all(|&(_, hits)| hits == 1));
            ns
        };
        let (sim, nat) = (Accel::gpu(1), native(2));
        let t = run(&sim);
        assert!(t > 0.0);
        assert_eq!(t.to_bits(), run(&nat).to_bits());
        assert_eq!(sim.stats(), nat.stats());
        // Wall clock exists only on the native side and never under gpu.*.
        assert!(sim.wall_metrics().is_empty());
        let wall = nat.wall_metrics();
        assert_eq!(wall.counter(names::WALL_DISPATCHES), 1.0);
        assert!(wall.counter(names::WALL_FO_STEP) > 0.0);
        assert!(nat
            .metrics()
            .counters()
            .all(|(k, _)| !k.starts_with("wall.")));
    }

    #[test]
    fn native_pool_is_clamped_to_the_host() {
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        let nat = native(host + 7);
        assert_eq!(nat.wall_metrics().gauge(names::WALL_THREADS), host as f64);
    }

    /// The charges apply after the bodies ran, one fused launch each, in
    /// the order listed; `fused_dispatch` is the same dispatch over opaque
    /// bodies.
    #[test]
    fn dispatch_applies_the_charges_in_order() {
        let names = ["test.dispatch.c", "test.dispatch.a", "test.dispatch.b"];
        for accel in [Accel::gpu(1), native(3)] {
            let charges = names.map(|n| charge(n, 8, n.ends_with('a')));
            let session = TraceSession::start();
            let mut hits = [0u32; 8];
            let mut closures: Vec<_> = hits.iter_mut().map(|h| move || *h += 1).collect();
            let mut bodies: Vec<LaneBody<'_>> = closures
                .iter_mut()
                .map(|c| c as &mut (dyn FnMut() + Send))
                .collect();
            let before = accel.stats().kernel_launches;
            let t =
                accel
                    .exec()
                    .fused_dispatch("prop.round", &mut bodies, &charges, DEFAULT_STREAM);
            let trace = session.finish();
            drop(bodies);
            drop(closures);
            assert!(t > 0.0 && hits.iter().all(|&h| h == 1));
            assert_eq!(accel.stats().kernel_launches - before, 3);
            let spans: Vec<&str> = trace
                .events
                .iter()
                .map(|e| e.event.name)
                .filter(|n| n.starts_with("test.dispatch."))
                .collect();
            assert_eq!(spans, names);
        }
    }
}
