//! The simulated GPU device.
//!
//! A [`GpuDevice`] owns device "memory" (byte-accounted; payloads live in
//! host RAM since this is a simulator), a set of [`stream`](crate::stream)
//! timelines, and cumulative [`DeviceStats`]. Every operation:
//!
//! 1. performs the *real* numerics by calling into `gmip-linalg`,
//! 2. charges simulated time from the [`CostModel`] onto a stream, and
//! 3. updates transfer/launch counters.
//!
//! The same type serves as the "CPU backend": construct it with
//! [`CostModel::cpu_host`] and a large memory capacity, and host execution
//! is simulated under the same accounting. This mirrors the paper's framing,
//! where CPU and GPU execution differ in relative costs, not in kind.
//!
//! The kernel set is deliberately shaped around what a GPU-resident revised
//! simplex needs (Section 5.1): basis gather, LU factor/solve, eta-file
//! FTRAN/BTRAN, fused pricing, and masked argmin/ratio-test reductions that
//! return only a scalar to the host. It is split by concern:
//!
//! * this module — the device itself: handles, charging (transfers, kernel
//!   launches, launch chains, batched waves) and memory tenancy;
//! * [`storage`] — the kernels that read the constraint matrix or a
//!   factored basis, each written once over a [`Storage`];
//! * `simplex` — the vector kernels of an iteration: the selection rules
//!   and updates of [`gmip_linalg::pivot`] (ratio tests, Devex, the basic
//!   step) run on resident vectors and charged, and the masked reductions.

mod simplex;
pub mod storage;
#[cfg(test)]
mod tests;

pub use storage::Storage;

use crate::cost::CostModel;
use crate::memory::{DeviceMemory, OutOfMemory};
use crate::objects::{BufferPool, Obj, ObjectTable};
use crate::stats::{DeviceStats, Ledger, Series};
use crate::stream::{StreamId, StreamSet};
use gmip_linalg::{CsrMatrix, DenseMatrix, LinalgError};
use gmip_trace::{Event, MetricsRegistry, Track, TrackGroup};
use std::marker::PhantomData;

/// Errors surfaced by device operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuError {
    /// Device memory exhausted.
    Oom(OutOfMemory),
    /// A handle did not refer to a live object of the expected kind.
    InvalidHandle(u64),
    /// The underlying numerical kernel failed.
    Linalg(LinalgError),
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::Oom(o) => write!(f, "{o}"),
            GpuError::InvalidHandle(h) => write!(f, "invalid device handle {h}"),
            GpuError::Linalg(e) => write!(f, "kernel failure: {e}"),
        }
    }
}

impl std::error::Error for GpuError {}

impl From<OutOfMemory> for GpuError {
    fn from(e: OutOfMemory) -> Self {
        GpuError::Oom(e)
    }
}

impl From<LinalgError> for GpuError {
    fn from(e: LinalgError) -> Self {
        GpuError::Linalg(e)
    }
}

/// Device-operation result alias.
pub type Result<T> = std::result::Result<T, GpuError>;

/// An index a kernel was handed that its vector does not have.
fn out_of_bounds(index: usize, bound: usize) -> GpuError {
    GpuError::Linalg(LinalgError::OutOfBounds { index, bound })
}

/// The default stream (stream 0), always present.
pub const DEFAULT_STREAM: StreamId = 0;

/// A scalar store `vector[index] = value` that rides a kernel launch as an
/// argument (see [`GpuDevice::basic_step`]): the host names a position and a
/// value, the kernel writes it, and nothing crosses the link for it.
pub type ScalarWrite = (VectorHandle, usize, f64);

/// The most [`ScalarWrite`]s one kernel launch carries. A store is an
/// `(index, value)` pair of 16 bytes, so 256 of them fill a 4 KiB
/// launch-parameter block, the classic CUDA limit on a kernel's arguments;
/// a kernel handed more refuses them, and what a caller must store beyond
/// that crosses the link as an upload.
pub const LAUNCH_WRITES: usize = 256;

macro_rules! handle_type {
    ($(#[$doc:meta])* $name:ident $(<$storage:ident>)?) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name$(<$storage>)?(pub(crate) u64 $(, pub(crate) PhantomData<$storage>)?);

        impl$(<$storage>)? From<$name$(<$storage>)?> for u64 {
            /// The raw object id, as [`GpuDevice::free`] and
            /// [`GpuDevice::vacate`] take it.
            fn from(h: $name$(<$storage>)?) -> u64 {
                h.0
            }
        }
    };
}

handle_type!(
    /// Handle to a device-resident dense matrix.
    MatrixHandle
);
handle_type!(
    /// Handle to a device-resident dense vector.
    VectorHandle
);
handle_type!(
    /// Handle to a device-resident CSR sparse matrix.
    SparseHandle
);
handle_type!(
    /// Handle to device-resident LU factors of a matrix held as `S`: dense
    /// LU over a [`MatrixHandle`], sparse LU over a [`SparseHandle`].
    Factors<S>
);
handle_type!(
    /// Handle to a device-resident eta file (PFI basis representation) over
    /// a matrix held as `S`: the storage's LU of the initial basis plus the
    /// eta updates since.
    Eta<S>
);

/// Handle to device-resident dense LU factors.
pub type FactorHandle = Factors<MatrixHandle>;
/// Handle to device-resident sparse LU factors.
pub type SparseFactorHandle = Factors<SparseHandle>;
/// Handle to a device-resident eta file over dense LU.
pub type EtaHandle = Eta<MatrixHandle>;
/// Handle to a device-resident sparse eta file (sparse LU base + eta
/// updates — the sparse code path's basis representation).
pub type SparseEtaHandle = Eta<SparseHandle>;
handle_type!(
    /// Handle to a raw byte allocation (used to account for non-matrix
    /// structures parked in device memory, e.g. the B&B tree in Strategy 1).
    RawHandle
);

/// Configuration of a simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Cost model charged for every operation.
    pub cost: CostModel,
    /// Device memory capacity in bytes.
    pub mem_capacity: usize,
    /// Initial number of streams.
    pub streams: usize,
}

impl DeviceConfig {
    /// A data-center GPU with `gib` GiB of memory on PCIe. Panics if the
    /// byte count overflows a `usize` (a shift would wrap silently).
    pub fn gpu(gib: usize) -> Self {
        Self {
            cost: CostModel::gpu_pcie(),
            mem_capacity: gib
                .checked_mul(1 << 30)
                .expect("device memory fits a usize"),
            streams: 1,
        }
    }

    /// A host CPU "device": cpu cost model, effectively unbounded memory.
    pub fn cpu() -> Self {
        Self {
            cost: CostModel::cpu_host(),
            mem_capacity: usize::MAX / 2,
            streams: 1,
        }
    }
}

/// A simulated accelerator device.
///
/// Simulating an operation is meant to cost next to nothing beside the
/// numerics it stands for, so the bookkeeping is O(1) and allocation-free:
///
/// * the `gpu.*` series live in a fixed-slot ledger bumped by index and
///   turned into a [`MetricsRegistry`] / [`DeviceStats`] only when
///   [`metrics`](Self::metrics) / [`stats`](Self::stats) are read;
/// * handles index a generation-checked slab, so a lookup never hashes and
///   a stale or wrong-typed handle is still [`GpuError::InvalidHandle`];
/// * the host buffers behind freed device vectors are recycled through a
///   small bounded pool that handle-returning kernels and uploads draw from;
/// * the simplex kernels write *resident* objects in place: a vector made
///   by [`vacant_vector`](Self::vacant_vector) (an eta file made by
///   [`vacant_eta`](Self::vacant_eta)) keeps its handle and host storage
///   for life, a kernel's result moves in as its *tenant*, and
///   [`vacate`](Self::vacate) moves the tenant out. Re-tenanting charges
///   [`DeviceMemory`] what creating and freeing an object did — an
///   allocation of the result's length, then the release of the tenant it
///   replaces — while the host creates nothing
///   ([`objects_created`](Self::objects_created) stands still).
///
/// None of this is visible in simulated time, counters or device bytes:
/// [`DeviceMemory`] models every object as if its buffer were fresh.
#[derive(Debug)]
pub struct GpuDevice {
    cost: CostModel,
    mem: DeviceMemory,
    streams: StreamSet,
    ledger: Ledger,
    track: TrackGroup,
    objects: ObjectTable,
    pool: BufferPool,
    /// Scratch for kernels that need a temporary beside their result.
    work: Vec<f64>,
    /// Whether a launch chain is open, and whether it has launched.
    chain: Chain,
    /// The read-backs an open chain has staged: their stream and summed
    /// bytes, crossing the link once when the scope closes.
    readback: Option<(StreamId, usize)>,
}

/// Where the device stands in a launch chain ([`GpuDevice::chain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chain {
    /// No chain: every kernel is a launch of its own.
    Closed,
    /// Inside a chain that has not launched yet.
    Open,
    /// Inside a chain whose launch — on this stream — has been paid, by
    /// its own first kernel or by the held chain it continues.
    Launched(StreamId),
}

impl GpuDevice {
    /// Creates a device from a configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            cost: config.cost,
            mem: DeviceMemory::new(config.mem_capacity),
            streams: StreamSet::new(config.streams),
            ledger: Ledger::default(),
            track: TrackGroup::Gpu(0),
            objects: ObjectTable::default(),
            pool: BufferPool::default(),
            work: Vec::new(),
            chain: Chain::Closed,
            readback: None,
        }
    }

    /// The device's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Memory accounting view.
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Cumulative operation counters, read straight off the ledger.
    pub fn stats(&self) -> DeviceStats {
        self.ledger.stats()
    }

    /// The device's metrics (counters/gauges under the `gpu.*` names of
    /// [`gmip_trace::names`]), materialized from the ledger: exactly the
    /// series charged so far, each with the bits a registry updated per
    /// operation would hold.
    pub fn metrics(&self) -> MetricsRegistry {
        self.ledger.to_registry()
    }

    /// Device objects ever created — uploads, handle-returning kernel
    /// results, factorizations, raw reservations, vacant residents. A
    /// host-side count that modelled memory knows nothing of: in-place
    /// kernels exist so that a warm simplex iteration does not move it.
    pub fn objects_created(&self) -> u64 {
        self.objects.created()
    }

    /// Host bytes held by the recycling pool of freed vector buffers —
    /// bounded by a constant times the largest vector the device has seen.
    /// Says nothing about modelled device memory (see [`Self::memory`]).
    pub fn pool_retained_bytes(&self) -> usize {
        self.pool.retained_bytes()
    }

    /// Assigns the trace track group this device's spans land on (which
    /// GPU index, or the host group for a CPU executor). Defaults to
    /// `TrackGroup::Gpu(0)`.
    pub fn set_trace_group(&mut self, group: TrackGroup) {
        self.track = group;
    }

    /// Simulated time at the device completion frontier, ns.
    pub fn elapsed_ns(&self) -> f64 {
        self.streams.frontier()
    }

    /// Creates an additional stream; returns its id.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.create()
    }

    /// Synchronizes all streams, submitting every held launch chain;
    /// returns the joined timestamp.
    pub fn synchronize(&mut self) -> f64 {
        let t = self.streams.sync();
        self.ledger.incr(Series::Syncs, 1.0);
        let track = self.track;
        gmip_trace::record(|| {
            Event::instant(
                Track {
                    group: track,
                    lane: 0,
                },
                "sync",
                t,
            )
        });
        t
    }

    // ---- internal plumbing ----

    /// Modelled allocation: every tenant of device memory pays it, and the
    /// peak gauge follows.
    #[inline]
    fn alloc(&mut self, bytes: usize) -> Result<()> {
        self.mem.alloc(bytes)?;
        self.ledger
            .max_gauge(Series::MemPeakBytes, self.mem.used() as f64);
        Ok(())
    }

    fn insert(&mut self, obj: Obj, bytes: usize) -> Result<u64> {
        self.alloc(bytes)?;
        Ok(self.objects.insert(obj, bytes, true))
    }

    /// Runs a kernel whose result is resident vector `out`. `kernel` fills
    /// the vector's detached storage (last argument; the one before is the
    /// device's scratch) while it reads other objects, and returns what
    /// `charge` needs; the result then moves in as `out`'s tenant. A kernel
    /// that fails leaves `out` unreadable, still accounting for whatever
    /// tenant it had.
    fn write_vector<T>(
        &mut self,
        out: VectorHandle,
        kernel: impl FnOnce(&ObjectTable, &mut Vec<f64>, &mut Vec<f64>) -> Result<T>,
        charge: impl FnOnce(&mut Self, T),
    ) -> Result<()> {
        let mut buf = self.objects.detach(out)?;
        match kernel(&self.objects, &mut self.work, &mut buf) {
            Ok(t) => {
                charge(self, t);
                self.settle(out, buf)
            }
            Err(e) => {
                self.objects.attach(out, buf, None);
                Err(e)
            }
        }
    }

    /// Moves `buf` in as the tenant of resident vector `out`, the way the
    /// ledger saw one kernel result supersede another: a modelled
    /// allocation of its length, then the release of the tenant it replaces.
    #[inline]
    fn settle(&mut self, out: VectorHandle, buf: Vec<f64>) -> Result<()> {
        let bytes = buf.len() * 8;
        match self.alloc(bytes) {
            Ok(()) => {
                let replaced = self.objects.attach(out, buf, Some(bytes));
                self.mem.free(replaced);
                Ok(())
            }
            Err(e) => {
                self.objects.attach(out, buf, None);
                Err(e)
            }
        }
    }

    /// Installs a kernel's result vector as a new device object.
    fn insert_vector(&mut self, v: Vec<f64>) -> Result<VectorHandle> {
        let bytes = v.len() * 8;
        Ok(VectorHandle(self.insert(Obj::Vector(v), bytes)?))
    }

    /// Emits a span for an operation that occupied `[done - t, done)` on
    /// `stream` (`enqueue` returns the stream's new completion frontier, so
    /// the span start is recovered by subtracting the charged cost).
    fn trace_span(&self, name: &'static str, stream: StreamId, done: f64, t: f64, bytes: f64) {
        let track = Track {
            group: self.track,
            lane: stream as u32,
        };
        gmip_trace::record(|| {
            Event::complete(track, name, done - t, t).arg("bytes", bytes.max(0.0) as u64)
        });
    }

    fn charge_h2d(&mut self, bytes: usize, stream: StreamId) {
        if self.chain == Chain::Closed {
            // An unchained transfer submits the launch its stream held.
            self.streams.set_held(stream, false);
        }
        let t = self.cost.transfer_ns(bytes);
        let done = self.streams.enqueue(stream, t);
        self.ledger.incr(Series::H2dTransfers, 1.0);
        self.ledger.incr(Series::H2dBytes, bytes as f64);
        self.ledger.incr(Series::TransferNs, t);
        self.trace_span("h2d", stream, done, t, bytes as f64);
    }

    /// A read-back of `bytes`. Outside a launch chain it crosses the link
    /// now; inside one it is *staged* — the value sits in the device-side
    /// result buffer, where the chain's later kernels read it, and the host
    /// gets every staged value in one transfer when the chain ends.
    fn charge_d2h(&mut self, bytes: usize, stream: StreamId) {
        if self.chain == Chain::Closed {
            self.streams.set_held(stream, false);
            return self.cross_d2h(bytes, stream);
        }
        match &mut self.readback {
            Some((staged_on, staged)) if *staged_on == stream => *staged += bytes,
            _ => {
                self.flush_readback();
                self.readback = Some((stream, bytes));
            }
        }
    }

    /// Sends what the chain staged across the link: one D2H transfer of the
    /// summed bytes, enqueued behind the chain's last kernel — which submits
    /// the launch the chain ran under.
    fn flush_readback(&mut self) {
        if let Some((stream, bytes)) = self.readback.take() {
            self.streams.set_held(stream, false);
            self.cross_d2h(bytes, stream);
        }
    }

    fn cross_d2h(&mut self, bytes: usize, stream: StreamId) {
        let t = self.cost.transfer_ns(bytes);
        let done = self.streams.enqueue(stream, t);
        self.ledger.incr(Series::D2hTransfers, 1.0);
        self.ledger.incr(Series::D2hBytes, bytes as f64);
        self.ledger.incr(Series::TransferNs, t);
        self.trace_span("d2h", stream, done, t, bytes as f64);
    }

    /// Runs `kernels` as one **launch chain**: the kernels it charges back
    /// to back are issued as a single launch (a captured graph, a persistent
    /// kernel — Section 5.1's "repeatedly … with no data transfer"). The
    /// first pays the launch latency and counts as the chain's one launch;
    /// each later one is charged its roofline body only. Flops, bytes, span
    /// names, transfers and modelled memory are those of the kernels
    /// launched one by one.
    ///
    /// A chain's **read-backs are staged** the way an install's uploads are
    /// ([`upload_staged`](Self::upload_staged)): every D2H charged inside
    /// the scope — a reduction's 16–24 byte result, a
    /// [`vec_get`](Self::vec_get), a [`download_vector`](Self::download_vector)
    /// — is summed, and the sum crosses the link once, after the chain's
    /// last kernel. The same bytes, one envelope. A result a later kernel of
    /// the chain needs (the row a ratio test chose, the pivot element under
    /// it) is read where the reduction left it on the device, so `kernels`
    /// may branch on it — a conditional node of a captured graph, the loop
    /// of a persistent kernel — and a chain whose reduction finds nothing
    /// simply ends early. A chain that reads nothing back crosses nothing.
    ///
    /// The scope closes when `kernels` returns, whatever it returns: a chain
    /// that fails midway has charged the kernels it ran and sends back what
    /// they staged.
    ///
    /// A chain is **submitted where the host reads**. One that launched and
    /// staged no read-back gives the host nothing to wait for, so its launch
    /// stays *held* on its stream, and the next chain there continues it:
    /// its kernels are charged their bodies only, and no launch is counted.
    /// The held launch is submitted by the next chain that stages a
    /// read-back on the stream (its one D2H crosses behind the last kernel,
    /// as ever), by anything charged on the stream outside a chain, or by
    /// [`synchronize`](Self::synchronize) — and submitting it costs nothing
    /// more, the launch having been paid by its first kernel. A failed chain
    /// is held like any other. Chains on other streams hold and submit
    /// their own.
    ///
    /// A loop the device runs on its own results — one iteration deciding
    /// the next, the host told only when the loop ends — is one chain with a
    /// [`relaunch`](Self::relaunch) before each iteration after the first:
    /// such an iteration is charged one `launch_latency_ns` and counted as
    /// a launch, the conservative bound for a device-side relaunch, while
    /// what every iteration stages still crosses in the chain's one
    /// envelope.
    pub fn chain<R>(&mut self, kernels: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.chain, Chain::Open);
        let out = kernels(self);
        let ran = std::mem::replace(&mut self.chain, outer);
        if let Chain::Launched(stream) = ran {
            self.streams.set_held(stream, self.readback.is_none());
        }
        self.flush_readback();
        out
    }

    /// Ends the launch an open chain's kernels run under, so that its next
    /// kernel is a launch of its own: one device-side iteration of a loop
    /// inside a [`chain`](Self::chain). What the chain staged stays staged.
    /// Before a chain's first kernel, or outside a chain, it does nothing.
    pub fn relaunch(&mut self) {
        if let Chain::Launched(stream) = self.chain {
            self.chain = Chain::Open;
            self.streams.set_held(stream, false);
        }
    }

    /// Charges one kernel of `fl` flops at `flops_per_ns` over `bytes`: a
    /// launch through the device's issue queue, unless it continues a chain.
    fn charge_kernel(
        &mut self,
        name: &'static str,
        fl: f64,
        bytes: f64,
        flops_per_ns: f64,
        stream: StreamId,
    ) {
        let body = self.cost.body_ns(fl, bytes, flops_per_ns);
        let continued = match self.chain {
            Chain::Launched(_) => true,
            // An open chain's first kernel continues a held launch.
            Chain::Open if self.streams.held(stream) => {
                self.chain = Chain::Launched(stream);
                true
            }
            _ => false,
        };
        let (t, done) = if continued {
            (body, self.streams.enqueue(stream, body))
        } else {
            let t = self.cost.launch_latency_ns + body;
            self.ledger.incr(Series::KernelLaunches, 1.0);
            (t, self.launch(stream, t))
        };
        self.ledger.incr(Series::KernelFlops, fl);
        self.ledger.incr(Series::KernelNs, t);
        self.trace_span(name, stream, done, t, bytes);
    }

    /// Issues a launch of total duration `t` on `stream`; an open chain has
    /// had its launch from here on.
    fn launch(&mut self, stream: StreamId, t: f64) -> f64 {
        if self.chain == Chain::Open {
            self.chain = Chain::Launched(stream);
        }
        self.streams.launch(stream, t, self.cost.launch_latency_ns)
    }

    /// The flop throughput a kernel is charged against: the device's
    /// sparse rate (irregular gather/scatter access, Section 5.4) or its
    /// dense one.
    #[inline]
    fn flops_per_ns(&self, sparse: bool) -> f64 {
        if sparse {
            self.cost.sparse_flops_per_ns
        } else {
            self.cost.dense_flops_per_ns
        }
    }

    fn charge_dense_kernel(&mut self, name: &'static str, fl: f64, bytes: f64, stream: StreamId) {
        self.charge_kernel(name, fl, bytes, self.cost.dense_flops_per_ns, stream);
    }

    /// Charges a host↔device transfer of `bytes` without moving payload —
    /// used to model data movement of structures the simulator does not
    /// materialize (e.g. Strategy 1 spilling tree nodes to the host when
    /// device memory fills).
    pub fn charge_transfer(&mut self, bytes: usize, h2d: bool, stream: StreamId) {
        if h2d {
            self.charge_h2d(bytes, stream);
        } else {
            self.charge_d2h(bytes, stream);
        }
    }

    /// Charges an arbitrary modeled computation to this executor without
    /// moving data — used to account for host-side work (cut generation,
    /// heuristics) whose numerics run outside the kernel set, and for
    /// modeling distributed collectives in the Big-MIP strategy.
    pub fn charge_custom(&mut self, flops: f64, bytes: f64, sparse: bool, stream: StreamId) {
        let rate = self.flops_per_ns(sparse);
        self.charge_kernel("custom", flops, bytes, rate, stream);
    }

    // ---- memory & transfer operations ----

    /// Uploads a dense matrix to the device (one H2D transfer).
    pub fn upload_matrix(&mut self, m: &DenseMatrix, stream: StreamId) -> Result<MatrixHandle> {
        let bytes = m.size_bytes();
        let id = self.insert(Obj::Matrix(m.clone()), bytes)?;
        self.charge_h2d(bytes, stream);
        Ok(MatrixHandle(id))
    }

    /// Uploads a dense vector (one H2D transfer).
    pub fn upload_vector(&mut self, v: &[f64], stream: StreamId) -> Result<VectorHandle> {
        let mut buf = self.pool.take(v.len());
        buf.copy_from_slice(v);
        let h = self.insert_vector(buf)?;
        self.charge_h2d(std::mem::size_of_val(v), stream);
        Ok(h)
    }

    /// Creates a resident device vector with no tenant: a handle and host
    /// storage for the in-place kernels to write (their `out` argument) and
    /// [`vacate`](Self::vacate) to empty. It owns no modelled byte until a
    /// result moves in, and takes the length of whatever does.
    pub fn vacant_vector(&mut self) -> VectorHandle {
        VectorHandle(self.objects.insert(Obj::Vector(Vec::new()), 0, false))
    }

    /// Uploads every `(out, v)` of `parts` into its resident vector as one
    /// *staged* transfer: the host packs the payloads into one staging
    /// buffer and the link is crossed once, for the summed bytes. The
    /// vectors are written and their tenancies settled in list order (each a
    /// modelled allocation, then the release of the tenant it supersedes),
    /// and the transfer is charged once every destination exists: a part
    /// that does not fit leaves the earlier ones uploaded, itself unreadable,
    /// and the link untouched.
    pub fn upload_staged(
        &mut self,
        parts: &[(VectorHandle, &[f64])],
        stream: StreamId,
    ) -> Result<()> {
        let mut bytes = 0;
        for &(out, v) in parts {
            let mut buf = self.objects.detach(out)?;
            buf.clear();
            buf.extend_from_slice(v);
            self.settle(out, buf)?;
            bytes += std::mem::size_of_val(v);
        }
        self.charge_h2d(bytes, stream);
        Ok(())
    }

    /// Uploads a CSR sparse matrix (one H2D transfer of values + indices).
    pub fn upload_sparse(&mut self, m: &CsrMatrix, stream: StreamId) -> Result<SparseHandle> {
        let bytes = m.size_bytes();
        let id = self.insert(Obj::Sparse(Box::new(m.clone())), bytes)?;
        self.charge_h2d(bytes, stream);
        Ok(SparseHandle(id))
    }

    /// Reserves raw device bytes without payload (accounting for structures
    /// like Strategy 1's on-device tree).
    pub fn alloc_raw(&mut self, bytes: usize) -> Result<RawHandle> {
        let id = self.insert(Obj::Raw, bytes)?;
        Ok(RawHandle(id))
    }

    /// What resident vector `h` holds, read without a kernel, a transfer or
    /// any charge: a simulator's window for tests that check what a host
    /// believes the device holds. Solvers read through kernels.
    pub fn peek_vector(&self, h: VectorHandle) -> Result<&[f64]> {
        Ok(self.objects.vector(h)?)
    }

    /// Downloads a device vector (one D2H transfer).
    pub fn download_vector(&mut self, h: VectorHandle, stream: StreamId) -> Result<Vec<f64>> {
        let v = self.objects.vector(h)?.clone();
        self.charge_d2h(std::mem::size_of_val(v.as_slice()), stream);
        Ok(v)
    }

    /// Ends the tenancy of a resident object: its modelled bytes are
    /// released and it answers no read until a kernel writes it again;
    /// handle and host storage stay. Vacating a vacant object does nothing.
    pub fn vacate(&mut self, id: impl Into<u64>) -> Result<()> {
        let id = id.into();
        let r = self
            .objects
            .resident_mut(id)
            .ok_or(GpuError::InvalidHandle(id))?;
        self.mem.free(std::mem::take(r.bytes));
        *r.live = false;
        Ok(())
    }

    /// Frees any device object (every handle type converts to its id).
    pub fn free(&mut self, id: impl Into<u64>) -> Result<()> {
        let id = id.into();
        match self.objects.remove(id) {
            Some((obj, bytes)) => {
                self.mem.free(bytes);
                if let Obj::Vector(buf) = obj {
                    self.pool.put(buf);
                }
                Ok(())
            }
            None => Err(GpuError::InvalidHandle(id)),
        }
    }

    // ---- batched wave launches (Sections 4.3, 5.5) ----

    /// One **fused** batched launch of a wave-kernel class: `per_lane`
    /// yields the `(flops, bytes)` of each active lane's instance of the
    /// kernel, charged at the device's sparse throughput when `sparse`
    /// (irregular gather/scatter access, Section 5.4: the first-order
    /// engine's `fo.spmv` / `fo.spmv_t` classes, whose cost is proportional
    /// to `nnz` rather than to basis size), else at the dense rate. The
    /// batch pays a single launch latency; execution time is the
    /// [`CostModel::batched_kernel_ns`] wave model over the worst per-lane
    /// roofline, and the flop ledger accrues the per-lane sum — the
    /// Rennich-style amortization of Section 4.3 applied to the lockstep
    /// node-LP wave of Section 5.5. An empty batch charges nothing. Returns
    /// the charged ns.
    pub fn batched_wave_kernel(
        &mut self,
        name: &'static str,
        per_lane: impl ExactSizeIterator<Item = (f64, f64)> + Clone,
        sparse: bool,
        stream: StreamId,
    ) -> f64 {
        let batch = per_lane.len();
        if batch == 0 {
            return 0.0;
        }
        let rate = self.flops_per_ns(sparse);
        let per_op_ns = per_lane
            .clone()
            .map(|(fl, by)| self.cost.body_ns(fl, by, rate))
            .fold(0.0, f64::max);
        let t = self.cost.batched_kernel_ns(batch, per_op_ns);
        let done = self.launch(stream, t);
        let batch_flops: f64 = per_lane.clone().map(|p| p.0).sum();
        let batch_bytes: f64 = per_lane.map(|p| p.1).sum();
        self.ledger.incr(Series::KernelLaunches, 1.0);
        self.ledger.incr(Series::KernelFlops, batch_flops);
        self.ledger.incr(Series::KernelNs, t);
        let track = self.track;
        gmip_trace::record(|| {
            Event::complete(
                Track {
                    group: track,
                    lane: stream as u32,
                },
                name,
                done - t,
                t,
            )
            .arg("batch", batch)
            .arg("bytes", batch_bytes.max(0.0) as u64)
        });
        t
    }
}
