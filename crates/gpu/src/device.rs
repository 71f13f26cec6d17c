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
//! return only a scalar to the host.

use crate::cost::{flops, CostModel};
use crate::memory::{DeviceMemory, OutOfMemory};
use crate::objects::{BufferPool, Obj, ObjectTable, Resident};
use crate::stats::{DeviceStats, Ledger, Series};
use crate::stream::{Event as StreamEvent, StreamId, StreamSet};
use gmip_linalg::{batch as lbatch, CsrMatrix, DenseMatrix, LinalgError, LuFactors, SparseLu};
use gmip_trace::{Event, MetricsRegistry, Track, TrackGroup};

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

macro_rules! handle_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(pub(crate) u64);

        impl From<$name> for u64 {
            /// The raw object id, as [`GpuDevice::free`] and
            /// [`GpuDevice::vacate`] take it.
            fn from(h: $name) -> u64 {
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
    /// Handle to device-resident dense LU factors.
    FactorHandle
);
handle_type!(
    /// Handle to a device-resident CSR sparse matrix.
    SparseHandle
);
handle_type!(
    /// Handle to device-resident sparse LU factors.
    SparseFactorHandle
);
handle_type!(
    /// Handle to a device-resident eta file (PFI basis representation).
    EtaHandle
);
handle_type!(
    /// Handle to a device-resident sparse eta file (sparse LU base + eta
    /// updates — the sparse code path's basis representation).
    SparseEtaHandle
);
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
    /// A data-center GPU with `gib` GiB of memory on PCIe.
    pub fn gpu(gib: usize) -> Self {
        Self {
            cost: CostModel::gpu_pcie(),
            mem_capacity: gib << 30,
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
}

/// Where the device stands in a launch chain ([`GpuDevice::chain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chain {
    /// No chain: every kernel is a launch of its own.
    Closed,
    /// Inside a chain that has not launched yet.
    Open,
    /// Inside a chain whose launch has been paid.
    Launched,
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

    /// Records an event on `stream`.
    pub fn record_event(&self, stream: StreamId) -> StreamEvent {
        self.streams.record(stream)
    }

    /// Synchronizes all streams; returns the joined timestamp.
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
        let t = self.cost.transfer_ns(bytes);
        let done = self.streams.enqueue(stream, t);
        self.ledger.incr(Series::H2dTransfers, 1.0);
        self.ledger.incr(Series::H2dBytes, bytes as f64);
        self.ledger.incr(Series::TransferNs, t);
        self.trace_span("h2d", stream, done, t, bytes as f64);
    }

    fn charge_d2h(&mut self, bytes: usize, stream: StreamId) {
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
    /// launched one by one. The scope closes when `kernels` returns,
    /// whatever it returns.
    pub fn chain<R>(&mut self, kernels: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.chain, Chain::Open);
        let out = kernels(self);
        self.chain = outer;
        out
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
        let (t, done) = if self.chain == Chain::Launched {
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
            self.chain = Chain::Launched;
        }
        self.streams.launch(stream, t, self.cost.launch_latency_ns)
    }

    fn charge_dense_kernel(&mut self, name: &'static str, fl: f64, bytes: f64, stream: StreamId) {
        self.charge_kernel(name, fl, bytes, self.cost.dense_flops_per_ns, stream);
    }

    fn charge_sparse_kernel(&mut self, name: &'static str, fl: f64, bytes: f64, stream: StreamId) {
        self.charge_kernel(name, fl, bytes, self.cost.sparse_flops_per_ns, stream);
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
        self.charge_custom_named("custom", flops, bytes, sparse, stream);
    }

    /// [`charge_custom`](Self::charge_custom) with an explicit span name,
    /// so modeled work shows up meaningfully in traces ("ipm_iteration",
    /// "cut_separation", ...) rather than as anonymous kernels.
    pub fn charge_custom_named(
        &mut self,
        name: &'static str,
        flops: f64,
        bytes: f64,
        sparse: bool,
        stream: StreamId,
    ) {
        if sparse {
            self.charge_sparse_kernel(name, flops, bytes, stream);
        } else {
            self.charge_dense_kernel(name, flops, bytes, stream);
        }
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

    /// Frees a matrix handle.
    pub fn free_matrix(&mut self, h: MatrixHandle) -> Result<()> {
        self.free(h.0)
    }

    /// Frees a vector handle.
    pub fn free_vector(&mut self, h: VectorHandle) -> Result<()> {
        self.free(h.0)
    }

    /// Frees a raw allocation.
    pub fn free_raw(&mut self, h: RawHandle) -> Result<()> {
        self.free(h.0)
    }

    /// Frees a sparse matrix handle.
    pub fn free_sparse(&mut self, h: SparseHandle) -> Result<()> {
        self.free(h.0)
    }

    // ---- dense kernels ----

    /// LU-factorizes a device matrix (cuSOLVER `getrf`-class kernel).
    pub fn lu_factor(&mut self, h: MatrixHandle, stream: StreamId) -> Result<FactorHandle> {
        let m = self.objects.matrix(h)?;
        let n = m.rows();
        let f = LuFactors::factorize(m)?;
        let bytes = m.size_bytes() + n * std::mem::size_of::<usize>();
        self.charge_dense_kernel("lu_factor", flops::lu(n), m.size_bytes() as f64, stream);
        let id = self.insert(Obj::Factors(Box::new(f)), bytes)?;
        Ok(FactorHandle(id))
    }

    /// Solves `A x = b` for a device-resident rhs; result stays on device.
    pub fn lu_solve(
        &mut self,
        f: FactorHandle,
        b: VectorHandle,
        stream: StreamId,
    ) -> Result<VectorHandle> {
        let fac = self.objects.factors(f)?;
        let rhs = self.objects.vector(b)?;
        let n = fac.dim();
        let mut x = self.pool.take(n);
        fac.solve_into(rhs, &mut x)?;
        self.charge_dense_kernel("lu_solve", flops::lu_solve(n), (n * n * 8) as f64, stream);
        self.insert_vector(x)
    }

    /// Dense matrix–vector product `y = A x`, all device-resident.
    pub fn gemv(
        &mut self,
        a: MatrixHandle,
        x: VectorHandle,
        stream: StreamId,
    ) -> Result<VectorHandle> {
        let m = self.objects.matrix(a)?;
        let v = self.objects.vector(x)?;
        let (rows, cols) = (m.rows(), m.cols());
        let mut y = self.pool.take(rows);
        m.matvec_into(v, &mut y)?;
        self.charge_dense_kernel(
            "gemv",
            flops::gemv(rows, cols),
            (rows * cols * 8) as f64,
            stream,
        );
        self.insert_vector(y)
    }

    /// Transposed product `out = Aᵀ x`, all device-resident.
    pub fn gemv_transposed(
        &mut self,
        a: MatrixHandle,
        x: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, y| {
                let m = objects.matrix(a)?;
                y.resize(m.cols(), 0.0);
                m.matvec_transposed_into(objects.vector(x)?, y)?;
                Ok((m.rows(), m.cols()))
            },
            |dev, (rows, cols)| {
                dev.charge_dense_kernel(
                    "gemv_transposed",
                    flops::gemv(rows, cols),
                    (rows * cols * 8) as f64,
                    stream,
                )
            },
        )
    }

    /// Fused pricing kernel: reduced costs `d = c − Aᵀ y` in one launch.
    ///
    /// This is the Section 5.1 "no transfer" iteration: the full reduced-cost
    /// vector never leaves the device; only the argmin scalar does (see
    /// [`Self::argmin_masked`]).
    pub fn pricing(
        &mut self,
        a: MatrixHandle,
        y: VectorHandle,
        c: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, d| {
                let m = objects.matrix(a)?;
                let cv = objects.vector(c)?;
                d.resize(m.cols(), 0.0);
                m.matvec_transposed_into(objects.vector(y)?, d)?;
                if cv.len() != d.len() {
                    return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                        context: format!("pricing: c {} vs AtY {}", cv.len(), d.len()),
                    }));
                }
                for (di, ci) in d.iter_mut().zip(cv.iter()) {
                    *di = ci - *di;
                }
                Ok((m.rows(), m.cols()))
            },
            |dev, (rows, cols)| {
                dev.charge_dense_kernel(
                    "pricing",
                    flops::gemv(rows, cols) + cols as f64,
                    (rows * cols * 8) as f64,
                    stream,
                )
            },
        )
    }

    /// Device reduction: index and value of the minimum entry of `v` among
    /// positions where `mask` is nonzero. Returns `None` if the mask is
    /// empty. Charges one kernel plus a 16-byte D2H scalar readback.
    pub fn argmin_masked(
        &mut self,
        v: VectorHandle,
        mask: VectorHandle,
        stream: StreamId,
    ) -> Result<Option<(usize, f64)>> {
        let result = {
            let vv = self.objects.vector(v)?;
            let mm = self.objects.vector(mask)?;
            if vv.len() != mm.len() {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: format!("argmin_masked: {} vs {}", vv.len(), mm.len()),
                }));
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, (&x, &m)) in vv.iter().zip(mm.iter()).enumerate() {
                if m != 0.0 && best.is_none_or(|(_, b)| x < b) {
                    best = Some((i, x));
                }
            }
            best
        };
        let n = self.objects.vector(v)?.len();
        self.charge_dense_kernel("argmin_masked", n as f64, (2 * n * 8) as f64, stream);
        self.charge_d2h(16, stream);
        Ok(result)
    }

    /// Reads `N` elements of device vectors, `at[k] = (vector, index)`, in
    /// one scalar readback (a single D2H transfer of `8·N` bytes). Nothing
    /// is charged unless every position exists.
    pub fn vec_get<const N: usize>(
        &mut self,
        at: [(VectorHandle, usize); N],
        stream: StreamId,
    ) -> Result<[f64; N]> {
        let mut out = [0.0; N];
        for (o, (h, idx)) in out.iter_mut().zip(at) {
            let v = self.objects.vector(h)?;
            *o = *v.get(idx).ok_or_else(|| out_of_bounds(idx, v.len()))?;
        }
        self.charge_d2h(8 * N, stream);
        Ok(out)
    }

    /// Checks that every [`ScalarWrite`] of `writes` names an element of a
    /// live vector — before the kernel carrying them mutates anything.
    fn check_writes(&self, writes: &[ScalarWrite]) -> Result<()> {
        for &(h, idx, _) in writes {
            let len = self.objects.vector(h)?.len();
            if idx >= len {
                return Err(out_of_bounds(idx, len));
            }
        }
        Ok(())
    }

    /// Appends a cut to a device matrix **from the host** (the Section 5.2
    /// cut-incorporation path: generated on CPU, shipped H2D, spliced in by
    /// device kernels). `row` spans the current columns and `col`, the cut's
    /// slack column, the grown row count; both cross the link in one staged
    /// transfer and each is spliced in by its own kernel. A cut of the wrong
    /// shape, or one the device has no room for, is refused before anything
    /// is charged or changed.
    pub fn append_cut(
        &mut self,
        h: MatrixHandle,
        row: &[f64],
        col: &[f64],
        stream: StreamId,
    ) -> Result<()> {
        let m = self.objects.matrix(h)?;
        if row.len() != m.cols() || col.len() != m.rows() + 1 {
            return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                context: format!(
                    "append_cut: row {} col {} onto {}x{}",
                    row.len(),
                    col.len(),
                    m.rows(),
                    m.cols()
                ),
            }));
        }
        // Room for both or for neither: a cut is never half appended.
        let (row_bytes, col_bytes) = (std::mem::size_of_val(row), std::mem::size_of_val(col));
        self.mem.alloc(row_bytes)?;
        if let Err(e) = self.mem.alloc(col_bytes) {
            self.mem.free(row_bytes);
            return Err(e.into());
        }
        self.charge_h2d(row_bytes + col_bytes, stream);
        self.charge_dense_kernel("append_row", 0.0, row_bytes as f64, stream);
        self.charge_dense_kernel("append_column", 0.0, col_bytes as f64, stream);
        let Some((Obj::Matrix(m), bytes)) = self.objects.get_mut(h.0) else {
            return Err(GpuError::InvalidHandle(h.0));
        };
        m.push_row(row)?;
        m.push_col(col)?;
        *bytes += row_bytes + col_bytes;
        Ok(())
    }

    /// Copies column `j` of a device matrix into resident vector `out`
    /// (memory-bound kernel, no host transfer).
    pub fn extract_column(
        &mut self,
        h: MatrixHandle,
        j: usize,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, col| {
                let m = objects.matrix(h)?;
                if j >= m.cols() {
                    return Err(GpuError::Linalg(LinalgError::OutOfBounds {
                        index: j,
                        bound: m.cols(),
                    }));
                }
                col.resize(m.rows(), 0.0);
                m.col_into(j, col);
                Ok(col.len() * 8)
            },
            |dev, bytes| dev.charge_dense_kernel("extract_column", 0.0, (2 * bytes) as f64, stream),
        )
    }

    /// Fused residual kernel `out = b − A x`, all device-resident (used to
    /// recompute basic values after a basis install without any transfer).
    pub fn residual(
        &mut self,
        b: VectorHandle,
        a: MatrixHandle,
        x: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, r| {
                let m = objects.matrix(a)?;
                let bv = objects.vector(b)?;
                r.resize(m.rows(), 0.0);
                m.matvec_into(objects.vector(x)?, r)?;
                if bv.len() != r.len() {
                    return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                        context: format!("residual: b {} vs Ax {}", bv.len(), r.len()),
                    }));
                }
                for (ri, bi) in r.iter_mut().zip(bv.iter()) {
                    *ri = bi - *ri;
                }
                Ok((m.rows(), m.cols()))
            },
            |dev, (rows, cols)| {
                dev.charge_dense_kernel(
                    "residual",
                    flops::gemv(rows, cols) + rows as f64,
                    (rows * cols * 8) as f64,
                    stream,
                )
            },
        )
    }

    /// Elementwise product `out = a ⊙ b` (used to score pricing candidates
    /// by status sign before the argmin reduction).
    pub fn vec_mul(
        &mut self,
        a: VectorHandle,
        b: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, c| {
                let av = objects.vector(a)?;
                let bv = objects.vector(b)?;
                if av.len() != bv.len() {
                    return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                        context: format!("vec_mul: {} vs {}", av.len(), bv.len()),
                    }));
                }
                c.clear();
                c.extend(av.iter().zip(bv.iter()).map(|(x, y)| x * y));
                Ok(c.len())
            },
            |dev, n| dev.charge_dense_kernel("vec_mul", n as f64, (3 * n * 8) as f64, stream),
        )
    }

    /// Writes the unit vector `e_r` of length `n` into resident vector
    /// `out`, directly on the device (no host transfer — used by the dual
    /// simplex to form BTRAN rows).
    pub fn alloc_unit_vector(
        &mut self,
        n: usize,
        r: usize,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        if r >= n {
            return Err(GpuError::Linalg(LinalgError::OutOfBounds {
                index: r,
                bound: n,
            }));
        }
        self.write_vector(
            out,
            |_, _, v| {
                v.clear();
                v.resize(n, 0.0);
                v[r] = 1.0;
                Ok(())
            },
            |dev, ()| dev.charge_dense_kernel("alloc_unit_vector", 0.0, (n * 8) as f64, stream),
        )
    }

    /// Fused bounded-variable primal ratio-test kernel.
    ///
    /// With effective column `α_eff = dir · α`, finds over basic positions
    /// `i` the smallest step `t ≥ 0` at which a basic variable hits a bound:
    ///
    /// * `α_eff[i] >  tol`: variable falls to its lower bound at
    ///   `t = (xb[i] − lbb[i]) / α_eff[i]`;
    /// * `α_eff[i] < −tol`: variable rises to its upper bound at
    ///   `t = (xb[i] − ubb[i]) / α_eff[i]`.
    ///
    /// Returns `(row, t, leaves_at_upper)` or `None` when no basic variable
    /// limits the step (unbounded direction / bound-flip only). Negative
    /// ratios from degenerate positions are clamped to zero. One kernel plus
    /// a scalar readback.
    #[allow(clippy::too_many_arguments)]
    pub fn ratio_test_bounded(
        &mut self,
        xb: VectorHandle,
        alpha: VectorHandle,
        lbb: VectorHandle,
        ubb: VectorHandle,
        dir: f64,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64, bool)>> {
        let result = {
            let x = self.objects.vector(xb)?;
            let a = self.objects.vector(alpha)?;
            let lb = self.objects.vector(lbb)?;
            let ub = self.objects.vector(ubb)?;
            let m = x.len();
            if a.len() != m || lb.len() != m || ub.len() != m {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: "ratio_test_bounded: vector lengths".into(),
                }));
            }
            let mut best: Option<(usize, f64, bool)> = None;
            for i in 0..m {
                let ae = dir * a[i];
                let (t, upper) = if ae > tol {
                    if lb[i].is_infinite() {
                        continue;
                    }
                    (((x[i] - lb[i]) / ae).max(0.0), false)
                } else if ae < -tol {
                    if ub[i].is_infinite() {
                        continue;
                    }
                    (((x[i] - ub[i]) / ae).max(0.0), true)
                } else {
                    continue;
                };
                if best.is_none_or(|(_, bt, _)| t < bt - 1e-12) {
                    best = Some((i, t, upper));
                }
            }
            best
        };
        let m = self.objects.vector(xb)?.len();
        self.charge_dense_kernel(
            "ratio_test_bounded",
            (4 * m) as f64,
            (4 * m * 8) as f64,
            stream,
        );
        self.charge_d2h(24, stream);
        Ok(result)
    }

    /// Fused basic-solution update: `xb ← xb − dir·t·α`, then the scalar
    /// stores of `writes` in list order — what a pivot changes besides the
    /// step (the entering variable's value in the leaving slot, the two
    /// statuses, the entering column's cost and bounds in the basis-ordered
    /// vectors). The stores are launch arguments: one kernel, no transfer,
    /// and nothing is touched unless every one of them is in range.
    pub fn basic_step(
        &mut self,
        xb: VectorHandle,
        alpha: VectorHandle,
        dir: f64,
        t: f64,
        writes: &[ScalarWrite],
        stream: StreamId,
    ) -> Result<()> {
        let alen = self.objects.vector(alpha)?.len();
        let xlen = self.objects.vector(xb)?.len();
        if alen != xlen {
            return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                context: format!("basic_step: {xlen} vs {alen}"),
            }));
        }
        self.check_writes(writes)?;
        self.work.clear();
        self.work.extend_from_slice(self.objects.vector(alpha)?);
        let n = self.work.len();
        let x = self.objects.vector_mut(xb)?;
        for (xi, ai) in x.iter_mut().zip(self.work.iter()) {
            *xi -= dir * t * ai;
        }
        for &(h, idx, value) in writes {
            self.objects.vector_mut(h)?[idx] = value;
        }
        self.charge_dense_kernel("basic_step", (2 * n) as f64, (2 * n * 8) as f64, stream);
        Ok(())
    }

    /// Fused primal-infeasibility reduction for the dual simplex: over basic
    /// positions, finds the largest bound violation of `xb` against
    /// `[lbb, ubb]`. Returns `(row, violation, below_lower)` or `None` when
    /// primal-feasible. One kernel plus a scalar readback.
    pub fn primal_infeas_argmax(
        &mut self,
        xb: VectorHandle,
        lbb: VectorHandle,
        ubb: VectorHandle,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64, bool)>> {
        let result = {
            let x = self.objects.vector(xb)?;
            let lb = self.objects.vector(lbb)?;
            let ub = self.objects.vector(ubb)?;
            if lb.len() != x.len() || ub.len() != x.len() {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: "primal_infeas_argmax: vector lengths".into(),
                }));
            }
            let mut best: Option<(usize, f64, bool)> = None;
            for i in 0..x.len() {
                let (viol, below) = if x[i] < lb[i] - tol {
                    (lb[i] - x[i], true)
                } else if x[i] > ub[i] + tol {
                    (x[i] - ub[i], false)
                } else {
                    continue;
                };
                if best.is_none_or(|(_, bv, _)| viol > bv) {
                    best = Some((i, viol, below));
                }
            }
            best
        };
        let m = self.objects.vector(xb)?.len();
        self.charge_dense_kernel(
            "primal_infeas_argmax",
            (2 * m) as f64,
            (3 * m * 8) as f64,
            stream,
        );
        self.charge_d2h(24, stream);
        Ok(result)
    }

    /// Fused dual ratio-test kernel.
    ///
    /// `d` are reduced costs, `alpha_r` the BTRAN row, and `sigma` the status
    /// vector (−1 at lower bound, +1 at upper bound, 0 basic). When the
    /// leaving variable violates its **lower** bound (`leaving_below`),
    /// eligible entering candidates are at-lower with `alpha_r < −tol` or
    /// at-upper with `alpha_r > tol`; the signs flip otherwise. Minimizes
    /// `|d_j / alpha_r[j]|`. Returns `(col, |ratio|)` or `None` (dual
    /// unbounded ⇒ primal infeasible). One kernel plus a scalar readback.
    pub fn dual_ratio_argmin(
        &mut self,
        d: VectorHandle,
        alpha_r: VectorHandle,
        sigma: VectorHandle,
        leaving_below: bool,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64)>> {
        let result = {
            let dv = self.objects.vector(d)?;
            let av = self.objects.vector(alpha_r)?;
            let sv = self.objects.vector(sigma)?;
            if av.len() != dv.len() || sv.len() != dv.len() {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: "dual_ratio_argmin: vector lengths".into(),
                }));
            }
            let mut best: Option<(usize, f64)> = None;
            for j in 0..dv.len() {
                let eligible = match (sv[j], leaving_below) {
                    (s, true) if s < 0.0 => av[j] < -tol,
                    (s, true) if s > 0.0 => av[j] > tol,
                    (s, false) if s < 0.0 => av[j] > tol,
                    (s, false) if s > 0.0 => av[j] < -tol,
                    _ => false,
                };
                if !eligible {
                    continue;
                }
                let ratio = (dv[j] / av[j]).abs();
                if best.is_none_or(|(_, br)| ratio < br - 1e-12) {
                    best = Some((j, ratio));
                }
            }
            best
        };
        let n = self.objects.vector(d)?.len();
        self.charge_dense_kernel(
            "dual_ratio_argmin",
            (3 * n) as f64,
            (3 * n * 8) as f64,
            stream,
        );
        self.charge_d2h(16, stream);
        Ok(result)
    }

    /// Fused Devex pricing kernel: over eligible columns (σ_j ≠ 0 and
    /// σ_j·d_j < −tol), maximizes the Devex merit `d_j² / γ_j`; returns the
    /// winner's index and its σ·d score (compatible with the Dantzig
    /// kernel's contract). One kernel + a 16-byte readback.
    pub fn devex_argmax(
        &mut self,
        d: VectorHandle,
        sigma: VectorHandle,
        gamma: VectorHandle,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64)>> {
        let result = {
            let dv = self.objects.vector(d)?;
            let sv = self.objects.vector(sigma)?;
            let gv = self.objects.vector(gamma)?;
            if sv.len() != dv.len() || gv.len() != dv.len() {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: "devex_argmax: vector lengths".into(),
                }));
            }
            let mut best: Option<(usize, f64, f64)> = None; // (j, merit, sigma_d)
            for j in 0..dv.len() {
                if sv[j] == 0.0 {
                    continue;
                }
                let sd = sv[j] * dv[j];
                if sd >= -tol {
                    continue;
                }
                let merit = dv[j] * dv[j] / gv[j].max(1e-12);
                if best.is_none_or(|(_, bm, _)| merit > bm) {
                    best = Some((j, merit, sd));
                }
            }
            best.map(|(j, _, sd)| (j, sd))
        };
        let n = self.objects.vector(d)?.len();
        self.charge_dense_kernel("devex_argmax", (3 * n) as f64, (3 * n * 8) as f64, stream);
        self.charge_d2h(16, stream);
        Ok(result)
    }

    /// Devex reference-weight update after a pivot: for every column,
    /// `γ_j ← max(γ_j, (α_r[j]/α_rq)² · γ_q)`, then `γ_q` is re-anchored in
    /// the leaving variable's slot, `γ[leaving] = max(γ_q / α_rq², 1)`. One
    /// elementwise kernel, no transfer: `α_rq`, `γ_q` and `leaving` are
    /// launch arguments.
    pub fn devex_weight_update(
        &mut self,
        gamma: VectorHandle,
        alpha_r: VectorHandle,
        alpha_rq: f64,
        gamma_q: f64,
        leaving: usize,
        stream: StreamId,
    ) -> Result<()> {
        let glen = self.objects.vector(gamma)?.len();
        let alen = self.objects.vector(alpha_r)?.len();
        if glen != alen {
            return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                context: format!("devex_weight_update: {glen} vs {alen}"),
            }));
        }
        if leaving >= glen {
            return Err(out_of_bounds(leaving, glen));
        }
        if alpha_rq.abs() < 1e-12 {
            return Err(GpuError::Linalg(LinalgError::Singular { column: 0 }));
        }
        self.work.clear();
        self.work.extend_from_slice(self.objects.vector(alpha_r)?);
        let n = self.work.len();
        let g = self.objects.vector_mut(gamma)?;
        for (gj, arj) in g.iter_mut().zip(self.work.iter()) {
            let ratio = arj / alpha_rq;
            let cand = ratio * ratio * gamma_q;
            if cand > *gj {
                *gj = cand;
            }
        }
        g[leaving] = (gamma_q / (alpha_rq * alpha_rq)).max(1.0);
        self.charge_dense_kernel(
            "devex_weight_update",
            (3 * n) as f64,
            (2 * n * 8) as f64,
            stream,
        );
        Ok(())
    }

    // ---- eta-file (PFI) kernels: Section 5.1's rank-1 update path ----

    /// Creates a resident eta file with no tenant: a handle and host storage
    /// that [`eta_factor`](Self::eta_factor) factorizes into, install after
    /// install. It owns no modelled byte until then.
    pub fn vacant_eta(&mut self) -> EtaHandle {
        EtaHandle(self.objects.insert(Obj::Eta(Box::default()), 0, false))
    }

    /// Basis install on the device: gathers columns `cols` of matrix `a`
    /// (no host transfer — this is how the simplex assembles the basis `B`
    /// from the constraint matrix without leaving the device) and
    /// LU-factorizes them, in the storage of resident eta file `eta`, whose
    /// previous factors and eta updates are dropped.
    ///
    /// Modelled as the two kernels it fuses on the host: `gather_columns`
    /// materializes the basis block, `eta_factor` produces the factors and
    /// the block is released; a singular basis releases it too.
    pub fn eta_factor(
        &mut self,
        a: MatrixHandle,
        cols: &[usize],
        eta: EtaHandle,
        stream: StreamId,
    ) -> Result<()> {
        let src = self.objects.matrix(a)?;
        if let Some(&c) = cols.iter().find(|&&c| c >= src.cols()) {
            return Err(GpuError::Linalg(LinalgError::OutOfBounds {
                index: c,
                bound: src.cols(),
            }));
        }
        let n = src.rows();
        let gathered = n * cols.len() * 8;
        let factored = match self.objects.resident_with(eta.0, a.0) {
            Some((
                Resident {
                    obj: Obj::Eta(file),
                    live,
                    ..
                },
                Obj::Matrix(src),
            )) => {
                *live = false;
                file.refactorize_columns(src, cols)
            }
            _ => return Err(GpuError::InvalidHandle(eta.0)),
        };
        // Memory-bound device kernel: read + write the gathered block.
        self.charge_dense_kernel("gather_columns", 0.0, 2.0 * gathered as f64, stream);
        self.alloc(gathered)?;
        let tenant = factored.map_err(GpuError::from).and_then(|()| {
            self.charge_dense_kernel("eta_factor", flops::lu(n), gathered as f64, stream);
            // Account LU + headroom for eta growth (charged as it grows).
            self.alloc(gathered + n * 8)
        });
        self.mem.free(gathered);
        tenant?;
        if let Some(r) = self.objects.resident_mut(eta.0) {
            self.mem.free(std::mem::replace(r.bytes, gathered + n * 8));
            *r.live = true;
        }
        Ok(())
    }

    /// FTRAN through the eta file: solves `B out = b` with b device-resident.
    pub fn eta_ftran(
        &mut self,
        h: EtaHandle,
        b: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, x| {
                let file = objects.eta(h)?;
                x.resize(file.dim(), 0.0);
                file.ftran_into(objects.vector(b)?, x)?;
                Ok((file.dim(), file.eta_count()))
            },
            |dev, (n, k)| {
                dev.charge_dense_kernel(
                    "eta_ftran",
                    flops::lu_solve(n) + flops::eta_apply(k, n),
                    ((n * n + k * n) * 8) as f64,
                    stream,
                )
            },
        )
    }

    /// BTRAN through the eta file: solves `Bᵀ out = c`.
    pub fn eta_btran(
        &mut self,
        h: EtaHandle,
        c: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, work, y| {
                let file = objects.eta(h)?;
                y.resize(file.dim(), 0.0);
                work.resize(file.dim(), 0.0);
                file.btran_into(objects.vector(c)?, work, y)?;
                Ok((file.dim(), file.eta_count()))
            },
            |dev, (n, k)| {
                dev.charge_dense_kernel(
                    "eta_btran",
                    flops::lu_solve(n) + flops::eta_apply(k, n),
                    ((n * n + k * n) * 8) as f64,
                    stream,
                )
            },
        )
    }

    /// Applies a basis-exchange rank-1 update: position `leaving_pos` of the
    /// basis is replaced by the column whose FTRAN image is the device vector
    /// `alpha`. No host transfer — the paper's "rank-1 updates ... with no
    /// data transfer from host to device or vice versa".
    pub fn eta_update(
        &mut self,
        h: EtaHandle,
        leaving_pos: usize,
        alpha: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        let alpha_v = self.objects.vector(alpha)?;
        let n = alpha_v.len();
        let add_bytes = n * 8;
        self.mem.alloc(add_bytes)?;
        let updated = match self.objects.resident_with(h.0, alpha.0) {
            Some((
                Resident {
                    obj: Obj::Eta(file),
                    bytes,
                    live: &mut true,
                },
                Obj::Vector(alpha_v),
            )) => file
                .update(leaving_pos, alpha_v)
                .map(|()| *bytes += add_bytes)
                .map_err(GpuError::Linalg),
            _ => Err(GpuError::InvalidHandle(h.0)),
        };
        if updated.is_err() {
            self.mem.free(add_bytes);
        }
        updated?;
        // A small device-side kernel appends the eta column.
        self.charge_dense_kernel("eta_update", n as f64, add_bytes as f64, stream);
        Ok(())
    }

    /// Refactorizes the eta file from a device basis matrix, clearing the
    /// accumulated etas (periodic refactorization).
    pub fn eta_refactorize(
        &mut self,
        h: EtaHandle,
        basis: MatrixHandle,
        stream: StreamId,
    ) -> Result<()> {
        let n = match self.objects.resident_with(h.0, basis.0) {
            Some((
                Resident {
                    obj: Obj::Eta(file),
                    bytes,
                    live,
                },
                Obj::Matrix(m),
            )) => {
                *live = false;
                file.refactorize(m)?;
                *live = true;
                // Shrink accounting back to the base factorization size.
                let new_bytes = m.size_bytes() + m.rows() * 8;
                if *bytes > new_bytes {
                    self.mem.free(*bytes - new_bytes);
                }
                *bytes = new_bytes;
                m.rows()
            }
            _ => return Err(GpuError::InvalidHandle(h.0)),
        };
        self.charge_dense_kernel("eta_refactorize", flops::lu(n), (n * n * 8) as f64, stream);
        Ok(())
    }

    // ---- sparse kernels (Section 5.4's second code path) ----

    /// Sparse matrix–vector product `y = A x`.
    pub fn spmv(
        &mut self,
        a: SparseHandle,
        x: VectorHandle,
        stream: StreamId,
    ) -> Result<VectorHandle> {
        let m = self.objects.sparse(a)?;
        let v = self.objects.vector(x)?;
        let nnz = m.nnz();
        let mut y = self.pool.take(m.rows());
        m.matvec_into(v, &mut y)?;
        self.charge_sparse_kernel("spmv", flops::spmv(nnz), (nnz * 16) as f64, stream);
        self.insert_vector(y)
    }

    /// Transposed sparse product `out = Aᵀ x`.
    pub fn spmv_transposed(
        &mut self,
        a: SparseHandle,
        x: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, y| {
                let m = objects.sparse(a)?;
                y.resize(m.cols(), 0.0);
                m.matvec_transposed_into(objects.vector(x)?, y)?;
                Ok(m.nnz())
            },
            |dev, nnz| {
                dev.charge_sparse_kernel(
                    "spmv_transposed",
                    flops::spmv(nnz),
                    (nnz * 16) as f64,
                    stream,
                )
            },
        )
    }

    /// Sparse LU factorization (GLU-class kernel; charged at the sparse
    /// throughput, which is what makes the dense path win at high density).
    pub fn sparse_lu_factor(
        &mut self,
        a: SparseHandle,
        stream: StreamId,
    ) -> Result<SparseFactorHandle> {
        let f = {
            let m = self.objects.sparse(a)?;
            SparseLu::factorize(&m.to_csc())?
        };
        let fill = f.fill_nnz();
        self.charge_sparse_kernel(
            "sparse_lu_factor",
            flops::sparse_lu(fill),
            (fill * 16) as f64,
            stream,
        );
        let bytes = fill * 16;
        let id = self.insert(Obj::SparseFactors(Box::new(f)), bytes)?;
        Ok(SparseFactorHandle(id))
    }

    /// Solves through sparse LU factors, device-resident rhs.
    pub fn sparse_solve(
        &mut self,
        f: SparseFactorHandle,
        b: VectorHandle,
        stream: StreamId,
    ) -> Result<VectorHandle> {
        let fac = self.objects.sparse_factors(f)?;
        let rhs = self.objects.vector(b)?;
        let fill = fac.fill_nnz();
        let mut x = self.pool.take(fac.dim());
        fac.solve_into(rhs, &mut x)?;
        self.charge_sparse_kernel(
            "sparse_solve",
            flops::spmv(fill),
            (fill * 16) as f64,
            stream,
        );
        self.insert_vector(x)
    }

    // ---- sparse-path kernels (Section 5.4's second code path) ----

    /// Extracts column `j` of a device CSR matrix into resident dense
    /// vector `out` (sparse gather kernel; no host transfer).
    pub fn extract_column_sparse(
        &mut self,
        a: SparseHandle,
        j: usize,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, col| {
                let m = objects.sparse(a)?;
                if j >= m.cols() {
                    return Err(GpuError::Linalg(LinalgError::OutOfBounds {
                        index: j,
                        bound: m.cols(),
                    }));
                }
                col.clear();
                col.extend((0..m.rows()).map(|i| m.get(i, j)));
                Ok(col.len())
            },
            |dev, rows| {
                dev.charge_sparse_kernel(
                    "extract_column_sparse",
                    rows as f64,
                    (2 * rows * 8) as f64,
                    stream,
                )
            },
        )
    }

    /// Fused sparse pricing kernel: reduced costs `out = c − Aᵀ y` with `A`
    /// in CSR — the sparse path's analogue of [`Self::pricing`], charged at
    /// sparse throughput over `nnz` instead of dense throughput over `m·n`.
    pub fn pricing_sparse(
        &mut self,
        a: SparseHandle,
        y: VectorHandle,
        c: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, d| {
                let m = objects.sparse(a)?;
                let cv = objects.vector(c)?;
                d.resize(m.cols(), 0.0);
                m.matvec_transposed_into(objects.vector(y)?, d)?;
                if cv.len() != d.len() {
                    return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                        context: format!("pricing_sparse: c {} vs AtY {}", cv.len(), d.len()),
                    }));
                }
                for (di, ci) in d.iter_mut().zip(cv.iter()) {
                    *di = ci - *di;
                }
                Ok((m.nnz(), d.len()))
            },
            |dev, (nnz, cols)| {
                dev.charge_sparse_kernel(
                    "pricing_sparse",
                    flops::spmv(nnz) + cols as f64,
                    (nnz * 16) as f64,
                    stream,
                )
            },
        )
    }

    /// Fused sparse residual kernel `out = b − A x` (CSR).
    pub fn residual_sparse(
        &mut self,
        b: VectorHandle,
        a: SparseHandle,
        x: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, r| {
                let m = objects.sparse(a)?;
                let bv = objects.vector(b)?;
                r.resize(m.rows(), 0.0);
                m.matvec_into(objects.vector(x)?, r)?;
                if bv.len() != r.len() {
                    return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                        context: format!("residual_sparse: b {} vs Ax {}", bv.len(), r.len()),
                    }));
                }
                for (ri, bi) in r.iter_mut().zip(bv.iter()) {
                    *ri = bi - *ri;
                }
                Ok((m.nnz(), r.len()))
            },
            |dev, (nnz, rows)| {
                dev.charge_sparse_kernel(
                    "residual_sparse",
                    flops::spmv(nnz) + rows as f64,
                    (nnz * 16) as f64,
                    stream,
                )
            },
        )
    }

    /// Creates a resident sparse eta file with no tenant, for
    /// [`sparse_eta_factor`](Self::sparse_eta_factor) to factorize into.
    pub fn vacant_sparse_eta(&mut self) -> SparseEtaHandle {
        SparseEtaHandle(
            self.objects
                .insert(Obj::SparseEta(Box::default()), 0, false),
        )
    }

    /// Gathers basis columns from a CSR matrix and sparse-LU-factorizes
    /// them into resident sparse eta file `eta`, whose previous factors and
    /// eta updates are dropped (the sparse path's basis install: gather +
    /// GLU-class factorization in one fused device operation).
    pub fn sparse_eta_factor(
        &mut self,
        a: SparseHandle,
        cols: &[usize],
        eta: SparseEtaHandle,
        stream: StreamId,
    ) -> Result<()> {
        let fill = match self.objects.resident_with(eta.0, a.0) {
            Some((
                Resident {
                    obj: Obj::SparseEta(file),
                    live,
                    ..
                },
                Obj::Sparse(m),
            )) => {
                *live = false;
                file.refactorize(&m.to_csc().select_columns(cols)?)?;
                file.fill_nnz()
            }
            _ => return Err(GpuError::InvalidHandle(eta.0)),
        };
        // Gather traffic + factorization work, all at sparse throughput.
        self.charge_sparse_kernel(
            "sparse_eta_factor",
            flops::sparse_lu(fill),
            (fill * 16) as f64,
            stream,
        );
        let tenant = fill * 16 + cols.len() * 8;
        self.alloc(tenant)?;
        if let Some(r) = self.objects.resident_mut(eta.0) {
            self.mem.free(std::mem::replace(r.bytes, tenant));
            *r.live = true;
        }
        Ok(())
    }

    /// FTRAN through a sparse eta file.
    pub fn sparse_eta_ftran(
        &mut self,
        h: SparseEtaHandle,
        b: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, x| {
                let file = objects.sparse_eta(h)?;
                x.resize(file.dim(), 0.0);
                file.ftran_into(objects.vector(b)?, x)?;
                Ok((file.dim(), file.eta_count(), file.fill_nnz()))
            },
            |dev, (n, k, fill)| {
                dev.charge_sparse_kernel(
                    "sparse_eta_ftran",
                    flops::spmv(fill) + flops::eta_apply(k, n),
                    (fill * 16 + k * n * 8) as f64,
                    stream,
                )
            },
        )
    }

    /// BTRAN through a sparse eta file.
    pub fn sparse_eta_btran(
        &mut self,
        h: SparseEtaHandle,
        c: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, work, y| {
                let file = objects.sparse_eta(h)?;
                y.resize(file.dim(), 0.0);
                work.resize(file.dim(), 0.0);
                file.btran_into(objects.vector(c)?, work, y)?;
                Ok((file.dim(), file.eta_count(), file.fill_nnz()))
            },
            |dev, (n, k, fill)| {
                dev.charge_sparse_kernel(
                    "sparse_eta_btran",
                    flops::spmv(fill) + flops::eta_apply(k, n),
                    (fill * 16 + k * n * 8) as f64,
                    stream,
                )
            },
        )
    }

    /// Rank-1 basis update on a sparse eta file (no host transfer).
    pub fn sparse_eta_update(
        &mut self,
        h: SparseEtaHandle,
        leaving_pos: usize,
        alpha: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        let alpha_v = self.objects.vector(alpha)?;
        let n = alpha_v.len();
        let add_bytes = n * 8;
        self.mem.alloc(add_bytes)?;
        let updated = match self.objects.resident_with(h.0, alpha.0) {
            Some((
                Resident {
                    obj: Obj::SparseEta(file),
                    bytes,
                    live: &mut true,
                },
                Obj::Vector(alpha_v),
            )) => file
                .update(leaving_pos, alpha_v)
                .map(|()| *bytes += add_bytes)
                .map_err(GpuError::Linalg),
            _ => Err(GpuError::InvalidHandle(h.0)),
        };
        if updated.is_err() {
            self.mem.free(add_bytes);
        }
        updated?;
        self.charge_dense_kernel("sparse_eta_update", n as f64, add_bytes as f64, stream);
        Ok(())
    }

    /// Appends a cut row to a device CSR matrix, growing the column count
    /// for the cut's slack (H2D transfer of the sparse row, Section 5.2).
    pub fn append_row_sparse(
        &mut self,
        h: SparseHandle,
        entries: &[(usize, f64)],
        new_cols: usize,
        stream: StreamId,
    ) -> Result<()> {
        let add_bytes = entries.len() * 16 + 8;
        self.charge_h2d(add_bytes, stream);
        self.charge_sparse_kernel("append_row_sparse", 0.0, add_bytes as f64, stream);
        self.mem.alloc(add_bytes)?;
        match self.objects.get_mut(h.0) {
            Some((Obj::Sparse(m), bytes)) => {
                m.push_row_grow(entries, new_cols)
                    .map_err(GpuError::Linalg)?;
                *bytes += add_bytes;
                Ok(())
            }
            _ => {
                self.mem.free(add_bytes);
                Err(GpuError::InvalidHandle(h.0))
            }
        }
    }

    // ---- batched kernels (Sections 4.3, 5.5) ----

    /// One **fused** batched launch of a wave-kernel class: `per_lane`
    /// carries the `(flops, bytes)` of each active lane's instance of the
    /// kernel. The batch pays a single launch latency; execution time is
    /// the [`CostModel::batched_kernel_ns`] wave model over the worst
    /// per-lane roofline, and the flop ledger accrues the per-lane sum —
    /// the Rennich-style amortization of Section 4.3 applied to the
    /// lockstep node-LP wave of Section 5.5. Returns the charged ns.
    pub fn batched_wave_kernel(
        &mut self,
        name: &'static str,
        per_lane: &[(f64, f64)],
        stream: StreamId,
    ) -> f64 {
        let rate = self.cost.dense_flops_per_ns;
        self.batched_wave_kernel_at(name, per_lane.iter().copied(), stream, rate)
    }

    /// [`Self::batched_wave_kernel`] (`sparse`: [`_sparse`]) for a class
    /// whose `lanes` instances all cost the same `(flops, bytes)`: charge,
    /// ledger and trace event are bit for bit those of a `lanes`-long slice
    /// of that pair, which the caller no longer has to keep.
    ///
    /// [`_sparse`]: Self::batched_wave_kernel_sparse
    pub fn batched_wave_kernel_uniform(
        &mut self,
        name: &'static str,
        lanes: usize,
        per_lane: (f64, f64),
        sparse: bool,
        stream: StreamId,
    ) -> f64 {
        let rate = if sparse {
            self.cost.sparse_flops_per_ns
        } else {
            self.cost.dense_flops_per_ns
        };
        self.batched_wave_kernel_at(name, std::iter::repeat_n(per_lane, lanes), stream, rate)
    }

    /// Shared body of the dense/sparse fused wave launches, parameterized
    /// by the flop throughput the per-lane roofline charges against.
    fn batched_wave_kernel_at(
        &mut self,
        name: &'static str,
        per_lane: impl ExactSizeIterator<Item = (f64, f64)> + Clone,
        stream: StreamId,
        flops_per_ns: f64,
    ) -> f64 {
        let batch = per_lane.len();
        if batch == 0 {
            return 0.0;
        }
        let per_op_ns = per_lane
            .clone()
            .map(|(fl, by)| self.cost.body_ns(fl, by, flops_per_ns))
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

    /// One fused batched launch of a **sparse** wave-kernel class: same
    /// wave model as [`Self::batched_wave_kernel`], but per-lane flops are
    /// charged at the device's sparse throughput (irregular gather/scatter
    /// access, Section 5.4) instead of the dense rate. This is the launch
    /// shape of the first-order engine's `fo.spmv` / `fo.spmv_t` classes,
    /// whose cost is proportional to `nnz` rather than to basis size.
    /// Returns the charged ns.
    pub fn batched_wave_kernel_sparse(
        &mut self,
        name: &'static str,
        per_lane: &[(f64, f64)],
        stream: StreamId,
    ) -> f64 {
        let rate = self.cost.sparse_flops_per_ns;
        self.batched_wave_kernel_at(name, per_lane.iter().copied(), stream, rate)
    }

    /// Batched factor-and-solve: one launch covering `systems.len()`
    /// independent small dense systems already resident on the device.
    /// Results are new device vectors, one per system.
    pub fn batched_lu_solve(
        &mut self,
        systems: &[(MatrixHandle, VectorHandle)],
        stream: StreamId,
    ) -> Result<Vec<VectorHandle>> {
        if systems.is_empty() {
            return Ok(Vec::new());
        }
        let mut mats = Vec::with_capacity(systems.len());
        let mut rhs = Vec::with_capacity(systems.len());
        for &(mh, vh) in systems {
            mats.push(self.objects.matrix(mh)?.clone());
            rhs.push(self.objects.vector(vh)?.clone());
        }
        let xs = lbatch::lu_factor_solve_batch(&mats, &rhs);
        // Per-problem execution time without launch latency; the batch pays
        // one launch and runs problems `concurrency` at a time.
        let per_op_ns = mats
            .iter()
            .map(|m| {
                let n = m.rows();
                (flops::lu(n) + flops::lu_solve(n)) / self.cost.dense_flops_per_ns
            })
            .fold(0.0, f64::max);
        let t = self.cost.batched_kernel_ns(mats.len(), per_op_ns);
        let done = self.launch(stream, t);
        let batch_flops = mats
            .iter()
            .map(|m| flops::lu(m.rows()) + flops::lu_solve(m.rows()))
            .sum::<f64>();
        self.ledger.incr(Series::KernelLaunches, 1.0);
        self.ledger.incr(Series::KernelNs, t);
        self.ledger.incr(Series::KernelFlops, batch_flops);
        let track = self.track;
        let batch = mats.len();
        gmip_trace::record(|| {
            Event::complete(
                Track {
                    group: track,
                    lane: stream as u32,
                },
                "batched_lu_solve",
                done - t,
                t,
            )
            .arg("batch", batch)
        });
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            out.push(self.insert_vector(x.map_err(GpuError::Linalg)?)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_gpu() -> GpuDevice {
        GpuDevice::new(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: 1 << 20,
            streams: 1,
        })
    }

    fn test_matrix() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 1.0],
            vec![4.0, -6.0, 0.0],
            vec![-2.0, 7.0, 2.0],
        ])
        .unwrap()
    }

    /// The device's copy of a matrix, read without charging a transfer.
    fn resident(dev: &GpuDevice, h: MatrixHandle) -> Result<DenseMatrix> {
        dev.objects.matrix(h).cloned()
    }

    #[test]
    fn upload_download_roundtrip_charges_transfers() {
        let mut dev = small_gpu();
        let m = test_matrix();
        let h = dev.upload_matrix(&m, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.stats().h2d_transfers, 1);
        assert_eq!(dev.stats().h2d_bytes, 72);
        assert_eq!(resident(&dev, h).unwrap(), m);
        let v = dev.upload_vector(m.row(1), DEFAULT_STREAM).unwrap();
        assert_eq!(dev.download_vector(v, DEFAULT_STREAM).unwrap(), m.row(1));
        assert_eq!(dev.stats().d2h_transfers, 1);
        assert_eq!(dev.stats().d2h_bytes, 24);
        assert!(dev.elapsed_ns() > 0.0);
    }

    #[test]
    fn uniform_wave_charge_equals_the_slice_it_stands_for() {
        // Odd, non-integer costs: the repeated sum must round like the
        // slice's, not like `lanes * cost`.
        let pair = (1234.567, 89_012.345);
        for (lanes, sparse) in [(1usize, false), (7, true), (64, false), (257, true)] {
            let (mut by_slice, mut uniform) = (small_gpu(), small_gpu());
            let per_lane = vec![pair; lanes];
            let a = if sparse {
                by_slice.batched_wave_kernel_sparse("fo.spmv", &per_lane, DEFAULT_STREAM)
            } else {
                by_slice.batched_wave_kernel("fo.axpy", &per_lane, DEFAULT_STREAM)
            };
            let b = uniform.batched_wave_kernel_uniform("k", lanes, pair, sparse, DEFAULT_STREAM);
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(by_slice.stats(), uniform.stats());
            assert_eq!(
                by_slice.stats().flops.to_bits(),
                uniform.stats().flops.to_bits()
            );
            assert_eq!(
                by_slice.elapsed_ns().to_bits(),
                uniform.elapsed_ns().to_bits()
            );
        }
        assert_eq!(
            small_gpu().batched_wave_kernel_uniform("k", 0, pair, false, DEFAULT_STREAM),
            0.0
        );
    }

    #[test]
    fn oom_on_small_device() {
        let mut dev = GpuDevice::new(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: 64,
            streams: 1,
        });
        let m = test_matrix(); // 72 bytes > 64
        assert!(matches!(
            dev.upload_matrix(&m, DEFAULT_STREAM),
            Err(GpuError::Oom(_))
        ));
    }

    #[test]
    fn free_releases_memory() {
        let mut dev = small_gpu();
        let h = dev.upload_matrix(&test_matrix(), DEFAULT_STREAM).unwrap();
        let used = dev.memory().used();
        dev.free_matrix(h).unwrap();
        assert_eq!(dev.memory().used(), used - 72);
        assert!(matches!(resident(&dev, h), Err(GpuError::InvalidHandle(_))));
        assert!(dev.free(h.0).is_err());
    }

    #[test]
    fn stale_and_wrong_typed_handles_are_invalid() {
        let mut dev = small_gpu();
        let v = dev.upload_vector(&[1.0, 2.0, 3.0], DEFAULT_STREAM).unwrap();
        let m = dev.upload_matrix(&test_matrix(), DEFAULT_STREAM).unwrap();
        // A handle of one type used as another: same id, wrong payload.
        assert_eq!(
            resident(&dev, MatrixHandle(v.0)),
            Err(GpuError::InvalidHandle(v.0))
        );
        assert_eq!(
            dev.download_vector(VectorHandle(m.0), DEFAULT_STREAM),
            Err(GpuError::InvalidHandle(m.0))
        );
        assert!(dev.lu_solve(FactorHandle(m.0), v, DEFAULT_STREAM).is_err());
        assert!(dev
            .eta_update(EtaHandle(v.0), 0, v, DEFAULT_STREAM)
            .is_err());
        assert!(dev
            .append_cut(MatrixHandle(v.0), &[1.0], &[1.0], DEFAULT_STREAM)
            .is_err());
        // Freed, then double-freed.
        dev.free_vector(v).unwrap();
        assert_eq!(dev.free_vector(v), Err(GpuError::InvalidHandle(v.0)));
        assert!(dev.vec_get([(v, 0)], DEFAULT_STREAM).is_err());
        // The slot's next tenant gets a new generation: the old handle stays
        // dead even though it names the same slot.
        let w = dev.upload_vector(&[9.0], DEFAULT_STREAM).unwrap();
        assert_eq!(w.0 as u32, v.0 as u32, "slot reused");
        assert_ne!(w, v);
        assert!(dev.vec_get([(v, 0)], DEFAULT_STREAM).is_err());
        assert_eq!(dev.vec_get([(w, 0)], DEFAULT_STREAM).unwrap(), [9.0]);
    }

    #[test]
    fn buffer_recycling_leaves_device_memory_accounting_alone() {
        let mut dev = small_gpu();
        let a = dev.upload_vector(&[1.0; 32], DEFAULT_STREAM).unwrap();
        let b = dev.upload_vector(&[2.0; 8], DEFAULT_STREAM).unwrap();
        assert_eq!(dev.memory().used(), 40 * 8);
        dev.free_vector(a).unwrap();
        assert_eq!(dev.pool_retained_bytes(), 32 * 8);
        // The copy lands in the recycled 32-element buffer but is modelled
        // as the 8-element vector it is.
        let c = dev.upload_vector(&[4.0; 8], DEFAULT_STREAM).unwrap();
        assert_eq!(dev.pool_retained_bytes(), 0);
        assert_eq!(dev.memory().used(), 16 * 8);
        assert_eq!(dev.memory().peak(), 40 * 8);
        assert_eq!(dev.memory().allocation_count(), 3);
        assert_eq!(
            dev.download_vector(c, DEFAULT_STREAM).unwrap(),
            vec![4.0; 8]
        );
        dev.free_vector(b).unwrap();
        assert_eq!(dev.pool_retained_bytes(), 8 * 8);
    }

    #[test]
    fn re_tenanting_is_an_allocation_then_a_release_and_creates_nothing() {
        let mut dev = small_gpu();
        let x = dev
            .upload_vector(&[1.0, -2.0, 3.0], DEFAULT_STREAM)
            .unwrap();
        let out = dev.vacant_vector();
        let created = dev.objects_created();
        // Vacant: no modelled byte, no readable tenant, not an allocation.
        assert_eq!(dev.memory().used(), 24);
        assert_eq!(dev.memory().allocation_count(), 1);
        assert!(dev.vec_get([(out, 0)], DEFAULT_STREAM).is_err());
        assert!(dev.vec_mul(out, x, out, DEFAULT_STREAM).is_err());

        // A result moves in: the ledger sees a 24-byte object appear.
        dev.vec_mul(x, x, out, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.memory().used(), 48);
        assert_eq!(dev.memory().allocation_count(), 2);
        assert_eq!(dev.vec_get([(out, 1)], DEFAULT_STREAM).unwrap(), [4.0]);
        // Superseded in place: the new tenant is allocated *before* the old
        // one is released, as when a kernel result replaced an object the
        // engine still held — 72 bytes for a moment, 56 after.
        dev.alloc_unit_vector(4, 3, out, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.memory().used(), 24 + 32);
        assert_eq!(dev.memory().peak(), 24 + 24 + 32);
        assert_eq!(
            dev.metrics().gauge(gmip_trace::names::GPU_MEM_PEAK_BYTES),
            80.0
        );
        assert_eq!(dev.memory().allocation_count(), 3);
        assert_eq!(
            dev.download_vector(out, DEFAULT_STREAM).unwrap(),
            vec![0.0, 0.0, 0.0, 1.0]
        );

        // Vacated: bytes back, reads refused, handle and storage kept.
        dev.vacate(out).unwrap();
        dev.vacate(out).unwrap();
        assert_eq!(dev.memory().used(), 24);
        assert!(dev.download_vector(out, DEFAULT_STREAM).is_err());
        // An output may not double as an input of the kernel writing it,
        // and a failed kernel leaves it unreadable but still accounted for.
        dev.upload_staged(&[(out, &[5.0, 6.0, 7.0])], DEFAULT_STREAM)
            .unwrap();
        assert!(dev.vec_mul(out, x, out, DEFAULT_STREAM).is_err());
        assert!(dev.vec_get([(out, 0)], DEFAULT_STREAM).is_err());
        assert_eq!(dev.memory().used(), 48);
        dev.vec_mul(x, x, out, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.memory().used(), 48);

        // A tenant that does not fit: the result is not readable, the
        // previous tenant's bytes stay accounted for.
        let mut tiny = GpuDevice::new(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: 40,
            streams: 1,
        });
        let y = tiny.upload_vector(&[1.0, 2.0], DEFAULT_STREAM).unwrap();
        let slot = tiny.vacant_vector();
        tiny.vec_mul(y, y, slot, DEFAULT_STREAM).unwrap();
        assert!(matches!(
            tiny.vec_mul(y, y, slot, DEFAULT_STREAM),
            Err(GpuError::Oom(_))
        ));
        assert_eq!(tiny.memory().used(), 32);
        assert!(tiny.vec_get([(slot, 0)], DEFAULT_STREAM).is_err());

        assert_eq!(dev.objects_created(), created);
        dev.free_vector(out).unwrap();
        assert_eq!(dev.memory().used(), 24);
    }

    #[test]
    fn device_lu_solves_system() {
        let mut dev = small_gpu();
        let a = test_matrix();
        let ah = dev.upload_matrix(&a, DEFAULT_STREAM).unwrap();
        let f = dev.lu_factor(ah, DEFAULT_STREAM).unwrap();
        let b = dev
            .upload_vector(&[5.0, -2.0, 9.0], DEFAULT_STREAM)
            .unwrap();
        let x = dev.lu_solve(f, b, DEFAULT_STREAM).unwrap();
        let xs = dev.download_vector(x, DEFAULT_STREAM).unwrap();
        let ax = a.matvec(&xs).unwrap();
        for (got, want) in ax.iter().zip(&[5.0, -2.0, 9.0]) {
            assert!((got - want).abs() < 1e-9);
        }
        assert!(dev.stats().kernel_launches >= 2);
    }

    #[test]
    fn pricing_and_argmin() {
        let mut dev = small_gpu();
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, 1.0]]).unwrap();
        let ah = dev.upload_matrix(&a, DEFAULT_STREAM).unwrap();
        let y = dev.upload_vector(&[1.0, 1.0], DEFAULT_STREAM).unwrap();
        let c = dev.upload_vector(&[3.0, 0.5, 4.0], DEFAULT_STREAM).unwrap();
        let d = dev.vacant_vector();
        dev.pricing(ah, y, c, d, DEFAULT_STREAM).unwrap();
        // d = c - At y = [3-1, 0.5-1, 4-3] = [2, -0.5, 1]
        let dv = dev.download_vector(d, DEFAULT_STREAM).unwrap();
        assert_eq!(dv, vec![2.0, -0.5, 1.0]);
        let mask = dev.upload_vector(&[1.0, 1.0, 1.0], DEFAULT_STREAM).unwrap();
        let (idx, val) = dev.argmin_masked(d, mask, DEFAULT_STREAM).unwrap().unwrap();
        assert_eq!(idx, 1);
        assert_eq!(val, -0.5);
        // Masked out: only index 0 and 2 eligible.
        let mask2 = dev.upload_vector(&[1.0, 0.0, 1.0], DEFAULT_STREAM).unwrap();
        let (idx2, _) = dev
            .argmin_masked(d, mask2, DEFAULT_STREAM)
            .unwrap()
            .unwrap();
        assert_eq!(idx2, 2);
        // Empty mask.
        let mask3 = dev.upload_vector(&[0.0, 0.0, 0.0], DEFAULT_STREAM).unwrap();
        assert!(dev
            .argmin_masked(d, mask3, DEFAULT_STREAM)
            .unwrap()
            .is_none());
    }

    /// Eta factors on a resident file, read without charging anything.
    fn eta_count(dev: &GpuDevice, h: EtaHandle) -> usize {
        dev.objects.eta(h).unwrap().eta_count()
    }

    #[test]
    fn eta_workflow_on_device() {
        let mut dev = small_gpu();
        // The basis is columns [3, 1, 2] of A = [e0 | e1 | e2 | e0]: I(3),
        // gathered and factorized without a transfer.
        let mut a = DenseMatrix::identity(3);
        a.push_col(&[1.0, 0.0, 0.0]).unwrap();
        let ah = dev.upload_matrix(&a, DEFAULT_STREAM).unwrap();
        let (eta, alpha, x) = (dev.vacant_eta(), dev.vacant_vector(), dev.vacant_vector());
        let col = dev.upload_vector(&[2.0, 1.0, 0.0], DEFAULT_STREAM).unwrap();
        assert!(dev.eta_ftran(eta, col, alpha, DEFAULT_STREAM).is_err());
        let (transfers, used) = (dev.stats().total_transfers(), dev.memory().used());
        dev.eta_factor(ah, &[3, 1, 2], eta, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.stats().total_transfers(), transfers);
        // The gathered 3x3 block is gone again; LU + permutation stay.
        assert_eq!(dev.memory().used(), used + 72 + 24);
        assert_eq!(dev.memory().peak(), used + 72 + 72 + 24);
        assert!(dev
            .eta_factor(ah, &[99, 1, 2], eta, DEFAULT_STREAM)
            .is_err());
        dev.eta_ftran(eta, col, alpha, DEFAULT_STREAM).unwrap();
        dev.eta_update(eta, 0, alpha, DEFAULT_STREAM).unwrap();
        assert_eq!(eta_count(&dev, eta), 1);
        // Solve B x = [2,1,0] where B has column 0 replaced by [2,1,0]:
        // x should be e0.
        dev.eta_ftran(eta, col, x, DEFAULT_STREAM).unwrap();
        let xv = dev.download_vector(x, DEFAULT_STREAM).unwrap();
        assert!((xv[0] - 1.0).abs() < 1e-9);
        assert!(xv[1].abs() < 1e-9);
        // Refactorize clears etas.
        let mut b1 = DenseMatrix::identity(3);
        b1.set(0, 0, 2.0);
        b1.set(1, 0, 1.0);
        let b1h = dev.upload_matrix(&b1, DEFAULT_STREAM).unwrap();
        dev.eta_refactorize(eta, b1h, DEFAULT_STREAM).unwrap();
        assert_eq!(eta_count(&dev, eta), 0);

        // A singular basis (column 0 twice) strands nothing: the gathered
        // block is released, the file answers no solve, and the next good
        // factorization lands on the bytes of the first.
        dev.vacate(eta).unwrap();
        let vacated = dev.memory().used();
        for _ in 0..3 {
            assert!(matches!(
                dev.eta_factor(ah, &[0, 3, 2], eta, DEFAULT_STREAM),
                Err(GpuError::Linalg(LinalgError::Singular { .. }))
            ));
            assert_eq!(dev.memory().used(), vacated);
            assert!(dev.eta_ftran(eta, col, x, DEFAULT_STREAM).is_err());
        }
        dev.eta_factor(ah, &[0, 1, 2], eta, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.memory().used(), vacated + 72 + 24);
        dev.eta_ftran(eta, col, x, DEFAULT_STREAM).unwrap();
        assert_eq!(
            dev.download_vector(x, DEFAULT_STREAM).unwrap(),
            vec![2.0, 1.0, 0.0]
        );
    }

    #[test]
    fn append_cut_is_one_transfer_two_splices() {
        let mut dev = small_gpu();
        let a = test_matrix();
        let ah = dev.upload_matrix(&a, DEFAULT_STREAM).unwrap();
        let before = dev.stats();
        let used_before = dev.memory().used();
        dev.append_cut(ah, &[1.0, 1.0, 1.0], &[0.0, 0.0, 0.0, 1.0], DEFAULT_STREAM)
            .unwrap();
        let after = dev.stats();
        assert_eq!(after.h2d_transfers, before.h2d_transfers + 1);
        assert_eq!(after.h2d_bytes, before.h2d_bytes + 24 + 32);
        assert_eq!(after.kernel_launches, before.kernel_launches + 2);
        assert_eq!(dev.memory().used(), used_before + 24 + 32);
        let m = resident(&dev, ah).unwrap();
        assert_eq!((m.rows(), m.cols()), (4, 4));
        assert_eq!(m.row(3), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(m.get(0, 3), 0.0);
        // A cut of the wrong shape is refused with nothing charged.
        let charged = dev.stats();
        assert!(dev
            .append_cut(ah, &[1.0; 4], &[0.0; 4], DEFAULT_STREAM)
            .is_err());
        assert!(dev
            .append_cut(ah, &[1.0; 3], &[0.0; 5], DEFAULT_STREAM)
            .is_err());
        assert_eq!(dev.stats(), charged);
        assert_eq!(dev.memory().used(), used_before + 24 + 32);
    }

    #[test]
    fn sparse_kernels() {
        let mut dev = small_gpu();
        let d = DenseMatrix::from_rows(&[
            vec![4.0, 0.0, -1.0],
            vec![0.0, 5.0, 0.0],
            vec![-1.0, 0.0, 3.0],
        ])
        .unwrap();
        let s = CsrMatrix::from_dense(&d);
        let sh = dev.upload_sparse(&s, DEFAULT_STREAM).unwrap();
        let x = dev.upload_vector(&[1.0, 1.0, 1.0], DEFAULT_STREAM).unwrap();
        let y = dev.spmv(sh, x, DEFAULT_STREAM).unwrap();
        assert_eq!(
            dev.download_vector(y, DEFAULT_STREAM).unwrap(),
            vec![3.0, 5.0, 2.0]
        );
        let f = dev.sparse_lu_factor(sh, DEFAULT_STREAM).unwrap();
        let b = dev.upload_vector(&[3.0, 5.0, 2.0], DEFAULT_STREAM).unwrap();
        let xs = dev.sparse_solve(f, b, DEFAULT_STREAM).unwrap();
        let xv = dev.download_vector(xs, DEFAULT_STREAM).unwrap();
        for v in &xv {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_kernel_slower_than_dense_same_size() {
        // Same numeric problem through both paths; with launch latency zeroed
        // out, the sparse path's lower effective throughput (the Section 5.4
        // premise) must make it slower per flop.
        let mut cost = CostModel::gpu_pcie();
        cost.launch_latency_ns = 0.0;
        let cfg = DeviceConfig {
            cost,
            mem_capacity: 1 << 20,
            streams: 1,
        };
        // A 32x32 tridiagonal system: large enough that per-flop throughput,
        // not fixed overhead, decides the comparison.
        let n = 32;
        let mut d = DenseMatrix::zeros(n, n);
        for i in 0..n {
            d.set(i, i, 4.0);
            if i > 0 {
                d.set(i, i - 1, -1.0);
            }
            if i + 1 < n {
                d.set(i, i + 1, -1.0);
            }
        }
        let mut dev_dense = GpuDevice::new(cfg.clone());
        let ah = dev_dense.upload_matrix(&d, DEFAULT_STREAM).unwrap();
        dev_dense.lu_factor(ah, DEFAULT_STREAM).unwrap();
        let dense_per_flop = dev_dense.stats().kernel_ns / dev_dense.stats().flops;

        let mut dev_sparse = GpuDevice::new(cfg);
        let sh = dev_sparse
            .upload_sparse(&CsrMatrix::from_dense(&d), DEFAULT_STREAM)
            .unwrap();
        dev_sparse.sparse_lu_factor(sh, DEFAULT_STREAM).unwrap();
        let sparse_per_flop = dev_sparse.stats().kernel_ns / dev_sparse.stats().flops;
        assert!(
            sparse_per_flop > 10.0 * dense_per_flop,
            "sparse {sparse_per_flop} vs dense {dense_per_flop}"
        );
    }

    #[test]
    fn batched_solve_single_launch() {
        let mut dev = small_gpu();
        let mut systems = Vec::new();
        let mats: Vec<DenseMatrix> = (0..6)
            .map(|i| DenseMatrix::from_rows(&[vec![3.0 + i as f64, 1.0], vec![1.0, 4.0]]).unwrap())
            .collect();
        for m in &mats {
            let mh = dev.upload_matrix(m, DEFAULT_STREAM).unwrap();
            let bh = dev.upload_vector(&[1.0, 2.0], DEFAULT_STREAM).unwrap();
            systems.push((mh, bh));
        }
        let launches_before = dev.stats().kernel_launches;
        let xs = dev.batched_lu_solve(&systems, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.stats().kernel_launches, launches_before + 1);
        assert_eq!(xs.len(), 6);
        for (i, xh) in xs.iter().enumerate() {
            let x = dev.download_vector(*xh, DEFAULT_STREAM).unwrap();
            let ax = mats[i].matvec(&x).unwrap();
            assert!((ax[0] - 1.0).abs() < 1e-9);
            assert!((ax[1] - 2.0).abs() < 1e-9);
        }
        // Empty batch is a no-op.
        assert!(dev
            .batched_lu_solve(&[], DEFAULT_STREAM)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn sparse_path_kernels() {
        let mut dev = small_gpu();
        // A = [[4, 0, -1, 1], [0, 5, 0, 0], [-1, 0, 3, 0]] (3x4 CSR).
        let d = DenseMatrix::from_rows(&[
            vec![4.0, 0.0, -1.0, 1.0],
            vec![0.0, 5.0, 0.0, 0.0],
            vec![-1.0, 0.0, 3.0, 0.0],
        ])
        .unwrap();
        let a = CsrMatrix::from_dense(&d);
        let ah = dev.upload_sparse(&a, DEFAULT_STREAM).unwrap();

        // Column extraction.
        let [c2, dvec, r, z, w, alpha] = [(); 6].map(|()| dev.vacant_vector());
        dev.extract_column_sparse(ah, 2, c2, DEFAULT_STREAM)
            .unwrap();
        assert_eq!(
            dev.download_vector(c2, DEFAULT_STREAM).unwrap(),
            vec![-1.0, 0.0, 3.0]
        );
        assert!(dev
            .extract_column_sparse(ah, 9, c2, DEFAULT_STREAM)
            .is_err());

        // Sparse pricing: d = c - At y.
        let y = dev.upload_vector(&[1.0, 1.0, 1.0], DEFAULT_STREAM).unwrap();
        let c = dev
            .upload_vector(&[5.0, 6.0, 3.0, 2.0], DEFAULT_STREAM)
            .unwrap();
        dev.pricing_sparse(ah, y, c, dvec, DEFAULT_STREAM).unwrap();
        assert_eq!(
            dev.download_vector(dvec, DEFAULT_STREAM).unwrap(),
            vec![2.0, 1.0, 1.0, 1.0]
        );

        // Sparse residual: r = b - A x with x = e0.
        let x = dev
            .upload_vector(&[1.0, 0.0, 0.0, 0.0], DEFAULT_STREAM)
            .unwrap();
        let b = dev.upload_vector(&[5.0, 5.0, 5.0], DEFAULT_STREAM).unwrap();
        dev.residual_sparse(b, ah, x, r, DEFAULT_STREAM).unwrap();
        assert_eq!(
            dev.download_vector(r, DEFAULT_STREAM).unwrap(),
            vec![1.0, 5.0, 6.0]
        );

        // Basis gather + sparse eta factorization over cols [0,1,2].
        let eta = dev.vacant_sparse_eta();
        let eta_count = |dev: &GpuDevice| dev.objects.sparse_eta(eta).map(|file| file.eta_count());
        assert!(eta_count(&dev).is_err());
        dev.sparse_eta_factor(ah, &[0, 1, 2], eta, DEFAULT_STREAM)
            .unwrap();
        assert_eq!(eta_count(&dev), Ok(0));
        // Solve B z = col 0 of A -> z = e0.
        let rhs = dev
            .upload_vector(&[4.0, 0.0, -1.0], DEFAULT_STREAM)
            .unwrap();
        dev.sparse_eta_ftran(eta, rhs, z, DEFAULT_STREAM).unwrap();
        let zv = dev.download_vector(z, DEFAULT_STREAM).unwrap();
        assert!((zv[0] - 1.0).abs() < 1e-9 && zv[1].abs() < 1e-9 && zv[2].abs() < 1e-9);
        // BTRAN against e1: check Bt w = e1.
        let e1 = dev.upload_vector(&[0.0, 1.0, 0.0], DEFAULT_STREAM).unwrap();
        dev.sparse_eta_btran(eta, e1, w, DEFAULT_STREAM).unwrap();
        let wv = dev.download_vector(w, DEFAULT_STREAM).unwrap();
        let bt = DenseMatrix::from_rows(&[
            vec![4.0, 0.0, -1.0],
            vec![0.0, 5.0, 0.0],
            vec![-1.0, 0.0, 3.0],
        ])
        .unwrap()
        .transpose();
        let btw = bt.matvec(&wv).unwrap();
        assert!((btw[1] - 1.0).abs() < 1e-9 && btw[0].abs() < 1e-9);

        // Update: replace basis position 2 with column 3 of A (= e0).
        dev.extract_column_sparse(ah, 3, c2, DEFAULT_STREAM)
            .unwrap();
        dev.sparse_eta_ftran(eta, c2, alpha, DEFAULT_STREAM)
            .unwrap();
        dev.sparse_eta_update(eta, 2, alpha, DEFAULT_STREAM)
            .unwrap();
        assert_eq!(eta_count(&dev), Ok(1));
        // A singular gather (column 1 twice) leaves no factors to solve
        // with and strands no byte.
        dev.vacate(eta).unwrap();
        let vacated = dev.memory().used();
        assert!(dev
            .sparse_eta_factor(ah, &[1, 1, 2], eta, DEFAULT_STREAM)
            .is_err());
        assert_eq!(dev.memory().used(), vacated);
        assert!(dev.sparse_eta_ftran(eta, rhs, z, DEFAULT_STREAM).is_err());

        // Cut append: row over cols 0..4 plus new slack col 4.
        dev.append_row_sparse(ah, &[(0, 1.0), (4, 1.0)], 5, DEFAULT_STREAM)
            .unwrap();
        let m = dev.objects.sparse(ah).unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.get(3, 4), 1.0);

        dev.free(eta).unwrap();
    }

    #[test]
    fn raw_alloc_models_tree_storage() {
        let mut dev = GpuDevice::new(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: 1000,
            streams: 1,
        });
        let h = dev.alloc_raw(800).unwrap();
        assert!(dev.alloc_raw(300).is_err());
        dev.free_raw(h).unwrap();
        assert!(dev.alloc_raw(300).is_ok());
    }

    #[test]
    fn vec_get_reads_several_scalars_in_one_readback() {
        let mut dev = small_gpu();
        let v = dev.upload_vector(&[1.0, 2.0, 3.0], DEFAULT_STREAM).unwrap();
        let w = dev.upload_vector(&[9.0], DEFAULT_STREAM).unwrap();
        let before = dev.stats();
        assert_eq!(
            dev.vec_get([(v, 1), (w, 0)], DEFAULT_STREAM).unwrap(),
            [2.0, 9.0]
        );
        let after = dev.stats();
        assert_eq!(after.d2h_transfers, before.d2h_transfers + 1);
        assert_eq!(after.d2h_bytes, before.d2h_bytes + 16);
        // One bad position refuses the whole readback, uncharged.
        assert!(dev.vec_get([(v, 1), (w, 1)], DEFAULT_STREAM).is_err());
        assert!(dev.vec_get([(v, 5)], DEFAULT_STREAM).is_err());
        assert_eq!(dev.stats(), after);
    }

    /// Everything `DeviceMemory` can tell apart: used, peak, allocations.
    fn memory_view(dev: &GpuDevice) -> [usize; 3] {
        let mem = dev.memory();
        [mem.used(), mem.peak(), mem.allocation_count()]
    }

    #[test]
    fn staged_upload_books_memory_like_one_upload_per_vector() {
        let parts: [&[f64]; 3] = [&[1.0; 5], &[2.0; 2], &[3.0; 7]];
        // Every capacity from "nothing fits" to "all of it fits twice": the
        // second round re-tenants, so a part is allocated while the tenant it
        // supersedes is still accounted for.
        for capacity in (0..=2 * 8 * 14).step_by(8) {
            let device = || {
                let mut dev = GpuDevice::new(DeviceConfig {
                    cost: CostModel::gpu_pcie(),
                    mem_capacity: capacity,
                    streams: 1,
                });
                let slots = [(); 3].map(|()| dev.vacant_vector());
                (dev, slots)
            };
            let (mut staged, s) = device();
            let (mut single, t) = device();
            for round in 0..2 {
                let list: Vec<(VectorHandle, &[f64])> =
                    (0..3).map(|k| (s[(k + round) % 3], parts[k])).collect();
                let together = staged.upload_staged(&list, DEFAULT_STREAM);
                let apart = (0..3).try_for_each(|k| {
                    single.upload_staged(&[(t[(k + round) % 3], parts[k])], DEFAULT_STREAM)
                });
                assert_eq!(together, apart, "capacity {capacity}");
                assert_eq!(
                    memory_view(&staged),
                    memory_view(&single),
                    "capacity {capacity}"
                );
                // What did land answers reads; what did not, does not.
                for k in 0..3 {
                    assert_eq!(
                        staged.download_vector(s[k], DEFAULT_STREAM).ok(),
                        single.download_vector(t[k], DEFAULT_STREAM).ok()
                    );
                }
                if together.is_ok() {
                    // Same bytes over the link, in one crossing instead of three.
                    let (a, b) = (staged.stats(), single.stats());
                    assert_eq!(a.h2d_bytes, b.h2d_bytes);
                    assert_eq!(a.h2d_transfers, 1 + round as u64);
                    assert_eq!(b.h2d_transfers, 3 * (1 + round as u64));
                }
            }
        }
    }

    #[test]
    fn extract_append_residual() {
        let mut dev = small_gpu();
        let a = test_matrix();
        let ah = dev.upload_matrix(&a, DEFAULT_STREAM).unwrap();
        // Column extraction needs no transfer.
        let transfers = dev.stats().total_transfers();
        let (c1, r) = (dev.vacant_vector(), dev.vacant_vector());
        dev.extract_column(ah, 1, c1, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.stats().total_transfers(), transfers);
        assert_eq!(
            dev.download_vector(c1, DEFAULT_STREAM).unwrap(),
            vec![1.0, -6.0, 7.0]
        );
        assert!(dev.extract_column(ah, 9, c1, DEFAULT_STREAM).is_err());

        dev.append_cut(ah, &[0.0; 3], &[1.0, 0.0, 0.0, 0.0], DEFAULT_STREAM)
            .unwrap();
        let m = resident(&dev, ah).unwrap();
        assert_eq!((m.rows(), m.cols()), (4, 4));
        assert_eq!(m.get(0, 3), 1.0);

        // r = b - A x with x = e3 (the new column): r = b - [1,0,0,0].
        let x = dev
            .upload_vector(&[0.0, 0.0, 0.0, 1.0], DEFAULT_STREAM)
            .unwrap();
        let b = dev.upload_vector(&[5.0; 4], DEFAULT_STREAM).unwrap();
        dev.residual(b, ah, x, r, DEFAULT_STREAM).unwrap();
        assert_eq!(
            dev.download_vector(r, DEFAULT_STREAM).unwrap(),
            vec![4.0, 5.0, 5.0, 5.0]
        );
    }

    #[test]
    fn vec_mul_and_unit_vector() {
        let mut dev = small_gpu();
        let a = dev
            .upload_vector(&[1.0, -2.0, 3.0], DEFAULT_STREAM)
            .unwrap();
        let b = dev.upload_vector(&[2.0, 2.0, 0.0], DEFAULT_STREAM).unwrap();
        let (c, e) = (dev.vacant_vector(), dev.vacant_vector());
        dev.vec_mul(a, b, c, DEFAULT_STREAM).unwrap();
        assert_eq!(
            dev.download_vector(c, DEFAULT_STREAM).unwrap(),
            vec![2.0, -4.0, 0.0]
        );
        let short = dev.upload_vector(&[1.0], DEFAULT_STREAM).unwrap();
        assert!(dev.vec_mul(a, short, c, DEFAULT_STREAM).is_err());

        let transfers_before = dev.stats().h2d_transfers;
        dev.alloc_unit_vector(4, 2, e, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.stats().h2d_transfers, transfers_before);
        assert_eq!(
            dev.download_vector(e, DEFAULT_STREAM).unwrap(),
            vec![0.0, 0.0, 1.0, 0.0]
        );
        assert!(dev.alloc_unit_vector(4, 9, e, DEFAULT_STREAM).is_err());
    }

    #[test]
    fn bounded_ratio_test_kernel() {
        let mut dev = small_gpu();
        let xb = dev.upload_vector(&[4.0, 5.0, 1.0], DEFAULT_STREAM).unwrap();
        let alpha = dev
            .upload_vector(&[2.0, -1.0, 0.0], DEFAULT_STREAM)
            .unwrap();
        let lbb = dev.upload_vector(&[0.0, 0.0, 0.0], DEFAULT_STREAM).unwrap();
        let ubb = dev
            .upload_vector(&[10.0, 6.0, 10.0], DEFAULT_STREAM)
            .unwrap();
        // dir=+1: row 0 drops to lb at t = 4/2 = 2; row 1 rises to ub at
        // t = (5-6)/(-1) = 1 → row 1 wins, leaves at upper.
        let (row, t, upper) = dev
            .ratio_test_bounded(xb, alpha, lbb, ubb, 1.0, 1e-9, DEFAULT_STREAM)
            .unwrap()
            .unwrap();
        assert_eq!(row, 1);
        assert!((t - 1.0).abs() < 1e-12);
        assert!(upper);
        // dir=-1 flips the roles: row 0 now rises toward ub at t=(4-10)/(-2)=3,
        // row 1 drops to lb at t=5/1=5 → row 0 wins.
        let (row2, t2, upper2) = dev
            .ratio_test_bounded(xb, alpha, lbb, ubb, -1.0, 1e-9, DEFAULT_STREAM)
            .unwrap()
            .unwrap();
        assert_eq!(row2, 0);
        assert!((t2 - 3.0).abs() < 1e-12);
        assert!(upper2);
        // Infinite bounds in the blocking direction → no limit.
        let inf_lb = dev
            .upload_vector(&[f64::NEG_INFINITY; 3], DEFAULT_STREAM)
            .unwrap();
        let inf_ub = dev
            .upload_vector(&[f64::INFINITY; 3], DEFAULT_STREAM)
            .unwrap();
        assert!(dev
            .ratio_test_bounded(xb, alpha, inf_lb, inf_ub, 1.0, 1e-9, DEFAULT_STREAM)
            .unwrap()
            .is_none());
    }

    #[test]
    fn basic_step_kernel() {
        let mut dev = small_gpu();
        let xb = dev.upload_vector(&[4.0, 5.0, 1.0], DEFAULT_STREAM).unwrap();
        let alpha = dev
            .upload_vector(&[2.0, -1.0, 0.5], DEFAULT_STREAM)
            .unwrap();
        let sigma = dev.upload_vector(&[-1.0, 0.0], DEFAULT_STREAM).unwrap();
        let before = dev.stats();
        dev.basic_step(
            xb,
            alpha,
            1.0,
            2.0,
            &[(xb, 0, 7.5), (sigma, 1, 1.0), (sigma, 0, 0.0)],
            DEFAULT_STREAM,
        )
        .unwrap();
        // xb - 2*alpha = [0, 7, 0]; then xb[0] = 7.5 and the two statuses.
        assert_eq!(dev.stats().total_transfers(), before.total_transfers());
        assert_eq!(dev.stats().kernel_launches, before.kernel_launches + 1);
        assert_eq!(
            dev.download_vector(xb, DEFAULT_STREAM).unwrap(),
            vec![7.5, 7.0, 0.0]
        );
        assert_eq!(
            dev.download_vector(sigma, DEFAULT_STREAM).unwrap(),
            vec![0.0, 1.0]
        );
        // One store out of range: no step, no store, no launch.
        let launches = dev.stats().kernel_launches;
        assert!(dev
            .basic_step(
                xb,
                alpha,
                1.0,
                1.0,
                &[(xb, 1, 0.0), (sigma, 2, 0.0)],
                DEFAULT_STREAM
            )
            .is_err());
        assert_eq!(dev.stats().kernel_launches, launches);
        assert_eq!(
            dev.download_vector(xb, DEFAULT_STREAM).unwrap(),
            vec![7.5, 7.0, 0.0]
        );
    }

    #[test]
    fn devex_weight_update_re_anchors_the_leaving_slot() {
        let mut dev = small_gpu();
        let gamma = dev.upload_vector(&[1.0, 1.0, 9.0], DEFAULT_STREAM).unwrap();
        let alpha_r = dev.upload_vector(&[4.0, 2.0, 1.0], DEFAULT_STREAM).unwrap();
        let transfers = dev.stats().total_transfers();
        // q = 1: α_rq = 2, γ_q = 1; candidates (α_r[j]/2)² = [4, 1, 0.25].
        dev.devex_weight_update(gamma, alpha_r, 2.0, 1.0, 2, DEFAULT_STREAM)
            .unwrap();
        assert_eq!(dev.stats().total_transfers(), transfers);
        // Slot 2 (the leaving variable) takes max(γ_q / α_rq², 1) = 1.
        assert_eq!(
            dev.download_vector(gamma, DEFAULT_STREAM).unwrap(),
            vec![4.0, 1.0, 1.0]
        );
        assert!(dev
            .devex_weight_update(gamma, alpha_r, 2.0, 1.0, 3, DEFAULT_STREAM)
            .is_err());
        assert_eq!(
            dev.download_vector(gamma, DEFAULT_STREAM).unwrap(),
            vec![4.0, 1.0, 1.0]
        );
    }

    #[test]
    fn dual_simplex_reductions() {
        let mut dev = small_gpu();
        let xb = dev
            .upload_vector(&[-2.0, 0.5, 9.0], DEFAULT_STREAM)
            .unwrap();
        let lbb = dev.upload_vector(&[0.0, 0.0, 0.0], DEFAULT_STREAM).unwrap();
        let ubb = dev.upload_vector(&[5.0, 5.0, 5.0], DEFAULT_STREAM).unwrap();
        let (row, viol, below) = dev
            .primal_infeas_argmax(xb, lbb, ubb, 1e-9, DEFAULT_STREAM)
            .unwrap()
            .unwrap();
        // Violations: row 0 below by 2, row 2 above by 4 → row 2 wins.
        assert_eq!(row, 2);
        assert!((viol - 4.0).abs() < 1e-12);
        assert!(!below);
        // Feasible xb → None.
        let ok = dev.upload_vector(&[1.0, 1.0, 1.0], DEFAULT_STREAM).unwrap();
        assert!(dev
            .primal_infeas_argmax(ok, lbb, ubb, 1e-9, DEFAULT_STREAM)
            .unwrap()
            .is_none());

        // Dual ratio: d = [-3, 2, 0], alpha_r = [-1, 4, 1], sigma = [-1, 1, 0].
        // leaving_below=true: at-lower j0 needs alpha<-tol (yes, ratio 3);
        // at-upper j1 needs alpha>tol (yes, ratio 0.5) → j1 wins.
        let d = dev
            .upload_vector(&[-3.0, 2.0, 0.0], DEFAULT_STREAM)
            .unwrap();
        let ar = dev
            .upload_vector(&[-1.0, 4.0, 1.0], DEFAULT_STREAM)
            .unwrap();
        let sigma = dev
            .upload_vector(&[-1.0, 1.0, 0.0], DEFAULT_STREAM)
            .unwrap();
        let (col, ratio) = dev
            .dual_ratio_argmin(d, ar, sigma, true, 1e-9, DEFAULT_STREAM)
            .unwrap()
            .unwrap();
        assert_eq!(col, 1);
        assert!((ratio - 0.5).abs() < 1e-12);
        // leaving_below=false: j0 needs alpha>tol (no), j1 needs alpha<-tol
        // (no) → dual unbounded.
        assert!(dev
            .dual_ratio_argmin(d, ar, sigma, false, 1e-9, DEFAULT_STREAM)
            .unwrap()
            .is_none());
    }

    #[test]
    fn streams_overlap_in_device_time() {
        let mut dev = GpuDevice::new(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: 1 << 20,
            streams: 1,
        });
        let s1 = dev.create_stream();
        let m = test_matrix();
        let h0 = dev.upload_matrix(&m, DEFAULT_STREAM).unwrap();
        let h1 = dev.upload_matrix(&m, s1).unwrap();
        dev.lu_factor(h0, DEFAULT_STREAM).unwrap();
        dev.lu_factor(h1, s1).unwrap();
        let overlapped = dev.elapsed_ns();
        // Serial on one stream would be ~2x; with two streams the frontier is
        // roughly one pipeline deep.
        let mut serial = GpuDevice::new(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: 1 << 20,
            streams: 1,
        });
        let a0 = serial.upload_matrix(&m, DEFAULT_STREAM).unwrap();
        let a1 = serial.upload_matrix(&m, DEFAULT_STREAM).unwrap();
        serial.lu_factor(a0, DEFAULT_STREAM).unwrap();
        serial.lu_factor(a1, DEFAULT_STREAM).unwrap();
        assert!(overlapped < serial.elapsed_ns());
    }
}
