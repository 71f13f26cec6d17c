//! Property tests: the device's fixed-slot ledger, slab handle table, buffer
//! pool and resident (re-tenanted) vectors are invisible. A random operation
//! sequence is driven through
//! a [`GpuDevice`] and, in lockstep, through a reference `MetricsRegistry`
//! updated the way the device used to do it (`incr` / `max_gauge` per
//! operation) plus a by-hand model of device memory; the materialized views
//! must carry the same keys and the same bits.

use gmip_gpu::cost::flops;
use gmip_gpu::device::storage::Class;
use gmip_gpu::{
    DeviceConfig, DeviceStats, Eta, GpuDevice, GpuError, MatrixHandle, SparseHandle, Storage,
    StreamId, VectorHandle, DEFAULT_STREAM,
};
use gmip_linalg::{CsrMatrix, DenseMatrix, SparseLu};
use gmip_trace::{names, MetricsRegistry};
use proptest::prelude::*;

/// One storage's share of the fixture: the 3×4 matrix `a`, the square
/// block of its first three columns, a matrix for cuts to grow, and a
/// resident eta file with what the reference knows of its tenant.
#[derive(Clone, Copy)]
struct Side<M: Storage> {
    a: M,
    square: M,
    cuts: M,
    /// Rows and columns of `cuts`.
    cut_shape: (usize, usize),
    eta: Eta<M>,
    /// Modelled bytes of the eta file's tenant and the eta updates on it.
    tenant: Option<(usize, usize)>,
}

/// Where the reference keeps a storage's [`Side`], and whether it prices
/// that storage as the sparse one.
trait Model: Storage {
    const SPARSE: bool;
    fn side(ls: &mut Lockstep) -> &mut Side<Self>;
}

impl Model for MatrixHandle {
    const SPARSE: bool = false;
    fn side(ls: &mut Lockstep) -> &mut Side<Self> {
        &mut ls.dense
    }
}

impl Model for SparseHandle {
    const SPARSE: bool = true;
    fn side(ls: &mut Lockstep) -> &mut Side<Self> {
        &mut ls.sparse
    }
}

/// The cost model of every class written out by hand, independently of the
/// device's class table: `(flops, bytes, charged at the sparse rate)` over a
/// matrix's `(rows, cols, stored entries)`, or a factored basis's
/// `(dimension, eta updates, stored factor entries)`.
fn class_cost(sparse: bool, class: Class, r: usize, c: usize, z: usize) -> (f64, usize, bool) {
    let eta = flops::eta_apply(c, r);
    match (class, sparse) {
        (Class::Residual, false) => (flops::gemv(r, c) + r as f64, r * c * 8, false),
        (Class::Residual, true) => (flops::spmv(z) + r as f64, z * 16, true),
        (Class::Pricing, false) => (flops::gemv(r, c) + c as f64, r * c * 8, false),
        (Class::Pricing, true) => (flops::spmv(z) + c as f64, z * 16, true),
        (Class::ExtractColumn, false) => (0.0, 16 * r, false),
        (Class::ExtractColumn, true) => (r as f64, 16 * r, true),
        (Class::Matvec | Class::MatvecTransposed, false) => (flops::gemv(r, c), r * c * 8, false),
        (Class::Matvec | Class::MatvecTransposed, true) => (flops::spmv(z), z * 16, true),
        (Class::LuFactor | Class::EtaFactor, false) => (flops::lu(r), r * r * 8, false),
        (Class::LuFactor | Class::EtaFactor, true) => (flops::sparse_lu(z), z * 16, true),
        (Class::LuSolve, false) => (flops::lu_solve(r), r * r * 8, false),
        (Class::LuSolve, true) => (flops::spmv(z), z * 16, true),
        (Class::EtaFtran | Class::EtaBtran, false) => {
            (flops::lu_solve(r) + eta, (r * r + c * r) * 8, false)
        }
        (Class::EtaFtran | Class::EtaBtran, true) => {
            (flops::spmv(z) + eta, z * 16 + c * r * 8, true)
        }
        // Dense rate on both storages: the eta column is dense.
        (Class::EtaUpdate, _) => (r as f64, r * 8, false),
        (Class::AppendCut, false) => (0.0, z * 8, false),
        (Class::AppendCut, true) => (0.0, z * 16 + 8, true),
    }
}

/// The device under test next to the reference bookkeeping.
struct Lockstep {
    dev: GpuDevice,
    reference: MetricsRegistry,
    /// Live device vectors with their modelled bytes.
    live: Vec<(VectorHandle, usize)>,
    /// Handles already freed: they must stay dead whatever is allocated next.
    dead: Vec<VectorHandle>,
    /// Resident vectors with the modelled bytes of their tenants (`None`
    /// while vacant): the in-place kernels write the first, a staged upload
    /// all three.
    resident: [(VectorHandle, Option<usize>); 3],
    /// The same fixture on either storage, for the matrix and factor
    /// kernel classes.
    dense: Side<MatrixHandle>,
    sparse: Side<SparseHandle>,
    /// Nonzeros of the 3×4 matrix, and of the sparse LU of its square block.
    nnz: usize,
    fill: usize,
    /// Inputs of length 4 and 3 the class kernels read.
    x4: VectorHandle,
    x3: VectorHandle,
    used: usize,
    peak: usize,
    largest_vector: usize,
}

impl Lockstep {
    fn new() -> Self {
        let a = DenseMatrix::from_rows(&[
            vec![4.0, 0.0, -1.0, 0.5],
            vec![0.0, 5.0, 0.0, 0.0],
            vec![-1.0, 0.0, 3.0, 0.0],
        ])
        .expect("rectangular rows");
        let square = DenseMatrix::from_rows(&[
            vec![4.0, 0.0, -1.0],
            vec![0.0, 5.0, 0.0],
            vec![-1.0, 0.0, 3.0],
        ])
        .expect("rectangular rows");
        let csr = CsrMatrix::from_dense(&a);
        let csr_square = CsrMatrix::from_dense(&square);
        fn side<M: Storage>(dev: &mut GpuDevice, a: &DenseMatrix, square: &DenseMatrix) -> Side<M> {
            let mut upload = |m| M::upload(dev, m, DEFAULT_STREAM).expect("fits");
            Side {
                a: upload(a),
                square: upload(square),
                cuts: upload(a),
                cut_shape: (a.rows(), a.cols()),
                eta: dev.vacant_eta(),
                tenant: None,
            }
        }
        let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
        let mut ls = Self {
            dense: side(&mut dev, &a, &square),
            sparse: side(&mut dev, &a, &square),
            nnz: csr.nnz(),
            fill: SparseLu::factorize(&csr_square.to_csc())
                .expect("nonsingular")
                .fill_nnz(),
            x4: dev
                .upload_vector(&[1.0, 2.0, -1.0, 0.5], DEFAULT_STREAM)
                .expect("fits"),
            x3: dev
                .upload_vector(&[1.0, -2.0, 3.0], DEFAULT_STREAM)
                .expect("fits"),
            resident: [(); 3].map(|()| (dev.vacant_vector(), None)),
            dev,
            reference: MetricsRegistry::new(),
            live: Vec::new(),
            dead: Vec::new(),
            used: 0,
            peak: 0,
            largest_vector: 4,
        };
        // The fixture's uploads, in the order they were made.
        let (d, s, sq) = (a.size_bytes(), csr.size_bytes(), csr_square.size_bytes());
        for bytes in [d, square.size_bytes(), d, s, sq, s, 32, 24] {
            ls.used += bytes;
            ls.peak = ls.used;
            ls.reference
                .max_gauge(names::GPU_MEM_PEAK_BYTES, ls.used as f64);
            ls.ref_transfer(bytes, true);
        }
        ls
    }

    fn ref_transfer(&mut self, bytes: usize, h2d: bool) {
        let t = self.dev.cost_model().transfer_ns(bytes);
        let (count, total) = if h2d {
            (names::GPU_H2D_TRANSFERS, names::GPU_H2D_BYTES)
        } else {
            (names::GPU_D2H_TRANSFERS, names::GPU_D2H_BYTES)
        };
        self.reference.incr(count, 1.0);
        self.reference.incr(total, bytes as f64);
        self.reference.incr(names::GPU_TRANSFER_NS, t);
    }

    fn ref_kernel(&mut self, flops: f64, t: f64) {
        self.reference.incr(names::GPU_KERNEL_LAUNCHES, 1.0);
        self.reference.incr(names::GPU_KERNEL_FLOPS, flops);
        self.reference.incr(names::GPU_KERNEL_NS, t);
    }

    /// Books a freshly inserted vector of `len` elements.
    fn ref_insert(&mut self, h: VectorHandle, len: usize) {
        self.used += len * 8;
        self.peak = self.peak.max(self.used);
        self.reference
            .max_gauge(names::GPU_MEM_PEAK_BYTES, self.used as f64);
        self.live.push((h, len * 8));
        self.largest_vector = self.largest_vector.max(len);
    }

    /// Books a result of `len` elements moving into resident vector
    /// `which`: to device memory an object of that size appears, then the
    /// one it supersedes goes — and the host creates nothing.
    fn ref_retenant(&mut self, which: usize, len: usize, created_before: u64) {
        self.used += len * 8;
        self.peak = self.peak.max(self.used);
        self.reference
            .max_gauge(names::GPU_MEM_PEAK_BYTES, self.used as f64);
        self.used -= self.resident[which].1.replace(len * 8).unwrap_or(0);
        self.largest_vector = self.largest_vector.max(len);
        assert_eq!(self.dev.objects_created(), created_before);
    }

    fn vacate(&mut self, which: usize) {
        let (h, tenant) = &mut self.resident[which % 3];
        self.dev.vacate(*h).expect("resident handle");
        self.used -= tenant.take().unwrap_or(0);
    }

    /// A staged upload of three vectors (lengths `len`, `len / 2`, `len +
    /// 3`) into the residents, rotated by `seed`: the link is crossed once
    /// for the summed bytes, the tenancies change hands in list order.
    fn upload_staged(&mut self, len: usize, seed: u64) {
        let payload: Vec<f64> = (0..len + 3)
            .map(|i| (seed % 89) as f64 - i as f64)
            .collect();
        let lens = [len, len / 2, len + 3];
        let order = [0, 1, 2].map(|k| (k + seed as usize) % 3);
        let parts: Vec<(VectorHandle, &[f64])> = order
            .iter()
            .zip(lens)
            .map(|(&which, n)| (self.resident[which].0, &payload[..n]))
            .collect();
        let created = self.dev.objects_created();
        self.dev
            .upload_staged(&parts, DEFAULT_STREAM)
            .expect("fits");
        for (which, n) in order.into_iter().zip(lens) {
            self.ref_retenant(which, n, created);
        }
        // One crossing: one latency for the lot, not one per vector.
        let bytes = 8 * lens.iter().sum::<usize>();
        let cost = self.dev.cost_model();
        let t = cost.link_latency_ns + bytes as f64 / cost.link_bw_bytes_per_ns;
        self.reference.incr(names::GPU_H2D_TRANSFERS, 1.0);
        self.reference.incr(names::GPU_H2D_BYTES, bytes as f64);
        self.reference.incr(names::GPU_TRANSFER_NS, t);
        for (which, n) in order.into_iter().zip(lens) {
            assert_eq!(
                self.dev
                    .download_vector(self.resident[which].0, DEFAULT_STREAM)
                    .expect("tenanted"),
                &payload[..n]
            );
            self.ref_transfer(n * 8, false);
        }
    }

    fn upload(&mut self, len: usize, seed: u64) {
        let v: Vec<f64> = (0..len)
            .map(|i| (seed % 97) as f64 - 48.0 + i as f64)
            .collect();
        let h = self.dev.upload_vector(&v, DEFAULT_STREAM).expect("fits");
        self.ref_insert(h, len);
        self.ref_transfer(len * 8, true);
        assert_eq!(self.dev.download_vector(h, DEFAULT_STREAM).unwrap(), v);
        self.ref_transfer(len * 8, false);
    }

    fn free(&mut self, pick: usize) {
        if self.live.is_empty() {
            return;
        }
        let (h, bytes) = self.live.swap_remove(pick % self.live.len());
        self.dev.free(h).expect("live handle");
        self.used -= bytes;
        self.dead.push(h);
    }

    fn dense_custom(&mut self, fl: f64, bytes: f64, sparse: bool) {
        self.dev.charge_custom(fl, bytes, sparse, DEFAULT_STREAM);
        let cost = self.dev.cost_model();
        let t = if sparse {
            cost.sparse_kernel_ns(fl, bytes)
        } else {
            cost.dense_kernel_ns(fl, bytes)
        };
        self.ref_kernel(fl, t);
    }

    /// `vec_mul` of a live vector with itself: a dense kernel whose result
    /// moves into the resident vector.
    fn vec_mul(&mut self, pick: usize) {
        if self.live.is_empty() {
            return;
        }
        let (h, bytes) = self.live[pick % self.live.len()];
        let n = bytes / 8;
        let created = self.dev.objects_created();
        self.dev
            .vec_mul(h, h, self.resident[0].0, DEFAULT_STREAM)
            .expect("same length");
        let t = self
            .dev
            .cost_model()
            .dense_kernel_ns(n as f64, (3 * n * 8) as f64);
        self.ref_kernel(n as f64, t);
        self.ref_retenant(0, n, created);
    }

    /// Books a kernel of `class` on storage `M` over the given sizes.
    fn ref_class<M: Model>(&mut self, class: Class, r: usize, c: usize, z: usize) {
        let (fl, bytes, sparse_rate) = class_cost(M::SPARSE, class, r, c, z);
        let cost = self.dev.cost_model();
        let t = if sparse_rate {
            cost.sparse_kernel_ns(fl, bytes as f64)
        } else {
            cost.dense_kernel_ns(fl, bytes as f64)
        };
        self.ref_kernel(fl, t);
    }

    /// Books a modelled allocation that is not an object insert.
    fn ref_alloc(&mut self, bytes: usize, gauge: bool) {
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        if gauge {
            self.reference
                .max_gauge(names::GPU_MEM_PEAK_BYTES, self.used as f64);
        }
    }

    /// One kernel of class `pick` on storage `M`, against the fixture: the
    /// device runs it, the reference books what the cost model says it is.
    fn class<M: Model>(&mut self, pick: usize) {
        let class = Class::ALL[pick % Class::ALL.len()];
        let side = *M::side(self);
        let (x4, x3, out) = (self.x4, self.x3, self.resident[0].0);
        // Entries the 3×4 matrix stores, and the LU of its square block.
        let stored = if M::SPARSE { self.nnz } else { 12 };
        let fill = if M::SPARSE { self.fill } else { 9 };
        let created = self.dev.objects_created();
        let st = DEFAULT_STREAM;
        match class {
            Class::Matvec => {
                let y = self.dev.matvec(side.a, x4, st).expect("shapes agree");
                self.ref_class::<M>(class, 3, 4, stored);
                self.ref_insert(y, 3);
            }
            Class::MatvecTransposed | Class::Residual | Class::Pricing | Class::ExtractColumn => {
                let len = match class {
                    Class::MatvecTransposed => {
                        self.dev.matvec_transposed(side.a, x3, out, st).map(|()| 4)
                    }
                    Class::Residual => self.dev.residual(x3, side.a, x4, out, st).map(|()| 3),
                    Class::Pricing => self.dev.pricing(side.a, x3, x4, out, st).map(|()| 4),
                    _ => self.dev.extract_column(side.a, 3, out, st).map(|()| 3),
                }
                .expect("shapes agree");
                self.ref_class::<M>(class, 3, 4, stored);
                self.ref_retenant(0, len, created);
            }
            Class::LuFactor | Class::LuSolve => {
                let f = self.dev.lu_factor(side.square, st).expect("nonsingular");
                self.ref_class::<M>(Class::LuFactor, 3, 0, fill);
                // Dense: packed factors and permutation; sparse: the fill.
                let bytes = if M::SPARSE { fill * 16 } else { 9 * 8 + 3 * 8 };
                self.ref_alloc(bytes, true);
                if class == Class::LuSolve {
                    let x = self.dev.lu_solve(f, x3, st).expect("factored");
                    self.ref_class::<M>(class, 3, 0, fill);
                    self.ref_insert(x, 3);
                }
                self.dev.free(f).expect("live factors");
                self.used -= bytes;
            }
            Class::EtaFactor => {
                self.dev
                    .eta_factor(side.a, &[0, 1, 2], side.eta, st)
                    .expect("nonsingular");
                if !M::SPARSE {
                    // The gathered block is staged, factorized, released.
                    let t = self.dev.cost_model().dense_kernel_ns(0.0, 2.0 * 72.0);
                    self.ref_kernel(0.0, t);
                    self.ref_alloc(72, true);
                }
                self.ref_class::<M>(class, 3, 0, fill);
                let bytes = if M::SPARSE { fill * 16 + 24 } else { 72 + 24 };
                self.ref_alloc(bytes, true);
                if !M::SPARSE {
                    self.used -= 72;
                }
                let replaced = M::side(self).tenant.replace((bytes, 0));
                self.used -= replaced.map_or(0, |(bytes, _)| bytes);
            }
            Class::EtaFtran | Class::EtaBtran => {
                let solved = if class == Class::EtaFtran {
                    self.dev.eta_ftran(side.eta, x3, out, st)
                } else {
                    self.dev.eta_btran(side.eta, x3, out, st)
                };
                // A vacant eta file answers no solve, and charges none.
                // (The refused kernel leaves `out` unreadable, its bytes
                // accounted for until the next tenant moves in.)
                let Some((_, etas)) = side.tenant else {
                    assert!(matches!(solved, Err(GpuError::InvalidHandle(_))));
                    return;
                };
                solved.expect("factored");
                self.ref_class::<M>(class, 3, etas, fill);
                self.ref_retenant(0, 3, created);
            }
            Class::EtaUpdate => {
                let updated = self.dev.eta_update(side.eta, pick % 3, x3, st);
                // The eta column is reserved first, and released if there is
                // no file for it.
                self.ref_alloc(24, false);
                let Some((bytes, etas)) = side.tenant else {
                    assert!(matches!(updated, Err(GpuError::InvalidHandle(_))));
                    self.used -= 24;
                    return;
                };
                updated.expect("nonzero pivot");
                self.ref_class::<M>(class, 3, 1, 3);
                M::side(self).tenant = Some((bytes + 24, etas + 1));
            }
            Class::AppendCut => {
                let (rows, cols) = side.cut_shape;
                let row = vec![1.0; cols];
                let mut col = vec![0.0; rows + 1];
                col[rows] = 1.0;
                self.dev
                    .append_cut(side.cuts, &row, &col, st)
                    .expect("well-shaped cut");
                let entries = if M::SPARSE { cols + 1 } else { cols };
                let (_, row_bytes, _) = class_cost(M::SPARSE, class, 1, cols, entries);
                let col_bytes = if M::SPARSE { 0 } else { (rows + 1) * 8 };
                // Parts are reserved one by one, outside the peak gauge.
                self.ref_alloc(row_bytes, false);
                self.ref_transfer(row_bytes + col_bytes, true);
                self.ref_class::<M>(class, 1, cols, entries);
                if !M::SPARSE {
                    self.ref_alloc(col_bytes, false);
                    let t = self.dev.cost_model().dense_kernel_ns(0.0, col_bytes as f64);
                    self.ref_kernel(0.0, t);
                }
                M::side(self).cut_shape = (rows + 1, cols + 1);
            }
        }
    }

    fn batched(&mut self, lanes: usize, seed: u64, sparse: bool) {
        let per_lane: Vec<(f64, f64)> = (0..lanes)
            .map(|l| {
                (
                    ((seed >> (l % 32)) % 1000) as f64,
                    ((seed >> (l % 16)) % 4096) as f64,
                )
            })
            .collect();
        let name = if sparse { "fo.spmv" } else { "wave.ftran" };
        let charged =
            self.dev
                .batched_wave_kernel(name, per_lane.iter().copied(), sparse, DEFAULT_STREAM);
        if lanes == 0 {
            assert_eq!(charged, 0.0);
            return;
        }
        let cost = self.dev.cost_model();
        let rate = if sparse {
            cost.sparse_flops_per_ns
        } else {
            cost.dense_flops_per_ns
        };
        let per_op = per_lane
            .iter()
            .map(|&(fl, by)| (fl / rate).max(by / cost.mem_bw_bytes_per_ns))
            .fold(0.0, f64::max);
        let t = cost.batched_kernel_ns(lanes, per_op);
        assert_eq!(charged.to_bits(), t.to_bits());
        self.ref_kernel(per_lane.iter().map(|p| p.0).sum(), t);
    }

    fn check(&mut self) {
        let got = self.dev.metrics();
        // Same keys present, and `==` on the values...
        assert_eq!(got, self.reference);
        // ...which for f64 is weaker than same bits, so compare those too.
        for ((k, a), (_, b)) in got.counters().zip(self.reference.counters()) {
            assert_eq!(a.to_bits(), b.to_bits(), "counter {k}");
        }
        for ((k, a), (_, b)) in got.gauges().zip(self.reference.gauges()) {
            assert_eq!(a.to_bits(), b.to_bits(), "gauge {k}");
        }
        assert_eq!(
            self.dev.stats(),
            DeviceStats::from_registry(&self.reference)
        );
        // Recycling buffers is invisible to modelled device memory...
        assert_eq!(self.dev.memory().used(), self.used);
        assert_eq!(self.dev.memory().peak(), self.peak);
        // ...and bounded on the host.
        assert!(self.dev.pool_retained_bytes() <= 16 * 8 * self.largest_vector);
        // A vacated resident vector answers no read (and charges none).
        for (h, tenant) in self.resident {
            if tenant.is_none() {
                assert!(matches!(
                    self.dev.download_vector(h, DEFAULT_STREAM),
                    Err(GpuError::InvalidHandle(_))
                ));
            }
        }
        // No later allocation ever resurrects a freed handle.
        for &h in &self.dead {
            assert!(matches!(
                self.dev.download_vector(h, DEFAULT_STREAM),
                Err(GpuError::InvalidHandle(_))
            ));
            assert!(self.dev.free(h).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Materialized registry and stats equal a registry updated per
    /// operation, over random mixes of every charging path.
    #[test]
    fn ledger_matches_reference_registry(
        ops in proptest::collection::vec((0u8..12, 0usize..40, any::<u64>()), 0..60)
    ) {
        let mut ls = Lockstep::new();
        for (kind, a, seed) in ops {
            match kind {
                0 | 1 => ls.upload(a, seed),
                2 => ls.free(a),
                3 => ls.dense_custom((seed % 100_000) as f64, (a * 64) as f64, a % 2 == 0),
                4 => ls.vec_mul(a),
                5 | 11 if seed % 2 == 0 => ls.class::<MatrixHandle>(a),
                5 | 11 => ls.class::<SparseHandle>(a),
                6 => ls.batched(a % 9, seed, a % 2 == 0),
                7 => {
                    ls.dev.charge_transfer(a * 8, seed % 2 == 0, DEFAULT_STREAM);
                    ls.ref_transfer(a * 8, seed % 2 == 0);
                }
                8 => ls.vacate(a),
                9 => ls.upload_staged(a, seed),
                _ => {
                    ls.dev.synchronize();
                    ls.reference.incr(names::GPU_SYNCS, 1.0);
                }
            }
            ls.check();
        }
    }
}

#[test]
fn untouched_series_stay_absent() {
    let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
    assert!(dev.metrics().is_empty());
    assert_eq!(dev.stats(), DeviceStats::default());
    // A custom kernel touches the three kernel series and nothing else.
    dev.charge_custom(10.0, 80.0, false, DEFAULT_STREAM);
    let m = dev.metrics();
    let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
    assert_eq!(
        keys,
        [
            names::GPU_KERNEL_FLOPS,
            names::GPU_KERNEL_LAUNCHES,
            names::GPU_KERNEL_NS
        ]
    );
    assert_eq!(m.gauges().count(), 0);
    // A zero-byte raw reservation creates the peak gauge, at zero.
    let raw = dev.alloc_raw(0).unwrap();
    assert_eq!(
        dev.metrics().gauges().collect::<Vec<_>>(),
        [(names::GPU_MEM_PEAK_BYTES, 0.0)]
    );
    dev.free(raw).unwrap();
}

#[test]
fn slab_rejects_stale_handles_and_recycling_is_invisible() {
    let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
    let a = dev.upload_vector(&[1.0, 2.0, 3.0], DEFAULT_STREAM).unwrap();
    let (used, peak) = (dev.memory().used(), dev.memory().peak());
    assert_eq!((used, peak), (24, 24));
    dev.free(a).unwrap();
    assert_eq!(dev.memory().used(), 0);
    // Freed, then double-freed.
    assert!(matches!(
        dev.download_vector(a, DEFAULT_STREAM),
        Err(GpuError::InvalidHandle(_))
    ));
    assert!(matches!(dev.free(a), Err(GpuError::InvalidHandle(_))));
    assert_eq!(
        dev.memory().used(),
        0,
        "a failed free must not release bytes"
    );
    // The next vector reuses the slot and the buffer; the old handle stays
    // dead and the new one reads its own data, for any number of rounds.
    let mut previous = a;
    for round in 0..1000 {
        let v = [round as f64, 0.5];
        let h = dev.upload_vector(&v, DEFAULT_STREAM).unwrap();
        assert_ne!(h, previous);
        assert!(dev.vec_get([(previous, 0)], DEFAULT_STREAM).is_err());
        assert!(dev.vec_get([(a, 0)], DEFAULT_STREAM).is_err());
        assert_eq!(dev.download_vector(h, DEFAULT_STREAM).unwrap(), v);
        assert_eq!(dev.memory().used(), 16);
        dev.free(h).unwrap();
        previous = h;
    }
    assert_eq!(dev.memory().peak(), 24);
    assert_eq!(dev.memory().allocation_count(), 1001);
    assert!(dev.pool_retained_bytes() <= 16 * 8 * 3);
}

/// How [`a_chain_pays_one_launch_and_every_body`] issues its kernels.
#[derive(Clone, Copy, PartialEq)]
enum Issue {
    /// Kernel by kernel, each a launch of its own.
    Unchained,
    /// All four as one chain.
    OneChain,
    /// As two chains on one stream: the first reads nothing back, so it is
    /// held and the second continues it.
    Held,
}

/// A four-kernel launch chain modelled by hand: `vec_mul` (dense),
/// `matvec_transposed` (CSR), an `argmin_masked` whose result the host wants,
/// `vec_mul` again, and a gather of the entry the argmin chose — one launch,
/// every flop, every body, and the two read-backs staged into one transfer
/// behind the last kernel; to device memory the chain is the four kernels.
/// Split into an apply-shaped chain (the first two kernels, nothing read
/// back) and a select-shaped one, it is the same to the last bit: the first
/// chain is held and the second continues it.
#[test]
fn a_chain_pays_one_launch_and_every_body() {
    let dense = DenseMatrix::from_rows(&[vec![4.0, 0.0, -1.0], vec![0.0, 5.0, 0.5]])
        .expect("rectangular rows");
    let csr = CsrMatrix::from_dense(&dense);
    // The same program on three devices.
    let run = |issue: Issue| {
        let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
        let a = dev.upload_sparse(&csr, DEFAULT_STREAM).expect("fits");
        let x = dev
            .upload_vector(&[1.0, 2.0], DEFAULT_STREAM)
            .expect("fits");
        let [sq, y, ysq] = [(); 3].map(|()| dev.vacant_vector());
        let before = (dev.metrics(), dev.elapsed_ns());
        let apply = |d: &mut GpuDevice| {
            d.vec_mul(x, x, sq, DEFAULT_STREAM)?;
            d.matvec_transposed(a, sq, y, DEFAULT_STREAM)
        };
        let select = |d: &mut GpuDevice| {
            // The chain goes on from what the reduction found.
            let (at, least) = d
                .argmin_masked(y, y, DEFAULT_STREAM)?
                .expect("nonzero mask");
            d.vec_mul(y, y, ysq, DEFAULT_STREAM)?;
            let [squared] = d.vec_get([(ysq, at)], DEFAULT_STREAM)?;
            Ok::<_, GpuError>((at, least, squared))
        };
        let found = match issue {
            Issue::Unchained => apply(&mut dev).and_then(|()| select(&mut dev)),
            Issue::OneChain => dev.chain(|d| apply(d).and_then(|()| select(d))),
            Issue::Held => dev.chain(apply).and_then(|()| dev.chain(select)),
        };
        assert_eq!(found.expect("shapes agree"), (2, 1.0, 1.0));
        assert_eq!(
            dev.download_vector(ysq, DEFAULT_STREAM).expect("tenanted"),
            [16.0, 400.0, 1.0]
        );
        (dev, before)
    };
    let (plain, _) = run(Issue::Unchained);
    let (held, _) = run(Issue::Held);
    let (mut dev, (mut reference, started)) = run(Issue::OneChain);

    let cost = dev.cost_model().clone();
    let nnz = csr.nnz();
    let kernels = [
        (2.0, 48.0, cost.dense_flops_per_ns),
        (
            flops::spmv(nnz),
            (nnz * 16) as f64,
            cost.sparse_flops_per_ns,
        ),
        (3.0, 48.0, cost.dense_flops_per_ns),
        (3.0, 72.0, cost.dense_flops_per_ns),
    ];
    let mut now = started;
    reference.incr(names::GPU_KERNEL_LAUNCHES, 1.0);
    for (k, (fl, bytes, rate)) in kernels.into_iter().enumerate() {
        let body = (fl / rate).max(bytes / cost.mem_bw_bytes_per_ns);
        let t = if k == 0 {
            cost.launch_latency_ns + body
        } else {
            body
        };
        reference.incr(names::GPU_KERNEL_FLOPS, fl);
        reference.incr(names::GPU_KERNEL_NS, t);
        now += t;
    }
    // The chain's staged read-back (the argmin's 16 bytes and the gather's
    // 8, behind the last kernel), then the one that checked the result.
    for bytes in [16 + 8, 24] {
        let t = cost.transfer_ns(bytes);
        reference.incr(names::GPU_D2H_TRANSFERS, 1.0);
        reference.incr(names::GPU_D2H_BYTES, bytes as f64);
        reference.incr(names::GPU_TRANSFER_NS, t);
        now += t;
    }
    reference.max_gauge(names::GPU_MEM_PEAK_BYTES, dev.memory().peak() as f64);
    let got = dev.metrics();
    assert_eq!(got, reference);
    for ((k, a), (_, b)) in got.counters().zip(reference.counters()) {
        assert_eq!(a.to_bits(), b.to_bits(), "counter {k}");
    }
    assert_eq!(dev.elapsed_ns().to_bits(), now.to_bits());
    // Held and continued, two chains are the one chain.
    assert_eq!(held.metrics(), got);
    for ((k, a), (_, b)) in held.metrics().counters().zip(got.counters()) {
        assert_eq!(a.to_bits(), b.to_bits(), "held counter {k}");
    }
    assert_eq!(held.elapsed_ns().to_bits(), now.to_bits());
    // Three launches, one link crossing and their latencies are all the
    // chain saved: the same flops, the same bytes back.
    assert_eq!(plain.stats().kernel_launches, 4);
    assert_eq!(plain.stats().d2h_transfers, 3);
    assert_eq!(plain.stats().d2h_bytes, dev.stats().d2h_bytes);
    assert_eq!(
        plain.metrics().counter(names::GPU_KERNEL_FLOPS),
        got.counter(names::GPU_KERNEL_FLOPS)
    );
    let saved = plain.elapsed_ns() - dev.elapsed_ns();
    assert!(saved > 2.99 * cost.launch_latency_ns + 0.99 * cost.link_latency_ns);
    assert!(saved < 3.01 * cost.launch_latency_ns + 1.01 * cost.link_latency_ns);
    // Modelled memory saw the same allocations either way.
    let memory = |d: &GpuDevice| {
        let m = d.memory();
        (m.used(), m.peak(), m.allocation_count())
    };
    assert_eq!(memory(&dev), memory(&plain));

    // A chain that fails midway leaves the scope closed: the next unchained
    // kernel is a launch of its own again, and so is the one after it.
    let x = dev
        .upload_vector(&[1.0, 2.0], DEFAULT_STREAM)
        .expect("fits");
    let longer = dev.upload_vector(&[1.0; 3], DEFAULT_STREAM).expect("fits");
    let out = dev.vacant_vector();
    let launches = dev.stats().kernel_launches;
    let failed = dev.chain(|d| {
        d.vec_mul(x, x, out, DEFAULT_STREAM)?;
        d.vec_mul(x, longer, out, DEFAULT_STREAM)
    });
    assert!(matches!(failed, Err(GpuError::Linalg(_))));
    assert_eq!(dev.stats().kernel_launches, launches + 1);
    dev.charge_custom(1.0, 8.0, false, DEFAULT_STREAM);
    dev.charge_custom(1.0, 8.0, false, DEFAULT_STREAM);
    assert_eq!(dev.stats().kernel_launches, launches + 3);
}

/// A chain's read-backs are staged: summed, one transfer, behind the last
/// kernel — the D2H twin of `upload_staged`.
#[test]
fn a_chain_crosses_back_once() {
    let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
    let cost = dev.cost_model().clone();
    let x = dev
        .upload_vector(&[3.0, 1.0, 2.0], DEFAULT_STREAM)
        .expect("fits");
    let [out, cube] = [(); 2].map(|()| dev.vacant_vector());
    let link = |d: &GpuDevice| {
        let s = d.stats();
        (s.d2h_transfers, s.d2h_bytes)
    };

    // Three read-backs in a chain of three kernels: 16 + 8 + 24 bytes in one
    // envelope, enqueued after the last kernel — the clock is the kernels'
    // bodies, one launch, and one transfer of the sum.
    let (before, started) = (link(&dev), dev.elapsed_ns());
    let kernel_ns = dev.stats().kernel_ns;
    let (least, entry, all) = dev
        .chain(|d| {
            let least = d.argmin_masked(x, x, DEFAULT_STREAM)?;
            let [entry] = d.vec_get([(x, 2)], DEFAULT_STREAM)?;
            assert_eq!(link(d), before, "nothing crosses while the chain runs");
            d.vec_mul(x, x, out, DEFAULT_STREAM)?;
            let all = d.download_vector(out, DEFAULT_STREAM)?;
            d.vec_mul(out, x, cube, DEFAULT_STREAM)?;
            Ok::<_, GpuError>((least, entry, all))
        })
        .expect("shapes agree");
    assert_eq!((least, entry), (Some((1, 1.0)), 2.0));
    assert_eq!(all, [9.0, 1.0, 4.0]);
    assert_eq!(link(&dev), (before.0 + 1, before.1 + 16 + 8 + 24));
    let kernels = dev.stats().kernel_ns - kernel_ns;
    let expected = kernels + cost.transfer_ns(48);
    assert!(
        (dev.elapsed_ns() - started - expected).abs() < 1e-6,
        "the transfer follows the last kernel"
    );

    // A chain that reads nothing back crosses nothing.
    let before = link(&dev);
    dev.chain(|d| d.vec_mul(x, x, out, DEFAULT_STREAM))
        .expect("shapes agree");
    assert_eq!(link(&dev), before);

    // A chain that fails midway has charged the kernel it ran and sends
    // back what that kernel staged; the scope is closed and nothing stays
    // staged for the next transfer to pick up.
    let longer = dev.upload_vector(&[1.0; 4], DEFAULT_STREAM).expect("fits");
    let (before, launches) = (link(&dev), dev.stats().kernel_launches);
    let used = dev.memory().used();
    let failed = dev.chain(|d| {
        d.argmin_masked(x, x, DEFAULT_STREAM)?;
        d.vec_mul(x, longer, out, DEFAULT_STREAM)
    });
    assert!(matches!(failed, Err(GpuError::Linalg(_))));
    assert_eq!(dev.stats().kernel_launches, launches + 1);
    assert_eq!(link(&dev), (before.0 + 1, before.1 + 16));
    assert_eq!(dev.memory().used(), used);
    // Outside a chain a read-back crosses at once, alone.
    dev.vec_get([(x, 0)], DEFAULT_STREAM).expect("in range");
    assert_eq!(link(&dev), (before.0 + 2, before.1 + 16 + 8));
}

/// A loop the device runs inside one chain: each iteration after the first
/// relaunches, so it is charged one more launch latency and counted as a
/// launch, while what every iteration stages still crosses once — the same
/// clock, launches and bytes as the iterations as chains of their own, one
/// crossing instead of one per iteration.
#[test]
fn a_relaunched_chain_crosses_back_once() {
    let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
    let cost = dev.cost_model().clone();
    let x = dev
        .upload_vector(&[3.0, 1.0, 2.0], DEFAULT_STREAM)
        .expect("fits");
    let out = dev.vacant_vector();
    let iteration = |d: &mut GpuDevice| {
        d.argmin_masked(x, x, DEFAULT_STREAM)?;
        d.vec_mul(x, x, out, DEFAULT_STREAM)
    };
    let ledger = |d: &GpuDevice| {
        let s = d.stats();
        (s.kernel_launches, s.d2h_transfers, s.d2h_bytes, s.kernel_ns)
    };
    // Before the chain's first kernel a relaunch does nothing.
    let (before, started) = (ledger(&dev), dev.elapsed_ns());
    dev.chain(|d| {
        for i in 0..3 {
            d.relaunch();
            iteration(d)?;
            assert_eq!(ledger(d).1, before.1, "iteration {i} crossed");
        }
        Ok::<_, GpuError>(())
    })
    .expect("shapes agree");
    let after = ledger(&dev);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (3, 1, 3 * 16)
    );
    let expected = after.3 - before.3 + cost.transfer_ns(48);
    assert!((dev.elapsed_ns() - started - expected).abs() < 1e-6);

    // The same iterations as chains of their own: the same launches,
    // bytes and kernel time, and three crossings.
    let (before, kernel_ns) = (ledger(&dev), after.3);
    for _ in 0..3 {
        dev.chain(iteration).expect("shapes agree");
    }
    let after = ledger(&dev);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (3, 3, 3 * 16)
    );
    assert!((after.3 - kernel_ns - (expected - cost.transfer_ns(48))).abs() < 1e-6);

    // Outside a chain it does nothing either.
    dev.relaunch();
    assert_eq!(ledger(&dev), after);
}

/// A chain that launched and read nothing back is *held* on its stream: the
/// next chain there continues its launch, and the pair is one launch and
/// one crossing with every body charged. Anything charged on that stream
/// outside a chain, or a synchronize, submits the held launch first; a
/// chain on another stream holds and submits its own.
#[test]
fn a_chain_that_reads_nothing_back_is_held() {
    fn device(config: DeviceConfig) -> (GpuDevice, [VectorHandle; 4]) {
        let mut dev = GpuDevice::new(config);
        let x = dev
            .upload_vector(&[3.0, 1.0, 2.0], DEFAULT_STREAM)
            .expect("fits");
        let longer = dev.upload_vector(&[1.0; 4], DEFAULT_STREAM).expect("fits");
        let [out, cube] = [(); 2].map(|()| dev.vacant_vector());
        (dev, [x, longer, out, cube])
    }
    // A pivot's two halves in miniature: an apply-shaped chain stores and
    // reads nothing back, a select-shaped chain reduces and reads back.
    let apply = |d: &mut GpuDevice, [x, _, out, cube]: [VectorHandle; 4], s| {
        d.chain(|d| {
            d.vec_mul(x, x, out, s)?;
            d.vec_mul(out, x, cube, s)
        })
        .expect("shapes agree");
    };
    let select = |d: &mut GpuDevice, [x, _, out, cube]: [VectorHandle; 4], s| {
        d.chain(|d| {
            let least = d.argmin_masked(cube, cube, s)?;
            d.vec_mul(cube, x, out, s)?;
            Ok::<_, GpuError>(least)
        })
        .expect("shapes agree")
    };
    let counts = |d: &GpuDevice| {
        let s = d.stats();
        (s.kernel_launches, s.d2h_transfers)
    };

    // Apply, then select: one launch, one crossing — to the last bit the
    // two as one chain.
    let (mut held, v) = device(DeviceConfig::gpu(1));
    let (mut one, _) = device(DeviceConfig::gpu(1));
    let before = counts(&held);
    apply(&mut held, v, DEFAULT_STREAM);
    assert_eq!(counts(&held), (before.0 + 1, before.1), "held, not crossed");
    assert_eq!(select(&mut held, v, DEFAULT_STREAM), Some((1, 1.0)));
    assert_eq!(counts(&held), (before.0 + 1, before.1 + 1));
    one.chain(|d| {
        d.vec_mul(v[0], v[0], v[2], DEFAULT_STREAM)?;
        d.vec_mul(v[2], v[0], v[3], DEFAULT_STREAM)?;
        d.argmin_masked(v[3], v[3], DEFAULT_STREAM)?;
        d.vec_mul(v[3], v[0], v[2], DEFAULT_STREAM)
    })
    .expect("shapes agree");
    assert_eq!(held.metrics(), one.metrics());
    for ((k, a), (_, b)) in held.metrics().counters().zip(one.metrics().counters()) {
        assert_eq!(a.to_bits(), b.to_bits(), "counter {k}");
    }
    assert_eq!(held.elapsed_ns().to_bits(), one.elapsed_ns().to_bits());
    // The select submitted the held launch: the next apply launches anew.
    apply(&mut held, v, DEFAULT_STREAM);
    assert_eq!(counts(&held), (before.0 + 2, before.1 + 1));

    // Anything charged on the stream outside a chain, or a synchronize,
    // between the two submits the held launch: two launches for the pair
    // (an unchained kernel is a third, of its own).
    type Between = fn(&mut GpuDevice, StreamId);
    let submitting: [(&str, Between, u64); 4] = [
        (
            "an unchained kernel",
            |d, s| d.charge_custom(1.0, 8.0, false, s),
            3,
        ),
        (
            "an unchained upload",
            |d, s| d.charge_transfer(8, true, s),
            2,
        ),
        (
            "an unchained read-back",
            |d, s| d.charge_transfer(8, false, s),
            2,
        ),
        (
            "a synchronize",
            |d, _| {
                d.synchronize();
            },
            2,
        ),
    ];
    for (what, between, launches) in submitting {
        let (mut dev, v) = device(DeviceConfig::gpu(1));
        let before = counts(&dev);
        apply(&mut dev, v, DEFAULT_STREAM);
        between(&mut dev, DEFAULT_STREAM);
        select(&mut dev, v, DEFAULT_STREAM);
        assert_eq!(counts(&dev).0, before.0 + launches, "{what}");
    }

    // Another stream holds and submits its own: interleaved pairs on two
    // streams are one launch each, and neither an unchained kernel nor a
    // read-back chain on stream 1 submits what stream 0 holds.
    let (mut dev, v) = device(DeviceConfig::gpu(1));
    let s1 = dev.create_stream();
    let before = counts(&dev);
    apply(&mut dev, v, DEFAULT_STREAM);
    apply(&mut dev, v, s1);
    select(&mut dev, v, DEFAULT_STREAM);
    select(&mut dev, v, s1);
    assert_eq!(
        counts(&dev),
        (before.0 + 2, before.1 + 2),
        "a pair a stream"
    );
    apply(&mut dev, v, DEFAULT_STREAM);
    dev.charge_custom(1.0, 8.0, false, s1);
    select(&mut dev, v, s1);
    select(&mut dev, v, DEFAULT_STREAM);
    assert_eq!(
        counts(&dev),
        (before.0 + 5, before.1 + 4),
        "stream 0 stayed held"
    );

    // A failed chain that launched is held like any other.
    let (mut dev, v) = device(DeviceConfig::gpu(1));
    let [x, longer, out, _] = v;
    let before = counts(&dev);
    let failed = dev.chain(|d| {
        d.vec_mul(x, x, out, DEFAULT_STREAM)?;
        d.vec_mul(x, longer, out, DEFAULT_STREAM)
    });
    assert!(matches!(failed, Err(GpuError::Linalg(_))));
    apply(&mut dev, v, DEFAULT_STREAM);
    select(&mut dev, v, DEFAULT_STREAM);
    assert_eq!(counts(&dev), (before.0 + 1, before.1 + 1));

    // On an executor whose launches cost nothing, holding moves nothing but
    // the launch count: fenced by a synchronize after every chain, the same
    // program has the same clock, flops, kernel time and transfers, bit for
    // bit.
    let program = |fence: bool| {
        let (mut dev, v) = device(DeviceConfig::cpu());
        for _ in 0..3 {
            apply(&mut dev, v, DEFAULT_STREAM);
            if fence {
                dev.synchronize();
            }
            select(&mut dev, v, DEFAULT_STREAM);
            if fence {
                dev.synchronize();
            }
        }
        let all = dev.metrics();
        let mut kept = MetricsRegistry::new();
        for (k, v) in all.counters() {
            if ![names::GPU_KERNEL_LAUNCHES, names::GPU_SYNCS].contains(&k) {
                kept.incr(k, v);
            }
        }
        for (k, v) in all.gauges() {
            kept.max_gauge(k, v);
        }
        let launches = all.counter(names::GPU_KERNEL_LAUNCHES);
        (kept, dev.elapsed_ns(), launches)
    };
    let ((held, held_ns, held_launches), (fenced, fenced_ns, fenced_launches)) =
        (program(false), program(true));
    assert_eq!(held, fenced);
    for ((k, a), (_, b)) in held.counters().zip(fenced.counters()) {
        assert_eq!(a.to_bits(), b.to_bits(), "counter {k}");
    }
    assert_eq!(held_ns.to_bits(), fenced_ns.to_bits());
    assert_eq!((held_launches, fenced_launches), (3.0, 6.0));
}
