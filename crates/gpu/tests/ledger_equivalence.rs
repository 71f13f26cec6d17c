//! Property tests: the device's fixed-slot ledger, slab handle table, buffer
//! pool and resident (re-tenanted) vectors are invisible. A random operation
//! sequence is driven through
//! a [`GpuDevice`] and, in lockstep, through a reference `MetricsRegistry`
//! updated the way the device used to do it (`incr` / `max_gauge` per
//! operation) plus a by-hand model of device memory; the materialized views
//! must carry the same keys and the same bits.

use gmip_gpu::cost::flops;
use gmip_gpu::{
    DeviceConfig, DeviceStats, GpuDevice, GpuError, SparseHandle, VectorHandle, DEFAULT_STREAM,
};
use gmip_linalg::{CsrMatrix, DenseMatrix};
use gmip_trace::{names, MetricsRegistry};
use proptest::prelude::*;

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
    /// A resident CSR matrix (rows, cols, nnz) for the sparse kernels.
    sparse: (SparseHandle, usize, usize, usize),
    used: usize,
    peak: usize,
    largest_vector: usize,
}

impl Lockstep {
    fn new() -> Self {
        let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
        let dense = DenseMatrix::from_rows(&[
            vec![4.0, 0.0, -1.0, 0.5],
            vec![0.0, 5.0, 0.0, 0.0],
            vec![-1.0, 0.0, 3.0, 0.0],
        ])
        .expect("rectangular rows");
        let csr = CsrMatrix::from_dense(&dense);
        let mut reference = MetricsRegistry::new();
        let bytes = csr.size_bytes();
        let handle = dev.upload_sparse(&csr, DEFAULT_STREAM).expect("fits");
        let resident = [(); 3].map(|()| (dev.vacant_vector(), None));
        reference.max_gauge(names::GPU_MEM_PEAK_BYTES, bytes as f64);
        let t = dev.cost_model().transfer_ns(bytes);
        reference.incr(names::GPU_H2D_TRANSFERS, 1.0);
        reference.incr(names::GPU_H2D_BYTES, bytes as f64);
        reference.incr(names::GPU_TRANSFER_NS, t);
        Self {
            dev,
            reference,
            live: Vec::new(),
            dead: Vec::new(),
            resident,
            sparse: (handle, csr.rows(), csr.cols(), csr.nnz()),
            used: bytes,
            peak: bytes,
            largest_vector: 0,
        }
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
        self.dev.free_vector(h).expect("live handle");
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

    /// `spmv` (a new device vector) / `spmv_transposed` (into the resident
    /// one) against the resident CSR matrix.
    fn spmv(&mut self, transposed: bool) {
        let (a, rows, cols, nnz) = self.sparse;
        let (in_len, out_len) = if transposed {
            (rows, cols)
        } else {
            (cols, rows)
        };
        let x = self
            .dev
            .upload_vector(&vec![1.0; in_len], DEFAULT_STREAM)
            .expect("fits");
        self.ref_insert(x, in_len);
        self.ref_transfer(in_len * 8, true);
        let created = self.dev.objects_created();
        let y = if transposed {
            self.dev
                .spmv_transposed(a, x, self.resident[0].0, DEFAULT_STREAM)
                .expect("shapes agree");
            None
        } else {
            Some(self.dev.spmv(a, x, DEFAULT_STREAM).expect("shapes agree"))
        };
        let t = self
            .dev
            .cost_model()
            .sparse_kernel_ns(flops::spmv(nnz), (nnz * 16) as f64);
        self.ref_kernel(flops::spmv(nnz), t);
        match y {
            Some(y) => self.ref_insert(y, out_len),
            None => self.ref_retenant(0, out_len, created),
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
        let charged = if sparse {
            self.dev
                .batched_wave_kernel_sparse("fo.spmv", &per_lane, DEFAULT_STREAM)
        } else {
            self.dev
                .batched_wave_kernel("wave.ftran", &per_lane, DEFAULT_STREAM)
        };
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
            assert!(self.dev.free_vector(h).is_err());
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
        ops in proptest::collection::vec((0u8..11, 0usize..40, any::<u64>()), 0..60)
    ) {
        let mut ls = Lockstep::new();
        for (kind, a, seed) in ops {
            match kind {
                0 | 1 => ls.upload(a, seed),
                2 => ls.free(a),
                3 => ls.dense_custom((seed % 100_000) as f64, (a * 64) as f64, a % 2 == 0),
                4 => ls.vec_mul(a),
                5 => ls.spmv(a % 2 == 0),
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
    dev.free_raw(raw).unwrap();
}

#[test]
fn slab_rejects_stale_handles_and_recycling_is_invisible() {
    let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
    let a = dev.upload_vector(&[1.0, 2.0, 3.0], DEFAULT_STREAM).unwrap();
    let (used, peak) = (dev.memory().used(), dev.memory().peak());
    assert_eq!((used, peak), (24, 24));
    dev.free_vector(a).unwrap();
    assert_eq!(dev.memory().used(), 0);
    // Freed, then double-freed.
    assert!(matches!(
        dev.download_vector(a, DEFAULT_STREAM),
        Err(GpuError::InvalidHandle(_))
    ));
    assert!(matches!(
        dev.free_vector(a),
        Err(GpuError::InvalidHandle(_))
    ));
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
        dev.free_vector(h).unwrap();
        previous = h;
    }
    assert_eq!(dev.memory().peak(), 24);
    assert_eq!(dev.memory().allocation_count(), 1001);
    assert!(dev.pool_retained_bytes() <= 16 * 8 * 3);
}

/// A three-kernel launch chain modelled by hand: `vec_mul` (dense),
/// `spmv_transposed` (sparse), `vec_mul` again — one launch, every flop,
/// every body; to device memory the chain is the three kernels.
#[test]
fn a_chain_pays_one_launch_and_every_body() {
    let dense = DenseMatrix::from_rows(&[vec![4.0, 0.0, -1.0], vec![0.0, 5.0, 0.5]])
        .expect("rectangular rows");
    let csr = CsrMatrix::from_dense(&dense);
    // The same program on two devices: kernel by kernel, and as one chain.
    let run = |chained: bool| {
        let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
        let a = dev.upload_sparse(&csr, DEFAULT_STREAM).expect("fits");
        let x = dev
            .upload_vector(&[1.0, 2.0], DEFAULT_STREAM)
            .expect("fits");
        let [sq, y, ysq] = [(); 3].map(|()| dev.vacant_vector());
        let before = (dev.metrics(), dev.elapsed_ns());
        let kernels = |d: &mut GpuDevice| {
            d.vec_mul(x, x, sq, DEFAULT_STREAM)?;
            d.spmv_transposed(a, sq, y, DEFAULT_STREAM)?;
            d.vec_mul(y, y, ysq, DEFAULT_STREAM)
        };
        if chained {
            dev.chain(kernels).expect("shapes agree");
        } else {
            kernels(&mut dev).expect("shapes agree");
        }
        assert_eq!(
            dev.download_vector(ysq, DEFAULT_STREAM).expect("tenanted"),
            [16.0, 400.0, 1.0]
        );
        (dev, before)
    };
    let (plain, _) = run(false);
    let (mut dev, (mut reference, started)) = run(true);

    let cost = dev.cost_model().clone();
    let nnz = csr.nnz();
    let kernels = [
        (2.0, 48.0, cost.dense_flops_per_ns),
        (
            flops::spmv(nnz),
            (nnz * 16) as f64,
            cost.sparse_flops_per_ns,
        ),
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
    // The read-back that checked the result.
    let t = cost.transfer_ns(24);
    reference.incr(names::GPU_D2H_TRANSFERS, 1.0);
    reference.incr(names::GPU_D2H_BYTES, 24.0);
    reference.incr(names::GPU_TRANSFER_NS, t);
    reference.max_gauge(names::GPU_MEM_PEAK_BYTES, dev.memory().peak() as f64);
    now += t;
    let got = dev.metrics();
    assert_eq!(got, reference);
    for ((k, a), (_, b)) in got.counters().zip(reference.counters()) {
        assert_eq!(a.to_bits(), b.to_bits(), "counter {k}");
    }
    assert_eq!(dev.elapsed_ns().to_bits(), now.to_bits());
    // Two launches and their latency are all the chain saved.
    assert_eq!(plain.stats().kernel_launches, 3);
    assert_eq!(
        plain.metrics().counter(names::GPU_KERNEL_FLOPS),
        got.counter(names::GPU_KERNEL_FLOPS)
    );
    assert!(plain.elapsed_ns() - dev.elapsed_ns() > 1.99 * cost.launch_latency_ns);
    // Modelled memory saw the same allocations either way.
    let memory = |d: &GpuDevice| {
        let m = d.memory();
        (m.used(), m.peak(), m.allocation_count())
    };
    assert_eq!(memory(&dev), memory(&plain));

    // A chain that fails midway leaves the scope closed: the next kernel is
    // a launch of its own again.
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
