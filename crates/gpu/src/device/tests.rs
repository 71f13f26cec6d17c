//! Unit tests of the device: tenancy, charging, and each kernel's numerics
//! on both storages.

use super::storage::{Class, Dims};
use super::*;
use gmip_linalg::{EtaFile, SparseLu};
use std::collections::BTreeSet;
use std::fmt::Debug;

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
    dev.objects.read::<DenseMatrix>(h).cloned()
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
        let slice = per_lane.iter().copied();
        let a = by_slice.batched_wave_kernel("fo.axpy", slice, sparse, DEFAULT_STREAM);
        let repeated = std::iter::repeat_n(pair, lanes);
        let b = uniform.batched_wave_kernel("k", repeated, sparse, DEFAULT_STREAM);
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
        small_gpu().batched_wave_kernel("k", std::iter::empty(), false, DEFAULT_STREAM),
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
    dev.free(h).unwrap();
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
    assert!(dev
        .lu_solve(Factors::<MatrixHandle>(m.0, PhantomData), v, DEFAULT_STREAM)
        .is_err());
    assert!(dev
        .eta_update(Eta::<MatrixHandle>(v.0, PhantomData), 0, v, DEFAULT_STREAM)
        .is_err());
    assert!(dev
        .append_cut(MatrixHandle(v.0), &[1.0], &[1.0], DEFAULT_STREAM)
        .is_err());
    // Freed, then double-freed.
    dev.free(v).unwrap();
    assert_eq!(dev.free(v), Err(GpuError::InvalidHandle(v.0)));
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
    dev.free(a).unwrap();
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
    dev.free(b).unwrap();
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
    dev.free(out).unwrap();
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
    dev.objects.read::<EtaFile>(h).unwrap().eta_count()
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

/// A cut the device refuses — of the wrong shape, or with no room for all
/// of it — leaves counters, modelled bytes and the matrix as they were.
fn refused_cuts_change_nothing<S: Storage>()
where
    S::Matrix: Debug,
{
    let a = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]).unwrap();
    let (row, slack) = ([1.0; 3], [0.0, 0.0, 1.0]);
    let roomy = 1 << 20;
    // The well-shaped cut meets a device with no byte to spare, and one
    // with room for a dense row but not for the slack column after it.
    let cuts: [(&[f64], &[f64], usize); 4] = [
        (&[1.0; 4], &slack, roomy),
        (&row, &[0.0; 4], roomy),
        (&row, &slack, 0),
        (&row, &slack, 24),
    ];
    for (row, col, spare) in cuts {
        let mut probe = small_gpu();
        S::upload(&mut probe, &a, DEFAULT_STREAM).unwrap();
        let resident = probe.memory().used();
        let mut dev = GpuDevice::new(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: resident + spare,
            streams: 1,
        });
        let h = S::upload(&mut dev, &a, DEFAULT_STREAM).unwrap();
        let state = |dev: &GpuDevice| {
            let matrix = format!("{:?}", dev.objects.read::<S::Matrix>(h).unwrap());
            (dev.stats(), dev.memory().used(), matrix)
        };
        let before = state(&dev);
        let refused = dev.append_cut(h, row, col, DEFAULT_STREAM);
        assert!(refused.is_err(), "{}: spare {spare}", S::NAME);
        assert_eq!(state(&dev), before, "{}: spare {spare}", S::NAME);
    }
}

#[test]
fn a_refused_cut_changes_nothing() {
    refused_cuts_change_nothing::<MatrixHandle>();
    refused_cuts_change_nothing::<SparseHandle>();
    // A CSR matrix grows a column only as the slack of the new row.
    let mut dev = small_gpu();
    let a = CsrMatrix::from_dense(&test_matrix());
    let h = dev.upload_sparse(&a, DEFAULT_STREAM).unwrap();
    let before = (dev.stats(), dev.memory().used());
    assert!(matches!(
        dev.append_cut(h, &[1.0; 3], &[0.0, 2.0, 0.0, 1.0], DEFAULT_STREAM),
        Err(GpuError::Linalg(LinalgError::InvalidFormat { .. }))
    ));
    assert_eq!((dev.stats(), dev.memory().used()), before);
    assert_eq!(dev.objects.read::<CsrMatrix>(h).unwrap(), &a);
    // The slack entry is the one it is handed.
    dev.append_cut(h, &[1.0; 3], &[0.0, 0.0, 0.0, -1.0], DEFAULT_STREAM)
        .unwrap();
    assert_eq!(dev.objects.read::<CsrMatrix>(h).unwrap().get(3, 3), -1.0);
}

#[test]
fn kernel_classes_are_complete_and_distinct() {
    // `Class::ALL` is every class, once: a variant added to the enum stops
    // this match compiling until the list (and both tables) have it.
    for (i, class) in Class::ALL.into_iter().enumerate() {
        let declared = match class {
            Class::Residual => 0,
            Class::Pricing => 1,
            Class::ExtractColumn => 2,
            Class::Matvec => 3,
            Class::MatvecTransposed => 4,
            Class::LuFactor => 5,
            Class::LuSolve => 6,
            Class::EtaFactor => 7,
            Class::EtaFtran => 8,
            Class::EtaBtran => 9,
            Class::EtaUpdate => 10,
            Class::AppendCut => 11,
        };
        assert_eq!(declared, i);
    }
    fn spans<S: Storage>() -> Vec<&'static str> {
        let stages = [S::GATHER, S::APPEND_COLUMN].into_iter().flatten();
        let table = Class::ALL.into_iter().map(S::kernel).chain(stages);
        table
            .map(|kernel| {
                let (flops, _bytes) = (kernel.cost)(Dims(3, 4, 5));
                assert!(flops.is_finite() && flops >= 0.0, "{}", kernel.span);
                assert!(!kernel.span.is_empty());
                kernel.span
            })
            .collect()
    }
    let (dense, sparse) = (spans::<MatrixHandle>(), spans::<SparseHandle>());
    assert_eq!((dense.len(), sparse.len()), (14, 12));
    let distinct: BTreeSet<_> = dense.iter().chain(&sparse).collect();
    assert_eq!(distinct.len(), 26, "{dense:?} {sparse:?}");
    // The one entry off its storage's rate: a sparse file's eta column is
    // dense, and charged so.
    for class in Class::ALL {
        assert!(!MatrixHandle::kernel(class).sparse_rate);
        let sparse_rate = SparseHandle::kernel(class).sparse_rate;
        assert_eq!(sparse_rate, class != Class::EtaUpdate, "{class:?}");
    }
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
    let y = dev.matvec(sh, x, DEFAULT_STREAM).unwrap();
    assert_eq!(
        dev.download_vector(y, DEFAULT_STREAM).unwrap(),
        vec![3.0, 5.0, 2.0]
    );
    let f = dev.lu_factor(sh, DEFAULT_STREAM).unwrap();
    let b = dev.upload_vector(&[3.0, 5.0, 2.0], DEFAULT_STREAM).unwrap();
    let xs = dev.lu_solve(f, b, DEFAULT_STREAM).unwrap();
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
    dev_sparse.lu_factor(sh, DEFAULT_STREAM).unwrap();
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
    dev.extract_column(ah, 2, c2, DEFAULT_STREAM).unwrap();
    assert_eq!(
        dev.download_vector(c2, DEFAULT_STREAM).unwrap(),
        vec![-1.0, 0.0, 3.0]
    );
    assert!(dev.extract_column(ah, 9, c2, DEFAULT_STREAM).is_err());

    // Sparse pricing: d = c - At y.
    let y = dev.upload_vector(&[1.0, 1.0, 1.0], DEFAULT_STREAM).unwrap();
    let c = dev
        .upload_vector(&[5.0, 6.0, 3.0, 2.0], DEFAULT_STREAM)
        .unwrap();
    dev.pricing(ah, y, c, dvec, DEFAULT_STREAM).unwrap();
    assert_eq!(
        dev.download_vector(dvec, DEFAULT_STREAM).unwrap(),
        vec![2.0, 1.0, 1.0, 1.0]
    );

    // Sparse residual: r = b - A x with x = e0.
    let x = dev
        .upload_vector(&[1.0, 0.0, 0.0, 0.0], DEFAULT_STREAM)
        .unwrap();
    let b = dev.upload_vector(&[5.0, 5.0, 5.0], DEFAULT_STREAM).unwrap();
    dev.residual(b, ah, x, r, DEFAULT_STREAM).unwrap();
    assert_eq!(
        dev.download_vector(r, DEFAULT_STREAM).unwrap(),
        vec![1.0, 5.0, 6.0]
    );

    // Basis gather + sparse eta factorization over cols [0,1,2].
    let eta: SparseEtaHandle = dev.vacant_eta();
    let eta_count = |dev: &GpuDevice| {
        dev.objects
            .read::<EtaFile<SparseLu>>(eta)
            .map(|file| file.eta_count())
    };
    assert!(eta_count(&dev).is_err());
    dev.eta_factor(ah, &[0, 1, 2], eta, DEFAULT_STREAM).unwrap();
    assert_eq!(eta_count(&dev), Ok(0));
    // Solve B z = col 0 of A -> z = e0.
    let rhs = dev
        .upload_vector(&[4.0, 0.0, -1.0], DEFAULT_STREAM)
        .unwrap();
    dev.eta_ftran(eta, rhs, z, DEFAULT_STREAM).unwrap();
    let zv = dev.download_vector(z, DEFAULT_STREAM).unwrap();
    assert!((zv[0] - 1.0).abs() < 1e-9 && zv[1].abs() < 1e-9 && zv[2].abs() < 1e-9);
    // BTRAN against e1: check Bt w = e1.
    let e1 = dev.upload_vector(&[0.0, 1.0, 0.0], DEFAULT_STREAM).unwrap();
    dev.eta_btran(eta, e1, w, DEFAULT_STREAM).unwrap();
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
    dev.extract_column(ah, 3, c2, DEFAULT_STREAM).unwrap();
    dev.eta_ftran(eta, c2, alpha, DEFAULT_STREAM).unwrap();
    dev.eta_update(eta, 2, alpha, DEFAULT_STREAM).unwrap();
    assert_eq!(eta_count(&dev), Ok(1));
    // A singular gather (column 1 twice) leaves no factors to solve
    // with and strands no byte.
    dev.vacate(eta).unwrap();
    let vacated = dev.memory().used();
    assert!(dev.eta_factor(ah, &[1, 1, 2], eta, DEFAULT_STREAM).is_err());
    assert_eq!(dev.memory().used(), vacated);
    assert!(dev.eta_ftran(eta, rhs, z, DEFAULT_STREAM).is_err());

    // Cut append: row over cols 0..4 plus new slack col 4.
    dev.append_cut(
        ah,
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
        DEFAULT_STREAM,
    )
    .unwrap();
    let m = dev.objects.read::<CsrMatrix>(ah).unwrap();
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
    dev.free(h).unwrap();
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
    // q = 1: the kernel gathers α_rq = 2 and γ_q = 1 itself; candidates
    // (α_r[j]/2)² = [4, 1, 0.25].
    dev.devex_weight_update(gamma, alpha_r, 1, 2, DEFAULT_STREAM)
        .unwrap();
    assert_eq!(dev.stats().total_transfers(), transfers);
    // Slot 2 (the leaving variable) takes max(γ_q / α_rq², 1) = 1.
    assert_eq!(
        dev.download_vector(gamma, DEFAULT_STREAM).unwrap(),
        vec![4.0, 1.0, 1.0]
    );
    // A leaving slot or an entering column out of range, or a zero pivot
    // element, is refused before anything moves or launches.
    let zero = dev.upload_vector(&[4.0, 0.0, 1.0], DEFAULT_STREAM).unwrap();
    let launches = dev.stats().kernel_launches;
    for (alpha_r, q, leaving) in [(alpha_r, 1, 3), (alpha_r, 3, 2), (zero, 1, 2)] {
        assert!(dev
            .devex_weight_update(gamma, alpha_r, q, leaving, DEFAULT_STREAM)
            .is_err());
    }
    assert!(matches!(
        dev.devex_weight_update(gamma, zero, 1, 2, DEFAULT_STREAM),
        Err(GpuError::Linalg(LinalgError::Singular { .. }))
    ));
    assert_eq!(dev.stats().kernel_launches, launches);
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
