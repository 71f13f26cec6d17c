//! Per-class ledger pin: every matrix / factor kernel class, run on a fixed
//! 3×4 problem on both storages, with what each call left on the device
//! written out — span names, launches, flops, kernel ns, transfers, modelled
//! bytes. The numbers are the cost model's contract (every `BENCH_*.json`
//! key is a sum of them); a change to a kernel that moves one of them has
//! changed what the paper's clock says, not just how the code is laid out.

use gmip_gpu::{
    DeviceConfig, GpuDevice, GpuError, MatrixHandle, SparseHandle, Storage, VectorHandle,
    DEFAULT_STREAM,
};
use gmip_linalg::DenseMatrix;
use gmip_trace::TraceSession;

const S: usize = DEFAULT_STREAM;

/// The device after one call: cumulative counters since the fixture was
/// uploaded, and the spans the call itself emitted.
#[derive(Debug, PartialEq)]
struct After {
    spans: Vec<&'static str>,
    launches: u64,
    flops: f64,
    kernel_ns: f64,
    h2d: u64,
    d2h: u64,
    used: usize,
}

/// `(spans, launches, flops, kernel_ns, h2d, d2h, used)`.
type Pin = (&'static [&'static str], u64, f64, f64, u64, u64, usize);

struct Probe {
    dev: GpuDevice,
    log: Vec<(&'static str, After)>,
}

impl Probe {
    fn call(
        &mut self,
        class: &'static str,
        kernel: impl FnOnce(&mut GpuDevice) -> Result<(), GpuError>,
    ) {
        let session = TraceSession::start();
        let done = kernel(&mut self.dev);
        let spans = session.finish().events;
        done.unwrap_or_else(|e| panic!("{class}: {e}"));
        let stats = self.dev.stats();
        let after = After {
            spans: spans.iter().map(|e| e.event.name).collect(),
            launches: stats.kernel_launches,
            flops: stats.flops,
            kernel_ns: stats.kernel_ns,
            h2d: stats.h2d_transfers,
            d2h: stats.d2h_transfers,
            used: self.dev.memory().used(),
        };
        self.log.push((class, after));
    }
}

/// A = [B | a₃], B the nonsingular 3×3 block both LU classes factorize.
fn fixture() -> (DenseMatrix, DenseMatrix) {
    let a = DenseMatrix::from_rows(&[
        vec![4.0, 0.0, -1.0, 0.5],
        vec![0.0, 5.0, 0.0, 0.0],
        vec![-1.0, 0.0, 3.0, 0.0],
    ])
    .expect("rectangular rows");
    let b = DenseMatrix::from_rows(&[
        vec![4.0, 0.0, -1.0],
        vec![0.0, 5.0, 0.0],
        vec![-1.0, 0.0, 3.0],
    ])
    .expect("rectangular rows");
    (a, b)
}

/// The vectors every class reads or writes.
struct Vectors {
    x4: VectorHandle,
    x3: VectorHandle,
    out: [VectorHandle; 7],
}

fn vectors(dev: &mut GpuDevice) -> Vectors {
    Vectors {
        x4: dev.upload_vector(&[1.0, 2.0, -1.0, 0.5], S).expect("fits"),
        x3: dev.upload_vector(&[1.0, -2.0, 3.0], S).expect("fits"),
        out: [(); 7].map(|()| dev.vacant_vector()),
    }
}

/// Every class once, in the order an engine would meet them, on storage `M`.
fn run<M: Storage>() -> Vec<(&'static str, After)> {
    let (a, b) = fixture();
    let mut dev = GpuDevice::new(DeviceConfig::gpu(1));
    let a = M::upload(&mut dev, &a, S).expect("fits");
    let b = M::upload(&mut dev, &b, S).expect("fits");
    let v = vectors(&mut dev);
    let eta = dev.vacant_eta::<M>();
    let [yt, r, d, col, alpha, w, z] = v.out;
    let mut p = Probe {
        dev,
        log: Vec::new(),
    };
    let mut factors = None;
    p.call("matvec", |d| d.matvec(a, v.x4, S).map(drop));
    p.call("matvec_transposed", |d| d.matvec_transposed(a, v.x3, yt, S));
    p.call("residual", |d| d.residual(v.x3, a, v.x4, r, S));
    p.call("pricing", |dev| dev.pricing(a, v.x3, v.x4, d, S));
    p.call("extract_column", |d| d.extract_column(a, 3, col, S));
    p.call("lu_factor", |d| {
        factors = Some(d.lu_factor(b, S)?);
        Ok(())
    });
    let factors = factors.expect("factorized");
    p.call("lu_solve", |d| d.lu_solve(factors, v.x3, S).map(drop));
    p.call("eta_factor", |d| d.eta_factor(a, &[0, 1, 2], eta, S));
    p.call("eta_ftran", |d| d.eta_ftran(eta, col, alpha, S));
    p.call("eta_btran", |d| d.eta_btran(eta, v.x3, w, S));
    p.call("eta_update", |d| d.eta_update(eta, 2, alpha, S));
    p.call("eta_ftran", |d| d.eta_ftran(eta, v.x3, z, S));
    p.call("eta_btran", |d| d.eta_btran(eta, v.x3, w, S));
    p.call("append_cut", |d| {
        d.append_cut(a, &[1.0, 0.0, 1.0, 0.0], &[0.0, 0.0, 0.0, 1.0], S)
    });
    p.log
}

fn check(storage: &str, got: Vec<(&'static str, After)>, want: &[(&'static str, Pin)]) {
    assert_eq!(got.len(), want.len(), "{storage}: calls");
    for ((class, after), &(want_class, pin)) in got.into_iter().zip(want) {
        let (spans, launches, flops, kernel_ns, h2d, d2h, used) = pin;
        assert_eq!(class, want_class, "{storage}");
        let want = After {
            spans: spans.to_vec(),
            launches,
            flops,
            kernel_ns,
            h2d,
            d2h,
            used,
        };
        assert_eq!(after, want, "{storage} {class}");
        assert_eq!(
            (after.flops.to_bits(), after.kernel_ns.to_bits()),
            (want.flops.to_bits(), want.kernel_ns.to_bits()),
            "{storage} {class}"
        );
    }
}

const DENSE: [(&str, Pin); 14] = [
    ("matvec", (&["gemv"], 1, 24.0, 8000.106666666667, 4, 0, 248)),
    (
        "matvec_transposed",
        (&["gemv_transposed"], 2, 48.0, 16000.213333333333, 4, 0, 280),
    ),
    ("residual", (&["residual"], 3, 75.0, 24000.32, 4, 0, 304)),
    (
        "pricing",
        (&["pricing"], 4, 103.0, 32000.426666666666, 4, 0, 336),
    ),
    (
        "extract_column",
        (&["extract_column"], 5, 103.0, 40000.479999999996, 4, 0, 360),
    ),
    ("lu_factor", (&["lu_factor"], 6, 121.0, 48000.56, 4, 0, 456)),
    ("lu_solve", (&["lu_solve"], 7, 139.0, 56000.64, 4, 0, 480)),
    (
        "eta_factor",
        (
            &["gather_columns", "eta_factor"],
            9,
            157.0,
            72000.88,
            4,
            0,
            576,
        ),
    ),
    (
        "eta_ftran",
        (&["eta_ftran"], 10, 175.0, 80000.96, 4, 0, 600),
    ),
    (
        "eta_btran",
        (&["eta_btran"], 11, 193.0, 88001.04000000001, 4, 0, 624),
    ),
    (
        "eta_update",
        (&["eta_update"], 12, 196.0, 96001.06666666668, 4, 0, 648),
    ),
    (
        "eta_ftran",
        (&["eta_ftran"], 13, 220.0, 104001.17333333334, 4, 0, 672),
    ),
    (
        "eta_btran",
        (&["eta_btran"], 14, 244.0, 112001.28, 4, 0, 672),
    ),
    (
        "append_cut",
        (
            &["h2d", "append_row", "append_column"],
            16,
            244.0,
            128001.35111111111,
            5,
            0,
            736,
        ),
    ),
];

const SPARSE: [(&str, Pin); 14] = [
    ("matvec", (&["spmv"], 1, 12.0, 8000.106666666667, 4, 0, 320)),
    (
        "matvec_transposed",
        (&["spmv_transposed"], 2, 24.0, 16000.213333333333, 4, 0, 352),
    ),
    (
        "residual",
        (&["residual_sparse"], 3, 39.0, 24000.320476190478, 4, 0, 376),
    ),
    (
        "pricing",
        (&["pricing_sparse"], 4, 55.0, 32000.434761904762, 4, 0, 408),
    ),
    (
        "extract_column",
        (
            &["extract_column_sparse"],
            5,
            58.0,
            40000.48809523809,
            4,
            0,
            432,
        ),
    ),
    (
        "lu_factor",
        (&["sparse_lu_factor"], 6, 78.0, 48000.63095238095, 4, 0, 512),
    ),
    (
        "lu_solve",
        (&["sparse_solve"], 7, 88.0, 56000.719841269834, 4, 0, 536),
    ),
    (
        "eta_factor",
        (
            &["sparse_eta_factor"],
            8,
            108.0,
            64000.86269841269,
            4,
            0,
            640,
        ),
    ),
    (
        "eta_ftran",
        (
            &["sparse_eta_ftran"],
            9,
            118.0,
            72000.95158730158,
            4,
            0,
            664,
        ),
    ),
    (
        "eta_btran",
        (
            &["sparse_eta_btran"],
            10,
            128.0,
            80001.04047619046,
            4,
            0,
            688,
        ),
    ),
    (
        "eta_update",
        (
            &["sparse_eta_update"],
            11,
            131.0,
            88001.06714285714,
            4,
            0,
            712,
        ),
    ),
    (
        "eta_ftran",
        (
            &["sparse_eta_ftran"],
            12,
            147.0,
            96001.1826984127,
            4,
            0,
            736,
        ),
    ),
    (
        "eta_btran",
        (
            &["sparse_eta_btran"],
            13,
            163.0,
            104001.29825396826,
            4,
            0,
            736,
        ),
    ),
    (
        "append_cut",
        (
            &["h2d", "append_row_sparse"],
            14,
            163.0,
            112001.36047619047,
            5,
            0,
            792,
        ),
    ),
];

#[test]
fn every_class_charges_what_it_always_did() {
    check("dense", run::<MatrixHandle>(), &DENSE);
    check("sparse", run::<SparseHandle>(), &SPARSE);
}
