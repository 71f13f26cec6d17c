//! Per-layer probes of the traced run: small timed loops over single
//! public functions of each layer, on inputs taken from the workload's own
//! instances. Every probe prints the size it ran at and how many calls its
//! median is over.

use std::time::Instant;

use crate::entry::{self, LpStatus, MipInstance};
use crate::report::Values;
use crate::spans::Spans;
use crate::stats::{median, quartiles};
use crate::workloads::{Family, Inputs, NATIVE_THREADS};

/// Samples a probe's median is over.
const SAMPLES: usize = 200;

/// Median wall ns of one call of `f` over [`SAMPLES`] samples. Each sample
/// times `batch` calls in a row (so that sub-microsecond calls are not lost
/// in the clock's own cost). Returns the median and the number of calls made.
fn median_ns(
    spans: &mut Spans,
    name: &'static str,
    batch: usize,
    mut f: impl FnMut(),
) -> (f64, usize) {
    spans.scope(name, |_| {
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
        (median(&samples), SAMPLES * batch)
    })
}

fn say(name: &str, size: &str, calls: usize) {
    println!("probe {name}: {size}, median of {calls} calls");
}

/// Runs every probe and returns the per-layer values they produce.
pub fn run(
    inputs: &Inputs,
    family: Family,
    lanes: usize,
    native: bool,
    seed: u64,
    spans: &mut Spans,
) -> Result<Values, String> {
    let m = inputs.probe_instance();
    let mut v = Values::new();
    linalg(m, spans, &mut v)?;
    gpu(lanes, native, spans, &mut v);
    let root_x = lp(m, spans, &mut v)?;
    tree(spans, &mut v);
    prop(m, &root_x, spans, &mut v);
    serve(inputs, spans, &mut v);
    problems(m, family, seed, spans, &mut v)?;
    threaded(m, spans, &mut v)?;
    Ok(v)
}

fn linalg(m: &MipInstance, spans: &mut Spans, v: &mut Values) -> Result<(), String> {
    let a = entry::to_csr(m);
    let (rows, cols, nnz) = (a.rows(), a.cols(), a.nnz().max(1));
    let x: Vec<f64> = (0..cols).map(|j| 1.0 + (j % 7) as f64).collect();
    let yt: Vec<f64> = (0..rows).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut y = vec![0.0; rows];
    let mut xt = vec![0.0; cols];
    let (ns, calls) = median_ns(spans, "linalg.CsrMatrix.matvec_into", 64, || {
        entry::spmv(&a, std::hint::black_box(&x), &mut y);
    });
    v.insert("linalg.spmv_ns_per_nnz", ns / nnz as f64);
    say(
        "linalg.spmv",
        &format!("{rows}x{cols} CSR, {nnz} nnz"),
        calls,
    );
    let (ns, calls) = median_ns(spans, "linalg.CsrMatrix.matvec_transposed_into", 64, || {
        entry::spmv_t(&a, std::hint::black_box(&yt), &mut xt);
    });
    v.insert("linalg.spmv_t_ns_per_nnz", ns / nnz as f64);
    say(
        "linalg.spmv_t",
        &format!("{rows}x{cols} CSR, {nnz} nnz"),
        calls,
    );

    // An m x m basis-sized matrix at the instance's row count: A·Aᵀ + I,
    // symmetric positive definite, so the factorization never breaks down.
    let mut b = entry::DenseMatrix::identity(rows);
    let dense = a.to_dense();
    for i in 0..rows {
        for k in 0..rows {
            let dot: f64 = (0..cols).map(|j| dense.get(i, j) * dense.get(k, j)).sum();
            b.set(i, k, b.get(i, k) + dot);
        }
    }
    let (ns, calls) = median_ns(spans, "linalg.LuFactors.factorize", 1, || {
        std::hint::black_box(entry::lu_factor(&b).is_ok());
    });
    v.insert("linalg.lu_factor_us", ns / 1e3);
    say("linalg.lu_factor", &format!("{rows}x{rows} dense"), calls);
    let f = entry::lu_factor(&b)?;
    let (ns, calls) = median_ns(spans, "linalg.LuFactors.solve", 16, || {
        std::hint::black_box(entry::lu_solve(&f, &yt).is_ok());
    });
    v.insert("linalg.lu_solve_us", ns / 1e3);
    say("linalg.lu_solve", &format!("{rows}x{rows} dense"), calls);
    Ok(())
}

fn gpu(lanes: usize, native: bool, spans: &mut Spans, v: &mut Values) {
    let backend = if native {
        entry::BackendKind::Native {
            threads: NATIVE_THREADS,
        }
    } else {
        entry::BackendKind::Sim
    };
    let accel = entry::with_backend(entry::gpu(1 << 30), backend);
    let (ns, calls) = median_ns(spans, "gpu.Accel.with", 64, || {
        entry::charge_launch(&accel, 1.0e4, 8.0e4);
    });
    v.insert("gpu.charge_ns", ns);
    say(
        "gpu.charge",
        "one dense kernel charge through Accel::with",
        calls,
    );

    let exec = entry::exec(&accel);
    let mut closures: Vec<_> = (0..lanes).map(|_| || {}).collect();
    let (ns, calls) = median_ns(spans, "gpu.Accelerator.fused_dispatch", 4, || {
        let mut bodies: Vec<entry::LaneBody<'_>> = closures
            .iter_mut()
            .map(|c| c as entry::LaneBody<'_>)
            .collect();
        entry::fused_dispatch(exec.as_ref(), &mut bodies);
    });
    v.insert("gpu.dispatch_us", ns / 1e3);
    say(
        "gpu.dispatch",
        &format!(
            "{lanes} empty lane bodies on {}",
            if native { "Native{threads:2}" } else { "Sim" }
        ),
        calls,
    );
    // The probe's own dispatches must show up in the backend's registry.
    debug_assert!(!native || !entry::wall_metrics(&accel).is_empty());
}

/// LP probes; returns the root relaxation's point for the dive probe.
fn lp(m: &MipInstance, spans: &mut Spans, v: &mut Values) -> Result<Vec<f64>, String> {
    let std = entry::standard_lp(m);
    let size = format!("{} rows x {} cols", std.m(), std.n());

    // One engine's cold root solve; `solve` returns the pivots it took.
    let mut root = |span: &'static str,
                    engine: &str,
                    keys: [&'static str; 2],
                    solve: &mut dyn FnMut() -> Result<usize, String>| {
        let mut last = Ok(0);
        let (ns, calls) = median_ns(spans, span, 1, || last = solve());
        let iters = last.map_err(|e| format!("{engine} root LP: {e}"))?.max(1);
        v.insert(keys[0], ns / 1e3);
        v.insert(keys[1], ns / iters as f64);
        say(keys[0], &format!("{size}, {iters} pivots"), calls);
        Ok::<(), String>(())
    };
    root(
        "lp.LpSolver<HostEngine>.solve",
        "host",
        ["lp.host.root_us", "lp.host.pivot_ns"],
        &mut || Ok(entry::lp_solve(&mut entry::lp_host(std.clone()))?.iterations),
    )?;
    root(
        "lp.LpSolver<DeviceEngine>.solve",
        "device",
        ["lp.device.root_us", "lp.device.pivot_ns"],
        &mut || {
            let mut lp = entry::lp_device(std.clone(), entry::gpu(1 << 30))?;
            Ok(entry::lp_solve(&mut lp)?.iterations)
        },
    )?;
    root(
        "lp.LpSolver<SparseDeviceEngine>.solve",
        "sparse",
        ["lp.sparse.root_us", "lp.sparse.pivot_ns"],
        &mut || {
            let mut lp = entry::lp_sparse(std.clone(), entry::gpu(1 << 30))?;
            Ok(entry::lp_solve(&mut lp)?.iterations)
        },
    )?;

    // Warm re-solve: fix the most fractional integral variable down, then
    // give it its box back — the two moves a branch-and-bound child makes.
    let mut lp = entry::lp_host(std.clone());
    let root = entry::lp_solve(&mut lp)?;
    if root.status != LpStatus::Optimal {
        return Err(format!("probe instance's root LP ended {:?}", root.status));
    }
    let frac = |x: f64| (x - x.round()).abs();
    let j = (0..m.num_vars())
        .filter(|&j| m.vars[j].ty.is_integral())
        .max_by(|&a, &b| frac(root.x[a]).total_cmp(&frac(root.x[b])))
        .unwrap_or(0);
    let (lb, ub) = (m.vars[j].lb, m.vars[j].ub);
    let down = root.x[j].floor().clamp(lb, ub);
    let (ns, calls) = median_ns(spans, "lp.LpSolver.resolve", 1, || {
        let _ = entry::lp_rebound_resolve(&mut lp, j, lb, down);
        let _ = entry::lp_rebound_resolve(&mut lp, j, lb, ub);
    });
    v.insert("lp.host.warm_resolve_us", ns / 2.0 / 1e3);
    say(
        "lp.host.warm_resolve",
        &format!("{size}, bound flip of x{j}"),
        calls * 2,
    );
    Ok(root.x)
}

fn tree(spans: &mut Spans, v: &mut Values) {
    const FRONTIER: usize = 256;
    let mut t = entry::tree_new(FRONTIER);
    let (ns, calls) = median_ns(spans, "tree.SearchTree.cycle", 16, || {
        entry::tree_cycle(&mut t);
    });
    v.insert("tree.cycle_ns", ns);
    say(
        "tree.cycle",
        &format!("frontier of {FRONTIER} active nodes"),
        calls,
    );
}

fn prop(m: &MipInstance, root_x: &[f64], spans: &mut Spans, v: &mut Values) {
    let p = entry::propagator(m);
    let size = format!("{} vars, {} nnz", p.num_vars(), p.nnz());
    let (ns, calls) = median_ns(spans, "prop.Propagator.propagate", 4, || {
        std::hint::black_box(entry::propagate_root(&p, 8));
    });
    v.insert("prop.propagate_us", ns / 1e3);
    say("prop.propagate", &format!("root box, {size}"), calls);
    let (ns, calls) = median_ns(spans, "prop.Propagator.fix_and_propagate", 1, || {
        std::hint::black_box(entry::dive_root(&p, root_x, 8));
    });
    v.insert("prop.dive_us", ns / 1e3);
    say(
        "prop.dive",
        &format!("from the root LP point, {size}"),
        calls,
    );
}

fn serve(inputs: &Inputs, spans: &mut Spans, v: &mut Values) {
    let m = inputs.probe_instance();
    let (ns, calls) = median_ns(spans, "serve.canonicalize", 1, || {
        std::hint::black_box(entry::canonicalize(m));
    });
    v.insert("serve.canonicalize_us", ns / 1e3);
    say(
        "serve.canonicalize",
        &format!("{} vars", m.num_vars()),
        calls,
    );

    let pooled: Vec<&MipInstance> = match inputs {
        Inputs::Solves { instances, .. } => instances.iter().take(64).collect(),
        Inputs::Serve { tapes, .. } => tapes[0].jobs.iter().take(64).map(|j| &j.instance).collect(),
    };
    let mut pool = entry::pool_new(256);
    let canons: Vec<_> = pooled.iter().map(|m| entry::canonicalize(m)).collect();
    for (c, m) in canons.iter().zip(&pooled) {
        entry::pool_insert(&mut pool, c, 1.0, &vec![0.0; m.num_vars()]);
    }
    let (ns, calls) = median_ns(spans, "serve.SolutionPool.exact", 64, || {
        std::hint::black_box(entry::pool_exact(&pool, &canons[0]));
    });
    v.insert("serve.pool_exact_ns", ns);
    say(
        "serve.pool_exact",
        &format!("hit in a pool of {}", pool.len()),
        calls,
    );
}

fn problems(
    m: &MipInstance,
    family: Family,
    seed: u64,
    spans: &mut Spans,
    v: &mut Values,
) -> Result<(), String> {
    let mut s = seed;
    let (ns, calls) = median_ns(spans, "problems.generate", 1, || {
        s = s.wrapping_add(1);
        std::hint::black_box(family.generate(s));
    });
    v.insert("problems.generate_ms", ns / 1e6);
    say("problems.generate", &format!("{family:?}"), calls);
    let (ns, calls) = median_ns(spans, "problems.MipInstance.to_csr", 4, || {
        std::hint::black_box(entry::to_csr(m));
    });
    v.insert("problems.to_csr_us", ns / 1e3);
    let size = format!("{} cons x {} vars", m.num_cons(), m.num_vars());
    say("problems.to_csr", &size, calls);
    entry::mps_roundtrip(m)?;
    let (ns, calls) = median_ns(spans, "problems.mps.roundtrip", 1, || {
        std::hint::black_box(entry::mps_roundtrip(m).is_ok());
    });
    v.insert("problems.mps_roundtrip_us", ns / 1e3);
    say("problems.mps_roundtrip", &size, calls);
    Ok(())
}

fn threaded(m: &MipInstance, spans: &mut Spans, v: &mut Values) -> Result<(), String> {
    const RUNS: usize = 5;
    let cfg = entry::ParallelConfig {
        workers: 2,
        gpu_mem: 1 << 26,
        ..Default::default()
    };
    let mut ms = Vec::with_capacity(RUNS);
    spans.scope("parallel.solve_threaded", |_| {
        for _ in 0..RUNS {
            let t0 = Instant::now();
            entry::solve_threaded(m, &cfg)?;
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok::<(), String>(())
    })?;
    let (q1, med, q3) = quartiles(&ms);
    v.insert("parallel.threaded2_ms", med);
    println!(
        "probe parallel.threaded2: 2 worker threads, median of {RUNS} solves \
         (quartiles {q1:.3} .. {q3:.3} ms; scheduling-dependent, never gated)"
    );
    Ok(())
}
