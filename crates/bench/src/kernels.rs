//! Kernel roofline microbench — scalar vs SIMD.
//!
//! Not a paper figure: this experiment sizes the SIMD kernel tier added
//! with the vectorization PR. Each (kernel, shape, tier, threads) cell
//! times the hot loop long enough to amortize the timer, then reports
//! achieved GFLOP/s and GB/s next to the analytic roofline bound
//! `min(peak_flops, intensity * peak_bw)` — the same peak-rate constants
//! the serving cost model prices CPU work with
//! ([`sgd_core::CPU_FLOPS_PER_CORE`] /
//! [`sgd_core::CPU_SIMD_FLOPS_PER_CORE`]), so a drifting measurement
//! shows up as a visible gap against the model column instead of
//! silently skewing the router.
//!
//! Shapes are sized against the cpusim cache tiers: an L1-resident dense
//! gemv (the acceptance shape for the committed >= 1.5x SIMD speedup at
//! width 1), an L2-resident one, and a memory-bound one where every tier
//! collapses onto the bandwidth roof. `check` is the CI smoke: tiers
//! must agree bitwise on integer data, two runs must agree bitwise on
//! any data, and (unless `--force-portable`, which exercises the
//! non-AVX2 fallback leg) the L1 gemv SIMD speedup must clear half the
//! committed acceptance floor — loose enough for noisy CI machines,
//! tight enough to catch an accidentally descalarized kernel.

use std::time::Instant;

use sgd_core::{CPU_FLOPS_PER_CORE, CPU_PAR_EFFICIENCY, CPU_SIMD_FLOPS_PER_CORE};
use sgd_linalg::pool::{self};
use sgd_linalg::{Backend, CsrMatrix, KernelTier, Matrix, Scalar};

/// Thread counts swept per cell (same axis as the pool bench).
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Modeled shared-bus memory bandwidth, bytes/s. One socket's worth; it
/// deliberately does not scale with threads (the flop roof does).
pub const MODEL_PEAK_BW_BYTES: f64 = 2.0e10;

/// The committed acceptance floor: SIMD dense gemv at width 1 on the
/// L1-resident shape must beat scalar-seq by this factor.
pub const GEMV_SIMD_ACCEPT_SPEEDUP: f64 = 1.5;

/// One timed (kernel, shape, tier, threads) cell.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Kernel name (`dot`, `axpy`, `scale`, `gemv`, `gemv_t`, `spmv`).
    pub kernel: String,
    /// Shape label (`n=2048` or `64x64`).
    pub shape: String,
    /// `scalar` or `simd`.
    pub tier: String,
    /// Requested kernel width.
    pub threads: usize,
    /// Seconds per call.
    pub secs: f64,
    /// Achieved flop rate, GFLOP/s.
    pub gflops: f64,
    /// Achieved traffic, GB/s (analytic bytes / measured seconds).
    pub gbps: f64,
    /// Arithmetic intensity, flops/byte.
    pub intensity: f64,
    /// Roofline bound at this tier and width, GFLOP/s.
    pub model_gflops: f64,
    /// Achieved rate over the scalar tier's single-thread rate on the
    /// same kernel and shape.
    pub speedup_vs_scalar_seq: f64,
}

/// Sweep options (the binary's extra flags).
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelBenchOpts {
    /// Replace the hardware-SIMD tier with the portable fixed-lane
    /// mirror — the leg a machine without AVX2 runs.
    pub force_portable: bool,
}

impl KernelBenchOpts {
    fn simd_tier(&self) -> KernelTier {
        if self.force_portable {
            KernelTier::SimdPortable
        } else {
            KernelTier::Simd
        }
    }
}

/// Deterministic fractional fill (order-sensitive sums, no rand dep).
fn vec_data(n: usize, seed: usize) -> Vec<Scalar> {
    (0..n).map(|i| ((i * 13 + seed * 7 + 5) % 97) as Scalar * 0.017 - 0.8).collect()
}

fn dense(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| ((i * 29 + j * 11 + seed) % 83) as Scalar * 0.023 - 0.9)
}

/// ~25% dense CSR matrix.
fn sparse(rows: usize, cols: usize) -> CsrMatrix {
    CsrMatrix::from_dense(&Matrix::from_fn(rows, cols, |i, j| {
        if (i * 3 + j) % 4 == 0 {
            ((i * 7 + j * 13) % 31) as Scalar * 0.031 - 0.45
        } else {
            0.0
        }
    }))
}

/// Times `f` with a geometrically growing iteration count until one
/// batch exceeds `min_secs`, returning seconds per call.
fn time_secs(min_secs: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and the pool
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= min_secs {
            return dt / iters as f64;
        }
        let grow = (min_secs / dt.max(1e-9) * 1.3) as u64;
        iters = iters.saturating_mul(grow.clamp(2, 64)).max(iters + 1);
    }
}

/// One kernel invocation closure per cell, plus its analytic flop/byte
/// counts.
struct Cell {
    kernel: &'static str,
    shape: String,
    flops: f64,
    bytes: f64,
}

fn peak_gflops(tier: &str, threads: usize) -> f64 {
    let per_core = if tier == "scalar" { CPU_FLOPS_PER_CORE } else { CPU_SIMD_FLOPS_PER_CORE };
    per_core * (1.0 + CPU_PAR_EFFICIENCY * (threads.max(1) - 1) as f64) / 1e9
}

fn row_from(cell: &Cell, tier: &str, threads: usize, secs: f64, scalar_seq_secs: f64) -> KernelRow {
    let intensity = cell.flops / cell.bytes;
    KernelRow {
        kernel: cell.kernel.to_string(),
        shape: cell.shape.clone(),
        tier: tier.to_string(),
        threads,
        secs,
        gflops: cell.flops / secs / 1e9,
        gbps: cell.bytes / secs / 1e9,
        intensity,
        model_gflops: peak_gflops(tier, threads).min(intensity * MODEL_PEAK_BW_BYTES / 1e9),
        speedup_vs_scalar_seq: scalar_seq_secs / secs,
    }
}

/// Dense vector lengths: L1-resident and memory-bound.
const VEC_LENS: [usize; 2] = [2048, 262_144];

/// Dense gemv shapes: L1-resident (32 KiB matrix — the acceptance
/// shape), L2-resident (256 KiB), memory-bound (4 MiB).
const GEMV_SHAPES: [(usize, usize); 3] = [(64, 64), (256, 128), (1024, 512)];

/// Sparse shape (~25% density: nnz ~= rows * cols / 4).
const SPMV_SHAPE: (usize, usize) = (512, 256);

/// Runs the full sweep. `min_secs` is the per-cell timing budget (the
/// binary uses 0.02; `check` shrinks it to keep CI fast).
pub fn rows(opts: &KernelBenchOpts, min_secs: f64) -> Vec<KernelRow> {
    let mut out = Vec::new();
    // (tier label, ambient tier) sweeps.
    let tiers = [("scalar", KernelTier::Scalar), ("simd", opts.simd_tier())];

    // Vector kernels.
    for &n in &VEC_LENS {
        let x = vec_data(n, 1);
        let yv = vec_data(n, 2);
        let cells = [
            Cell {
                kernel: "dot",
                shape: format!("n={n}"),
                flops: 2.0 * n as f64,
                bytes: 16.0 * n as f64,
            },
            Cell {
                kernel: "axpy",
                shape: format!("n={n}"),
                flops: 2.0 * n as f64,
                bytes: 24.0 * n as f64,
            },
            Cell {
                kernel: "scale",
                shape: format!("n={n}"),
                flops: n as f64,
                bytes: 16.0 * n as f64,
            },
        ];
        for cell in &cells {
            let mut scalar_seq = f64::NAN;
            for (label, tier) in tiers {
                for threads in THREAD_COUNTS {
                    let be = if threads == 1 { Backend::seq() } else { Backend::par() };
                    let secs = pool::with_threads(threads, || {
                        pool::with_tier(tier, || match cell.kernel {
                            "dot" => time_secs(min_secs, || {
                                std::hint::black_box(be.dot(&x, &yv));
                            }),
                            "axpy" => {
                                let mut y = yv.clone();
                                time_secs(min_secs, || be.axpy(1.0000003, &x, &mut y))
                            }
                            _ => {
                                let mut y = yv.clone();
                                time_secs(min_secs, || be.scale(1.0000007, &mut y))
                            }
                        })
                    });
                    if label == "scalar" && threads == 1 {
                        scalar_seq = secs;
                    }
                    out.push(row_from(cell, label, threads, secs, scalar_seq));
                }
            }
        }
    }

    // Dense gemv / gemv_t.
    for &(r, c) in &GEMV_SHAPES {
        let a = dense(r, c, 3);
        let x = vec_data(c, 4);
        let xt = vec_data(r, 5);
        let fl = 2.0 * (r * c) as f64;
        let by = 8.0 * (r * c + r + c) as f64;
        let gv = Cell { kernel: "gemv", shape: format!("{r}x{c}"), flops: fl, bytes: by };
        let gvt = Cell { kernel: "gemv_t", shape: format!("{r}x{c}"), flops: fl, bytes: by };
        for cell in [&gv, &gvt] {
            let mut scalar_seq = f64::NAN;
            for (label, tier) in tiers {
                for threads in THREAD_COUNTS {
                    let be = if threads == 1 { Backend::seq() } else { Backend::par() };
                    let secs = pool::with_threads(threads, || {
                        pool::with_tier(tier, || {
                            if cell.kernel == "gemv" {
                                let mut y = vec![0.0; r];
                                time_secs(min_secs, || be.gemv(&a, &x, &mut y))
                            } else {
                                let mut y = vec![0.0; c];
                                time_secs(min_secs, || be.gemv_t(&a, &xt, &mut y))
                            }
                        })
                    });
                    if label == "scalar" && threads == 1 {
                        scalar_seq = secs;
                    }
                    out.push(row_from(cell, label, threads, secs, scalar_seq));
                }
            }
        }
    }

    // Sparse spmv.
    let (sr, sc) = SPMV_SHAPE;
    let s = sparse(sr, sc);
    let x = vec_data(sc, 6);
    let nnz = s.nnz();
    let cell = Cell {
        kernel: "spmv",
        shape: format!("{sr}x{sc}"),
        flops: 2.0 * nnz as f64,
        // 8B value + 4B column index per nonzero, plus x reads and y writes.
        bytes: 12.0 * nnz as f64 + 8.0 * (sr + sc) as f64,
    };
    let mut scalar_seq = f64::NAN;
    for (label, tier) in tiers {
        for threads in THREAD_COUNTS {
            let be = if threads == 1 { Backend::seq() } else { Backend::par() };
            let secs = pool::with_threads(threads, || {
                pool::with_tier(tier, || {
                    let mut y = vec![0.0; sr];
                    time_secs(min_secs, || be.spmv(&s, &x, &mut y))
                })
            });
            if label == "scalar" && threads == 1 {
                scalar_seq = secs;
            }
            out.push(row_from(&cell, label, threads, secs, scalar_seq));
        }
    }
    out
}

/// Hand-rolled JSON for `BENCH_kernels.json` (no JSON dependency; every
/// float the sweep emits is finite).
pub fn to_json(rows: &[KernelRow], opts: &KernelBenchOpts) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"kernel-roofline\",\n  \"force_portable\": {},\n  \
         \"model\": {{\"scalar_peak_gflops\": {:.3}, \"simd_peak_gflops\": {:.3}, \
         \"bw_gbps\": {:.3}}},\n  \"rows\": [\n",
        opts.force_portable,
        CPU_FLOPS_PER_CORE / 1e9,
        CPU_SIMD_FLOPS_PER_CORE / 1e9,
        MODEL_PEAK_BW_BYTES / 1e9,
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"tier\": \"{}\", \"threads\": {}, \
             \"gflops\": {:.4}, \"gbps\": {:.4}, \"intensity\": {:.4}, \
             \"model_gflops\": {:.4}, \"speedup_vs_scalar_seq\": {:.3}}}{}\n",
            r.kernel,
            r.shape,
            r.tier,
            r.threads,
            r.gflops,
            r.gbps,
            r.intensity,
            r.model_gflops,
            r.speedup_vs_scalar_seq,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable roofline table for stdout.
pub fn render(rows: &[KernelRow]) -> String {
    let mut out = String::from("Kernel roofline sweep: scalar vs SIMD\n");
    out.push_str(&format!(
        "{:<13} {:<10} {:<8} {:>3} | {:>9} {:>8} {:>7} {:>9} {:>8}\n",
        "kernel", "shape", "tier", "t", "GFLOP/s", "GB/s", "AI", "model", "speedup"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:<10} {:<8} {:>3} | {:>9.3} {:>8.2} {:>7.3} {:>9.3} {:>7.2}x\n",
            r.kernel,
            r.shape,
            r.tier,
            r.threads,
            r.gflops,
            r.gbps,
            r.intensity,
            r.model_gflops,
            r.speedup_vs_scalar_seq
        ));
    }
    out
}

/// CI smoke: correctness of the tiers the sweep times, plus a loose
/// perf floor on the acceptance shape.
///
/// * every kernel agrees bitwise across all three tiers on integer
///   data (dispatch can never change results);
/// * two runs under the SIMD tier agree bitwise on fractional data
///   (run-to-run determinism);
/// * unless `force_portable`, SIMD gemv at width 1 on the L1 shape must
///   reach half the committed [`GEMV_SIMD_ACCEPT_SPEEDUP`] — a loose
///   regression bound (the committed JSON records the full measurement).
pub fn check(opts: &KernelBenchOpts) -> Result<(), String> {
    let seq = Backend::seq();

    // Integer data: all tiers bitwise equal.
    let n = 1031; // uneven on purpose
    let xi: Vec<Scalar> = (0..n).map(|i| ((i * 31 + 7) % 23) as Scalar - 11.0).collect();
    let yi: Vec<Scalar> = (0..n).map(|i| ((i * 17 + 3) % 19) as Scalar - 9.0).collect();
    let ai = Matrix::from_fn(37, n, |i, j| ((i * 13 + j * 5) % 17) as Scalar - 8.0);
    let si = CsrMatrix::from_dense(&Matrix::from_fn(37, n, |i, j| {
        if (i + j) % 4 == 0 {
            ((i * 5 + j * 3) % 13) as Scalar - 6.0
        } else {
            0.0
        }
    }));
    let expect_dot = seq.dot(&xi, &yi);
    let mut expect_gemv = vec![0.0; 37];
    seq.gemv(&ai, &xi, &mut expect_gemv);
    let mut expect_spmv = vec![0.0; 37];
    seq.spmv(&si, &xi, &mut expect_spmv);
    for tier in [KernelTier::Simd, KernelTier::SimdPortable] {
        pool::with_tier(tier, || -> Result<(), String> {
            if seq.dot(&xi, &yi).to_bits() != expect_dot.to_bits() {
                return Err(format!("dot diverged from scalar on integer data at {tier:?}"));
            }
            let mut got = vec![0.0; 37];
            seq.gemv(&ai, &xi, &mut got);
            if got != expect_gemv {
                return Err(format!("gemv diverged from scalar on integer data at {tier:?}"));
            }
            let mut got = vec![0.0; 37];
            seq.spmv(&si, &xi, &mut got);
            if got != expect_spmv {
                return Err(format!("spmv diverged from scalar on integer data at {tier:?}"));
            }
            Ok(())
        })?;
    }

    // Run-to-run bit determinism on fractional data under the SIMD tier.
    let xf = vec_data(n, 1);
    let af = dense(37, n, 2);
    let run = || {
        pool::with_tier(opts.simd_tier(), || {
            let mut y = vec![0.0; 37];
            seq.gemv(&af, &xf, &mut y);
            let d = seq.dot(&xf, &xf);
            (y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), d.to_bits())
        })
    };
    if run() != run() {
        return Err("SIMD tier is not run-to-run deterministic".into());
    }

    // Loose perf floor on the acceptance shape (hardware SIMD only; the
    // portable mirror's speed is the autovectorizer's business).
    if !opts.force_portable {
        let (r, c) = GEMV_SHAPES[0];
        let a = dense(r, c, 3);
        let x = vec_data(c, 4);
        let mut y = vec![0.0; r];
        let scalar =
            pool::with_tier(KernelTier::Scalar, || time_secs(0.01, || seq.gemv(&a, &x, &mut y)));
        let simd =
            pool::with_tier(KernelTier::Simd, || time_secs(0.01, || seq.gemv(&a, &x, &mut y)));
        let speedup = scalar / simd;
        let floor = GEMV_SIMD_ACCEPT_SPEEDUP * 0.5;
        if speedup < floor {
            return Err(format!(
                "SIMD gemv speedup {speedup:.2}x on {r}x{c} is below the {floor:.2}x check \
                 floor (committed acceptance is {GEMV_SIMD_ACCEPT_SPEEDUP:.1}x)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_passes_in_both_legs() {
        check(&KernelBenchOpts { force_portable: false }).expect("hardware leg");
        check(&KernelBenchOpts { force_portable: true }).expect("portable leg");
    }

    #[test]
    fn sweep_produces_a_full_grid_and_valid_json() {
        let opts = KernelBenchOpts::default();
        let rows = rows(&opts, 1e-4);
        // 3 vector kernels x 2 lens x 2 tiers x 4 widths
        //   + 2 dense kernels x 3 shapes x 2 tiers x 4 widths
        //   + spmv 2 tiers x 4 widths.
        assert_eq!(rows.len(), 48 + 48 + 8);
        // The committed file carries the same grid as the binary.
        let committed = include_str!("../../../BENCH_kernels.json");
        assert_eq!(committed.matches("\"kernel\"").count(), rows.len());
        for r in &rows {
            assert!(r.secs > 0.0 && r.gflops.is_finite() && r.gbps.is_finite(), "{r:?}");
            assert!(r.model_gflops > 0.0 && r.intensity > 0.0, "{r:?}");
            assert!(r.speedup_vs_scalar_seq.is_finite(), "{r:?}");
        }
        let json = to_json(&rows, &opts);
        assert!(json.contains("\"kernel-roofline\""));
        assert_eq!(json.matches("\"kernel\"").count(), rows.len());
        let table = render(&rows);
        assert!(table.contains("GFLOP/s"));
    }
}
