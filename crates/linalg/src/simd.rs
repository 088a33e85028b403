//! The explicitly vectorized kernel tier.
//!
//! Every kernel here exists in two implementations with *identical*
//! floating-point operation order:
//!
//! * an AVX2 `std::arch` version ([`mod@avx2`], x86_64 only, selected at
//!   runtime via `is_x86_feature_detected!`), and
//! * a portable fixed-lane fallback ([`mod@portable`]) whose scalar
//!   accumulator arrays mirror the vector registers lane for lane.
//!
//! Because both paths perform the same IEEE-754 multiplies and adds in
//! the same order (no FMA — `_mm256_fmadd_pd` would fuse the rounding
//! step the scalar path performs), the two are **bitwise equal on any
//! data**, so a feature-less runner and an AVX2 box produce identical
//! results. Against the scalar `seq` tier the usual pool discipline
//! applies (see `tests/pool_bit_identity.rs`):
//!
//! * order-preserving kernels (`axpy`, `scale`, `gemv_t`) perform the
//!   exact per-element operations of `seq` and are bitwise equal to it
//!   on any data;
//! * reductions (`dot`, `gemv`, `spmv`) accumulate in `LANES * UNROLL`
//!   fixed slots reduced by a pinned tree, which reassociates the sum —
//!   bitwise equal to `seq` on integer-valued data, run-to-run bitwise
//!   deterministic always.
//!
//! ## Reduction-order pinning
//!
//! A dot product over `n` elements runs `LANES * UNROLL = 8` independent
//! accumulators: slot `u * LANES + l` owns elements `i` with
//! `i % (LANES * UNROLL) == u * LANES + l` over the main body
//! (`n - n % 8` elements). The reduction is pinned as
//! `acc[u][l] -> a[l] = acc[0][l] + acc[1][l]` (one vector add), then
//! `(a[0] + a[1]) + (a[2] + a[3])`, then the remainder tail (up to 7
//! elements) is added left to right. Chunked `par` execution composes on
//! top: each chunk reduces with this tree, and chunk partials combine in
//! chunk order exactly as the scalar tier's partials do.
//!
//! The tier is selected per dispatch through the ambient
//! [`crate::pool::with_tier`] scope (propagated to pool workers like the
//! width), so `Backend::Seq`/`Backend::Par` chunking composes with any
//! tier.

use std::sync::OnceLock;

use crate::{pool, seq, CsrMatrix, Matrix, Scalar};

/// Which kernel implementations the linalg primitives dispatch to,
/// selected for a scope with [`crate::pool::with_tier`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelTier {
    /// The scalar reference loops (`seq`) — the bit-level ground truth
    /// and the default, so existing trajectories stay bit-identical.
    #[default]
    Scalar,
    /// Explicitly vectorized kernels: AVX2 when the CPU reports it,
    /// otherwise the portable fixed-lane fallback (same bits either way).
    Simd,
    /// Force the portable fixed-lane fallback even when AVX2 is present —
    /// the CI leg for feature-less runners and the A/B half of the
    /// "portable == AVX2 bitwise" tests.
    SimdPortable,
}

/// Vector width of one register: four `f64` lanes in AVX2's 256 bits.
pub const SIMD_LANES: usize = 4;

/// Independent accumulator registers per reduction.
const UNROLL: usize = 2;

/// Elements consumed per main-loop iteration.
const BLOCK: usize = SIMD_LANES * UNROLL;

/// Runtime AVX2 detection, probed once per process.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The concrete implementation an ambient [`KernelTier`] resolves to on
/// this machine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Resolved {
    Scalar,
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

fn resolve() -> Resolved {
    match pool::current_tier() {
        KernelTier::Scalar => Resolved::Scalar,
        KernelTier::SimdPortable => Resolved::Portable,
        KernelTier::Simd => {
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                return Resolved::Avx2;
            }
            Resolved::Portable
        }
    }
}

/// Pinned reduction tree shared by both implementations: one lanewise
/// add folding the unrolled register pair, then a fixed pairwise tree.
#[inline]
fn reduce(acc0: [Scalar; SIMD_LANES], acc1: [Scalar; SIMD_LANES]) -> Scalar {
    let a = [acc0[0] + acc1[0], acc0[1] + acc1[1], acc0[2] + acc1[2], acc0[3] + acc1[3]];
    (a[0] + a[1]) + (a[2] + a[3])
}

/// Left-to-right scalar tail shared by both implementations; identical
/// to what `seq::dot` does over the same remainder.
#[inline]
fn tail_dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
    let mut s = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        s += a * b;
    }
    s
}

/// Tail of a sparse row dot, left to right like `CsrRow::dot`.
#[inline]
fn tail_csr_dot(cols: &[u32], vals: &[Scalar], x: &[Scalar]) -> Scalar {
    let mut s = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        s += v * x[c as usize];
    }
    s
}

/// Portable fixed-lane kernels: scalar code whose accumulator arrays
/// mirror the AVX2 registers lane for lane, so the two paths are bitwise
/// interchangeable on any data.
mod portable {
    use super::{reduce, tail_csr_dot, tail_dot, BLOCK, SIMD_LANES};
    use crate::{Matrix, Scalar};

    // analyzer: root(hot-path-alloc) -- vectorized reduction inner loop: per-example hot path, must not allocate
    pub(super) fn dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
        let main = x.len() - x.len() % BLOCK;
        let mut acc0 = [0.0; SIMD_LANES];
        let mut acc1 = [0.0; SIMD_LANES];
        let mut b = 0;
        while b < main {
            for l in 0..SIMD_LANES {
                acc0[l] += x[b + l] * y[b + l];
                acc1[l] += x[b + SIMD_LANES + l] * y[b + SIMD_LANES + l];
            }
            b += BLOCK;
        }
        reduce(acc0, acc1) + tail_dot(&x[main..], &y[main..])
    }

    // analyzer: root(hot-path-alloc) -- vectorized elementwise inner loop: per-example hot path, must not allocate
    pub(super) fn axpy(a: Scalar, x: &[Scalar], y: &mut [Scalar]) {
        // Element-wise: every lane owns one element and performs exactly
        // the scalar tier's `y[i] += a * x[i]`, so all tiers are bitwise
        // equal on any data. The blocked structure exists only to mirror
        // the AVX2 path's iteration shape.
        let main = x.len() - x.len() % BLOCK;
        let mut b = 0;
        while b < main {
            for l in 0..BLOCK {
                y[b + l] += a * x[b + l];
            }
            b += BLOCK;
        }
        for (yi, &xi) in y[main..].iter_mut().zip(&x[main..]) {
            *yi += a * xi;
        }
    }

    // analyzer: root(hot-path-alloc) -- vectorized elementwise inner loop: per-example hot path, must not allocate
    pub(super) fn scale(a: Scalar, x: &mut [Scalar]) {
        for v in x.iter_mut() {
            *v *= a;
        }
    }

    // analyzer: root(hot-path-alloc) -- vectorized matrix-vector inner loop: per-example hot path, must not allocate
    pub(super) fn gemv(a: &Matrix, x: &[Scalar], y: &mut [Scalar]) {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = dot(a.row(i), x);
        }
    }

    // analyzer: root(hot-path-alloc) -- vectorized scatter inner loop: per-example hot path, must not allocate
    pub(super) fn gemv_t(a: &Matrix, x: &[Scalar], y: &mut [Scalar]) {
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            axpy(xi, a.row(i), y);
        }
    }

    // analyzer: root(hot-path-alloc) -- vectorized sparse dot inner loop: per-example hot path, must not allocate
    pub(super) fn csr_dot(cols: &[u32], vals: &[Scalar], x: &[Scalar]) -> Scalar {
        let main = vals.len() - vals.len() % BLOCK;
        let mut acc0 = [0.0; SIMD_LANES];
        let mut acc1 = [0.0; SIMD_LANES];
        let mut b = 0;
        while b < main {
            for l in 0..SIMD_LANES {
                acc0[l] += vals[b + l] * x[cols[b + l] as usize];
                acc1[l] += vals[b + SIMD_LANES + l] * x[cols[b + SIMD_LANES + l] as usize];
            }
            b += BLOCK;
        }
        reduce(acc0, acc1) + tail_csr_dot(&cols[main..], &vals[main..], x)
    }
}

/// AVX2 kernels. Every function carries `#[target_feature(enable =
/// "avx2")]` and is only reached after `is_x86_feature_detected!`
/// confirmed the feature (see [`resolve`]), which is the safety
/// precondition for calling them. No FMA: fused multiply-add rounds
/// once where the scalar tier rounds twice, which would break bitwise
/// equality with `portable` and `seq`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m128i, _mm256_add_pd, _mm256_i32gather_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm_loadu_si128,
    };

    use super::{reduce, tail_csr_dot, tail_dot, BLOCK, SIMD_LANES};
    use crate::{Matrix, Scalar};

    // analyzer: root(hot-path-alloc) -- vectorized reduction inner loop: per-example hot path, must not allocate
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
        let main = x.len() - x.len() % BLOCK;
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        // Pointers feed the unaligned load intrinsics immediately and are
        // never stored, compared, or used as keys.
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut b = 0;
        while b < main {
            let prod0 = _mm256_mul_pd(_mm256_loadu_pd(xp.add(b)), _mm256_loadu_pd(yp.add(b)));
            let prod1 = _mm256_mul_pd(
                _mm256_loadu_pd(xp.add(b + SIMD_LANES)),
                _mm256_loadu_pd(yp.add(b + SIMD_LANES)),
            );
            acc0 = _mm256_add_pd(acc0, prod0);
            acc1 = _mm256_add_pd(acc1, prod1);
            b += BLOCK;
        }
        let mut a0 = [0.0; SIMD_LANES];
        let mut a1 = [0.0; SIMD_LANES];
        _mm256_storeu_pd(a0.as_mut_ptr(), acc0);
        _mm256_storeu_pd(a1.as_mut_ptr(), acc1);
        reduce(a0, a1) + tail_dot(&x[main..], &y[main..])
    }

    // analyzer: root(hot-path-alloc) -- vectorized elementwise inner loop: per-example hot path, must not allocate
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(a: Scalar, x: &[Scalar], y: &mut [Scalar]) {
        let main = x.len() - x.len() % BLOCK;
        let av = _mm256_set1_pd(a);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut b = 0;
        while b < main {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(b)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(b))),
            );
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(b + SIMD_LANES)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(b + SIMD_LANES))),
            );
            _mm256_storeu_pd(yp.add(b), y0);
            _mm256_storeu_pd(yp.add(b + SIMD_LANES), y1);
            b += BLOCK;
        }
        for (yi, &xi) in y[main..].iter_mut().zip(&x[main..]) {
            *yi += a * xi;
        }
    }

    // analyzer: root(hot-path-alloc) -- vectorized elementwise inner loop: per-example hot path, must not allocate
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale(a: Scalar, x: &mut [Scalar]) {
        let main = x.len() - x.len() % BLOCK;
        let av = _mm256_set1_pd(a);
        let xp = x.as_mut_ptr();
        let mut b = 0;
        while b < main {
            _mm256_storeu_pd(xp.add(b), _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(b))));
            _mm256_storeu_pd(
                xp.add(b + SIMD_LANES),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(b + SIMD_LANES))),
            );
            b += BLOCK;
        }
        for v in x[main..].iter_mut() {
            *v *= a;
        }
    }

    // analyzer: root(hot-path-alloc) -- vectorized matrix-vector inner loop: per-example hot path, must not allocate
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemv(a: &Matrix, x: &[Scalar], y: &mut [Scalar]) {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = dot(a.row(i), x);
        }
    }

    // analyzer: root(hot-path-alloc) -- vectorized scatter inner loop: per-example hot path, must not allocate
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemv_t(a: &Matrix, x: &[Scalar], y: &mut [Scalar]) {
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            axpy(xi, a.row(i), y);
        }
    }

    // analyzer: root(hot-path-alloc) -- vectorized sparse dot inner loop: per-example hot path, must not allocate
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn csr_dot(cols: &[u32], vals: &[Scalar], x: &[Scalar]) -> Scalar {
        let main = vals.len() - vals.len() % BLOCK;
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let xp = x.as_ptr();
        let cp = cols.as_ptr();
        let vp = vals.as_ptr();
        let mut b = 0;
        while b < main {
            // The caller guarantees every index fits in i32 (see
            // `fits_gather`), so reinterpreting four u32 as i32 gather
            // offsets is value-preserving. Scale 8 = size_of::<f64>().
            let i0 = _mm_loadu_si128(cp.add(b) as *const __m128i);
            let i1 = _mm_loadu_si128(cp.add(b + SIMD_LANES) as *const __m128i);
            let g0 = _mm256_i32gather_pd::<8>(xp, i0);
            let g1 = _mm256_i32gather_pd::<8>(xp, i1);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(vp.add(b)), g0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(vp.add(b + SIMD_LANES)), g1));
            b += BLOCK;
        }
        let mut a0 = [0.0; SIMD_LANES];
        let mut a1 = [0.0; SIMD_LANES];
        _mm256_storeu_pd(a0.as_mut_ptr(), acc0);
        _mm256_storeu_pd(a1.as_mut_ptr(), acc1);
        reduce(a0, a1) + tail_csr_dot(&cols[main..], &vals[main..], x)
    }
}

/// `true` when every column index of a width-`cols` operand is a valid
/// non-negative i32 gather offset. News20's 1.36 M features clear this
/// by three orders of magnitude; a hypothetical >2^31-column matrix
/// falls back to the portable path instead of gathering unsoundly.
fn fits_gather(cols: usize) -> bool {
    cols <= i32::MAX as usize
}

// ---------------------------------------------------------------------
// Tier dispatchers: one ambient-tier resolution per kernel call, then a
// straight run of the selected implementation. `Backend` (seq arms) and
// `par` (chunk bodies) both come through here, which is what makes
// backend × tier compose: `par` fixes the chunk boundaries, the tier
// fixes the per-chunk instruction stream.
// ---------------------------------------------------------------------

pub(crate) fn dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
    match resolve() {
        Resolved::Scalar => seq::dot(x, y),
        Resolved::Portable => portable::dot(x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Resolved::Avx2` is only produced after runtime detection.
        Resolved::Avx2 => unsafe { avx2::dot(x, y) },
    }
}

pub(crate) fn axpy(a: Scalar, x: &[Scalar], y: &mut [Scalar]) {
    match resolve() {
        Resolved::Scalar => seq::axpy(a, x, y),
        Resolved::Portable => portable::axpy(a, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Resolved::Avx2` is only produced after runtime detection.
        Resolved::Avx2 => unsafe { avx2::axpy(a, x, y) },
    }
}

pub(crate) fn scale(a: Scalar, x: &mut [Scalar]) {
    match resolve() {
        Resolved::Scalar => seq::scale(a, x),
        Resolved::Portable => portable::scale(a, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Resolved::Avx2` is only produced after runtime detection.
        Resolved::Avx2 => unsafe { avx2::scale(a, x) },
    }
}

pub(crate) fn gemv(a: &Matrix, x: &[Scalar], y: &mut [Scalar]) {
    match resolve() {
        Resolved::Scalar => seq::gemv(a, x, y),
        Resolved::Portable => portable::gemv(a, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Resolved::Avx2` is only produced after runtime detection.
        Resolved::Avx2 => unsafe { avx2::gemv(a, x, y) },
    }
}

pub(crate) fn gemv_t(a: &Matrix, x: &[Scalar], y: &mut [Scalar]) {
    match resolve() {
        Resolved::Scalar => seq::gemv_t(a, x, y),
        Resolved::Portable => portable::gemv_t(a, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Resolved::Avx2` is only produced after runtime detection.
        Resolved::Avx2 => unsafe { avx2::gemv_t(a, x, y) },
    }
}

pub(crate) fn spmv(a: &CsrMatrix, x: &[Scalar], y: &mut [Scalar]) {
    match resolve() {
        Resolved::Scalar => seq::spmv(a, x, y),
        _ => spmv_rows(a, x, 0, y),
    }
}

/// Rows `base..base + ys.len()` of a spmv — the granularity `par` chunks
/// at, resolving the tier once per chunk.
pub(crate) fn spmv_rows(a: &CsrMatrix, x: &[Scalar], base: usize, ys: &mut [Scalar]) {
    match resolve() {
        Resolved::Scalar => {
            for (off, yi) in ys.iter_mut().enumerate() {
                *yi = a.row(base + off).dot(x);
            }
        }
        Resolved::Portable => {
            for (off, yi) in ys.iter_mut().enumerate() {
                let r = a.row(base + off);
                *yi = portable::csr_dot(r.cols, r.vals, x);
            }
        }
        #[cfg(target_arch = "x86_64")]
        Resolved::Avx2 => {
            if !fits_gather(a.cols()) {
                for (off, yi) in ys.iter_mut().enumerate() {
                    let r = a.row(base + off);
                    *yi = portable::csr_dot(r.cols, r.vals, x);
                }
                return;
            }
            for (off, yi) in ys.iter_mut().enumerate() {
                let r = a.row(base + off);
                // SAFETY: AVX2 detected; indices validated < cols <= i32::MAX.
                *yi = unsafe { avx2::csr_dot(r.cols, r.vals, x) };
            }
        }
    }
}

/// Rows `base..base + ys.len()` of a gemv — the granularity `par` chunks
/// at, resolving the tier once per chunk.
pub(crate) fn gemv_rows(a: &Matrix, x: &[Scalar], base: usize, ys: &mut [Scalar]) {
    match resolve() {
        Resolved::Scalar => {
            for (off, yi) in ys.iter_mut().enumerate() {
                *yi = seq::dot(a.row(base + off), x);
            }
        }
        Resolved::Portable => {
            for (off, yi) in ys.iter_mut().enumerate() {
                *yi = portable::dot(a.row(base + off), x);
            }
        }
        #[cfg(target_arch = "x86_64")]
        Resolved::Avx2 => {
            for (off, yi) in ys.iter_mut().enumerate() {
                // SAFETY: `Resolved::Avx2` is only produced after runtime detection.
                *yi = unsafe { avx2::dot(a.row(base + off), x) };
            }
        }
    }
}

/// Rows `base..base + rows` of a `C = A B^T` product — the granularity
/// `par` chunks at, resolving the tier once per chunk. `c_rows` holds the
/// output rows contiguously (`rows * b.rows()` scalars).
///
/// There is deliberately *no* zero-skip here (see `Backend::gemm` docs):
/// every product is formed, so NaN/±inf propagate unconditionally in every
/// tier — which is exactly why the inner dot is free to join the reduction
/// class (bitwise equal to scalar on integer-valued data, AVX2 == portable
/// bitwise on any data).
pub(crate) fn gemm_nt_rows(a: &Matrix, b: &Matrix, base: usize, c_rows: &mut [Scalar]) {
    let m = b.rows();
    match resolve() {
        Resolved::Scalar => {
            for (off, c_row) in c_rows.chunks_mut(m).enumerate() {
                let a_row = a.row(base + off);
                for (j, cij) in c_row.iter_mut().enumerate() {
                    *cij = seq::dot(a_row, b.row(j));
                }
            }
        }
        Resolved::Portable => {
            for (off, c_row) in c_rows.chunks_mut(m).enumerate() {
                let a_row = a.row(base + off);
                for (j, cij) in c_row.iter_mut().enumerate() {
                    *cij = portable::dot(a_row, b.row(j));
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        Resolved::Avx2 => {
            for (off, c_row) in c_rows.chunks_mut(m).enumerate() {
                let a_row = a.row(base + off);
                for (j, cij) in c_row.iter_mut().enumerate() {
                    // SAFETY: `Resolved::Avx2` is only produced after runtime detection.
                    *cij = unsafe { avx2::dot(a_row, b.row(j)) };
                }
            }
        }
    }
}

/// `C = A B^T` with the inner dot routed through the ambient tier (the
/// whole matrix as one "chunk" of [`gemm_nt_rows`]).
pub(crate) fn gemm_nt(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    gemm_nt_rows(a, b, 0, c.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_tier;

    fn int_vec(n: usize, seed: u64) -> Vec<Scalar> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed.wrapping_add(7)) % 17) as Scalar - 8.0)
            .collect()
    }

    fn frac_vec(n: usize, seed: u64) -> Vec<Scalar> {
        (0..n).map(|i| (((i as u64).wrapping_mul(seed) % 1009) as Scalar) * 0.001 - 0.3).collect()
    }

    #[test]
    fn portable_dot_matches_seq_on_integer_data_for_all_tails() {
        for n in 0..=3 * BLOCK {
            let x = int_vec(n, 3);
            let y = int_vec(n, 11);
            assert_eq!(portable_only_dot(&x, &y), seq::dot(&x, &y), "n={n}");
        }
    }

    fn portable_only_dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
        with_tier(KernelTier::SimdPortable, || dot(x, y))
    }

    #[test]
    fn simd_and_portable_dot_are_bitwise_equal_on_any_data() {
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 1023] {
            let x = frac_vec(n, 5);
            let y = frac_vec(n, 13);
            let s = with_tier(KernelTier::Simd, || dot(&x, &y));
            let p = with_tier(KernelTier::SimdPortable, || dot(&x, &y));
            assert_eq!(s.to_bits(), p.to_bits(), "n={n}");
        }
    }

    #[test]
    fn elementwise_kernels_are_bitwise_equal_across_all_tiers_on_any_data() {
        let x = frac_vec(133, 17);
        for tier in [KernelTier::Simd, KernelTier::SimdPortable] {
            let mut y_ref = frac_vec(133, 29);
            let mut y_simd = y_ref.clone();
            seq::axpy(0.37, &x, &mut y_ref);
            with_tier(tier, || axpy(0.37, &x, &mut y_simd));
            assert_eq!(y_ref, y_simd, "{tier:?}");

            let mut s_ref = x.clone();
            let mut s_simd = x.clone();
            seq::scale(-1.75, &mut s_ref);
            with_tier(tier, || scale(-1.75, &mut s_simd));
            assert_eq!(s_ref, s_simd, "{tier:?}");
        }
    }
}
