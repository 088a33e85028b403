//! Dense and sparse (CSR) linear algebra primitives with sequential and
//! thread-parallel backends.
//!
//! This crate plays the role ViennaCL plays in the paper: a single primitive
//! API (`Backend`) whose implementations differ only in the execution
//! strategy, so the synchronous SGD code is *identical* across devices and
//! only the backend changes. The parallel backend reproduces ViennaCL's
//! documented behaviour of not parallelizing small matrix products (the
//! result-size threshold), which the paper identifies as the cause of the
//! ~2X MLP speedup anomaly in Table II / Fig. 6.
//!
//! # Example
//!
//! ```
//! use sgd_linalg::{Backend, Matrix};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let x = vec![1.0, 1.0];
//! let mut y = vec![0.0; 2];
//! Backend::seq().gemv(&a, &x, &mut y);
//! assert_eq!(y, vec![3.0, 7.0]);
//! ```

mod backend;
mod csr;
mod dense;
mod exec;
mod par;
pub mod pool;
mod seq;
mod simd;

pub use backend::{Backend, DEFAULT_GEMM_PARALLEL_THRESHOLD};
pub use csr::{CsrMatrix, CsrRow};
pub use dense::Matrix;
pub use exec::{softmax_xent_reference, CpuExec, Exec};
pub use par::MIN_PARALLEL_LEN;
pub use simd::{avx2_available, KernelTier, SIMD_LANES};

/// Scalar type used throughout the study.
///
/// The paper's C++ implementation uses single precision on the GPU; we use
/// `f64` uniformly so that CPU Hogwild updates map onto `AtomicU64` cells
/// and gradient checking is numerically well conditioned. The GPU cost
/// model charges 8-byte accesses accordingly.
pub type Scalar = f64;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely or
/// relatively (whichever is looser). Convenience used pervasively in tests.
pub fn approx_eq(a: Scalar, b: Scalar, tol: Scalar) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

/// Element-wise [`approx_eq`] over two slices of equal length.
pub fn approx_eq_slice(a: &[Scalar], b: &[Scalar], tol: Scalar) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| approx_eq(x, y, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(approx_eq(1e9, 1e9 + 1.0, 1e-6));
        assert!(!approx_eq(1.0, 1.1, 1e-3));
    }

    #[test]
    fn approx_eq_slice_checks_length() {
        assert!(!approx_eq_slice(&[1.0], &[1.0, 2.0], 1e-9));
        assert!(approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0], 1e-9));
    }
}
