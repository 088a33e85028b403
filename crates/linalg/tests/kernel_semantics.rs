//! Pins the gemm zero-skip contract (see `Backend::gemm` docs).
//!
//! `gemm` and `gemm_tn` treat exact-zero entries of A — either sign —
//! as structural zeros: the matching B row is skipped, so NaN/±inf
//! sitting in B at zero-A positions never propagate, and fully-skipped
//! outputs are `+0.0` bitwise. `gemm_nt` is dot-based and performs no
//! skip. Every test here asserts *bitwise*, across `Backend::seq()`,
//! `par_unconditional()` at widths 1..=8, and all three kernel tiers,
//! so no future vectorized path can quietly diverge on the poison
//! values an IEEE-strict implementation would handle differently.

use sgd_linalg::{pool, Backend, KernelTier, Matrix, Scalar};

/// A quiet NaN with a recognizable payload: multiplying by a finite
/// value and accumulating onto +0.0 preserves the payload on x86/ARM,
/// so bitwise comparison catches any reordering of the poison path.
fn payload_nan() -> Scalar {
    Scalar::from_bits(0x7ff8_0000_dead_beef)
}

const TIERS: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Simd, KernelTier::SimdPortable];

/// Runs `f` under every backend × width × tier combination and asserts
/// the produced C is bitwise identical to the seq/Scalar reference.
fn assert_bitwise_stable(
    label: &str,
    gemm: impl Fn(&Backend, &mut Matrix),
    rows: usize,
    cols: usize,
) {
    let mut reference = Matrix::zeros(rows, cols);
    gemm(&Backend::seq(), &mut reference);
    for tier in TIERS {
        let mut c = Matrix::zeros(rows, cols);
        pool::with_tier(tier, || gemm(&Backend::seq(), &mut c));
        assert_bits_eq(label, &reference, &c, format!("seq {tier:?}"));
        for width in 1..=8 {
            let mut c = Matrix::zeros(rows, cols);
            pool::with_threads(width, || {
                pool::with_tier(tier, || gemm(&Backend::par_unconditional(), &mut c))
            });
            assert_bits_eq(label, &reference, &c, format!("par w={width} {tier:?}"));
        }
    }
}

fn assert_bits_eq(label: &str, expect: &Matrix, got: &Matrix, combo: String) {
    for (i, (e, g)) in expect.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(
            e.to_bits(),
            g.to_bits(),
            "{label}: element {i} diverges under {combo}: {e:?} vs {g:?}"
        );
    }
}

#[test]
fn zero_a_entries_suppress_nan_and_inf_from_b() {
    // Both zero signs in A; B rows are pure poison. The skip means C is
    // exactly +0.0 — strict IEEE would give NaN everywhere.
    let a = Matrix::from_rows(&[&[0.0, -0.0]]);
    let b = Matrix::from_rows(&[
        &[payload_nan(), Scalar::INFINITY],
        &[Scalar::NEG_INFINITY, payload_nan()],
    ]);
    let mut c = Matrix::zeros(1, 2);
    Backend::seq().gemm(&a, &b, &mut c);
    for (j, v) in c.as_slice().iter().enumerate() {
        assert_eq!(v.to_bits(), 0.0f64.to_bits(), "C[0][{j}] must be +0.0, got {v:?}");
    }
    assert_bitwise_stable("poison suppression", |be, c| be.gemm(&a, &b, c), 1, 2);
}

#[test]
fn skipped_outputs_are_positive_zero_even_when_ieee_would_give_negative_zero() {
    // Strict IEEE: 0.0 * -1.0 = -0.0; +0.0 + -0.0 = +0.0 but a -0.0-
    // initialized accumulator or a product-only formulation could leak
    // the sign. The pinned contract is stronger and simpler: a fully
    // skipped output is +0.0 bitwise, always.
    let a = Matrix::from_rows(&[&[0.0, -0.0]]);
    let b = Matrix::from_rows(&[&[-1.0, -2.0], &[-3.0, -4.0]]);
    let mut c = Matrix::from_rows(&[&[-5.0, -6.0]]); // stale content must be overwritten
    Backend::seq().gemm(&a, &b, &mut c);
    for v in c.as_slice() {
        assert_eq!(v.to_bits(), 0.0f64.to_bits(), "skipped output must be +0.0, got {v:?}");
    }
    assert_bitwise_stable("negative-zero pinning", |be, c| be.gemm(&a, &b, c), 1, 2);
}

#[test]
fn nonzero_a_entries_propagate_nan_payloads_and_infinities() {
    let nan = payload_nan();
    let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
    let b = Matrix::from_rows(&[&[nan, Scalar::INFINITY], &[3.0, Scalar::NEG_INFINITY]]);
    let mut c = Matrix::zeros(2, 2);
    Backend::seq().gemm(&a, &b, &mut c);
    // Row 0 reads only B row 0: payload NaN and +inf come through.
    assert_eq!(c.at(0, 0).to_bits(), nan.to_bits(), "payload must survive");
    assert_eq!(c.at(0, 1), Scalar::INFINITY);
    // Row 1 reads only B row 1: scaled finite and -inf.
    assert_eq!(c.at(1, 0), 6.0);
    assert_eq!(c.at(1, 1), Scalar::NEG_INFINITY);
    assert_bitwise_stable("poison propagation", |be, c| be.gemm(&a, &b, c), 2, 2);
}

#[test]
fn gemm_tn_shares_the_zero_skip_contract() {
    // Column 0 of A is all zeros (both signs) and column 1 is zero at the
    // poison row of B -> no output ever touches the poison, bitwise.
    let a = Matrix::from_rows(&[&[0.0, 0.0], &[-0.0, 2.0]]);
    let b = Matrix::from_rows(&[&[payload_nan(), Scalar::INFINITY], &[5.0, 7.0]]);
    let mut c = Matrix::zeros(2, 2);
    Backend::seq().gemm_tn(&a, &b, &mut c);
    assert_eq!(c.at(0, 0).to_bits(), 0.0f64.to_bits());
    assert_eq!(c.at(0, 1).to_bits(), 0.0f64.to_bits());
    assert_eq!(c.at(1, 0), 10.0);
    assert_eq!(c.at(1, 1), 14.0);
    assert_bitwise_stable("gemm_tn skip", |be, c| be.gemm_tn(&a, &b, c), 2, 2);
}

#[test]
fn gemm_nt_performs_no_skip_and_propagates_poison() {
    // The documented asymmetry: the dot-based formulation multiplies
    // 0 * NaN and gets NaN, exactly as strict IEEE dictates.
    let a = Matrix::from_rows(&[&[0.0]]);
    let b = Matrix::from_rows(&[&[payload_nan()]]); // b is 1x1; gemm_nt reads its rows
    let mut c = Matrix::zeros(1, 1);
    Backend::seq().gemm_nt(&a, &b, &mut c);
    assert!(c.at(0, 0).is_nan(), "gemm_nt must not skip: got {:?}", c.at(0, 0));
    assert_bitwise_stable("gemm_nt no-skip", |be, c| be.gemm_nt(&a, &b, c), 1, 1);
}

#[test]
fn gemm_nt_inner_dot_is_tier_routed_as_a_reduction() {
    // The no-skip contract is what *permits* tier-routing gemm_nt's inner
    // dot: with every product formed, the only tier-visible effect is
    // reduction order. Pinned consequences, mirroring the dot/gemv/spmv
    // reduction class:
    //
    // * integer-valued data: all three tiers bitwise equal (the
    //   reassociated sums are exact);
    // * any data: Simd == SimdPortable bitwise (identical op order);
    // * poison: NaN propagates in every tier (no skip anywhere).
    let a = Matrix::from_fn(13, 19, |i, j| ((i * 19 + j) % 7) as Scalar - 3.0);
    let bt = Matrix::from_fn(11, 19, |i, j| ((i * 23 + j * 5) % 9) as Scalar - 4.0);
    assert_bitwise_stable("gemm_nt integer reduction", |be, c| be.gemm_nt(&a, &bt, c), 13, 11);

    // Fractional data: scalar-vs-simd bits may differ (reduction order),
    // but the two vector implementations must agree bitwise.
    let af = Matrix::from_fn(13, 19, |i, j| ((i * 19 + j) % 101) as Scalar * 0.013 - 0.5);
    let btf = Matrix::from_fn(11, 19, |i, j| ((i * 23 + j * 5) % 97) as Scalar * 0.017 - 0.6);
    let mut simd_c = Matrix::zeros(13, 11);
    pool::with_tier(KernelTier::Simd, || Backend::seq().gemm_nt(&af, &btf, &mut simd_c));
    let mut port_c = Matrix::zeros(13, 11);
    pool::with_tier(KernelTier::SimdPortable, || Backend::seq().gemm_nt(&af, &btf, &mut port_c));
    assert_bits_eq("gemm_nt fractional", &simd_c, &port_c, "Simd vs SimdPortable".into());

    // No-skip NaN propagation holds in the vector tiers too: a zero A row
    // against a poison B row still multiplies through.
    let az = Matrix::from_fn(1, 19, |_, _| 0.0);
    let bp = Matrix::from_fn(1, 19, |_, j| if j == 7 { payload_nan() } else { 1.0 });
    for tier in TIERS {
        let mut c = Matrix::zeros(1, 1);
        pool::with_tier(tier, || Backend::seq().gemm_nt(&az, &bp, &mut c));
        assert!(c.at(0, 0).is_nan(), "{tier:?}: gemm_nt must not skip, got {:?}", c.at(0, 0));
    }
}

#[test]
fn poisoned_gemm_is_stable_above_the_parallel_floor() {
    // Big enough (64 * 8 * 9 = 4608 element-ops, C.len() = 576 with
    // threshold 0) that par_unconditional genuinely chunks across the
    // pool, with poison and both zero signs scattered through A and B.
    //
    // Outputs here combine *several* NaN/invalid contributions, and IEEE
    // leaves which payload survives a two-NaN (or inf - inf) operation
    // unspecified — hardware picks by operand order, which differs
    // between scalar and vector instruction selection. So this test pins
    // bitwise equality for every non-NaN output and NaN-ness (not the
    // payload) for NaN outputs; the single-NaN payload pin lives in
    // `nonzero_a_entries_propagate_nan_payloads_and_infinities`.
    let nan = payload_nan();
    let a = Matrix::from_fn(64, 8, |i, j| match (i * 8 + j) % 7 {
        0 => 0.0,
        1 => -0.0,
        k => (k as Scalar) - 3.0,
    });
    let b = Matrix::from_fn(8, 9, |i, j| match (i * 9 + j) % 11 {
        0 => nan,
        1 => Scalar::INFINITY,
        2 => Scalar::NEG_INFINITY,
        3 => -0.0,
        k => (k as Scalar) * 0.25 - 1.0,
    });
    let mut reference = Matrix::zeros(64, 9);
    Backend::seq().gemm(&a, &b, &mut reference);
    assert!(reference.as_slice().iter().any(|v| v.is_nan()), "poison must reach some outputs");
    for tier in TIERS {
        for width in 1..=8 {
            let mut c = Matrix::zeros(64, 9);
            pool::with_threads(width, || {
                pool::with_tier(tier, || Backend::par_unconditional().gemm(&a, &b, &mut c))
            });
            for (i, (e, g)) in reference.as_slice().iter().zip(c.as_slice()).enumerate() {
                if e.is_nan() {
                    assert!(g.is_nan(), "element {i}: NaN-ness lost under w={width} {tier:?}");
                } else {
                    assert_eq!(
                        e.to_bits(),
                        g.to_bits(),
                        "element {i} diverges under w={width} {tier:?}: {e:?} vs {g:?}"
                    );
                }
            }
        }
    }
}
