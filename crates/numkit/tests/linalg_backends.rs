//! Property-based tests for the linalg entry points: the production
//! [`linalg::solve_least_squares`] and [`linalg::gram_inverse`] (stack
//! storage within the caps) must be indistinguishable from the heap
//! oracles `Matrix::qr().solve_least_squares` and
//! `Matrix::gram().inverse()` — bit-identical results, identical
//! structured errors, identical behaviour beyond the stack capacity.
//!
//! The guarantee is by construction (both storages execute the same
//! shared [`numkit::LinAlg`] kernels in the same order), so the
//! assertions here are exact `to_bits` equalities, not tolerances —
//! including on adversarially scaled inputs.

use numkit::{linalg, Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a full-column-rank `m × n` design matrix: random entries
/// with a dominant `10·I` block stamped on the top `n` rows.
fn design_matrix(m: usize, n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0..3.0f64, m * n).prop_map(move |data| {
        let mut x = Matrix::from_vec(m, n, data).expect("sized correctly");
        for j in 0..n {
            x[(j, j)] += 10.0;
        }
        x
    })
}

/// Asserts two solutions are the same bits, coordinate by coordinate.
fn assert_same_bits(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

proptest! {
    /// Least squares agrees bit-for-bit with the heap oracle on random
    /// well-posed systems (the surface-fit flow).
    #[test]
    fn least_squares_is_bit_identical(
        x in design_matrix(9, 5),
        y in prop::collection::vec(-5.0..5.0f64, 9),
    ) {
        let heap = x.qr().expect("rows >= cols").solve_least_squares(&y).expect("full rank");
        let beta = linalg::solve_least_squares(&x, &y).expect("full rank");
        assert_same_bits(&heap, &beta);
    }

    /// (XᵀX)⁻¹ agrees bit-for-bit with the heap oracle (the PRESS /
    /// standard-error flow).
    #[test]
    fn gram_inverse_is_bit_identical(x in design_matrix(8, 4)) {
        let heap = x.gram().inverse().expect("full rank");
        let inv = linalg::gram_inverse(&x).expect("full rank");
        assert_same_bits(heap.as_slice(), inv.as_slice());
    }

    /// Adversarial scaling — entries spanning ~200 orders of magnitude —
    /// still agrees exactly: shared kernels leave no room for even one
    /// ulp of divergence.
    #[test]
    fn adversarial_scaling_is_bit_identical(
        x in design_matrix(7, 3),
        y in prop::collection::vec(-5.0..5.0f64, 7),
        exp in -100i32..100,
    ) {
        let scale = 10f64.powi(exp);
        let scaled = Matrix::from_fn(7, 3, |i, j| x[(i, j)] * scale);
        let heap = scaled.qr().and_then(|qr| qr.solve_least_squares(&y));
        let beta = linalg::solve_least_squares(&scaled, &y);
        match (heap, beta) {
            (Ok(a), Ok(b)) => assert_same_bits(&a, &b),
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "heap and stack paths disagree: {a:?} vs {b:?}"),
        }
    }

    /// A duplicated column is rank-deficient: both paths must return
    /// the same structured error, not different failure shapes.
    #[test]
    fn degenerate_systems_fail_identically(
        x in design_matrix(8, 4),
        y in prop::collection::vec(-5.0..5.0f64, 8),
    ) {
        let singular = Matrix::from_fn(8, 4, |i, j| if j == 3 { x[(i, 0)] } else { x[(i, j)] });
        let heap_err = singular.qr().and_then(|qr| qr.solve_least_squares(&y)).unwrap_err();
        let err = linalg::solve_least_squares(&singular, &y).unwrap_err();
        assert_eq!(format!("{heap_err:?}"), format!("{err:?}"));
    }

    /// Beyond the stack capacity (`n > 16` columns) the entry points run
    /// on the heap: results stay bit-identical rather than erroring or
    /// diverging.
    #[test]
    fn oversized_systems_fall_back_identically(
        seed in prop::collection::vec(-3.0..3.0f64, 24 * 18),
        y in prop::collection::vec(-5.0..5.0f64, 24),
    ) {
        let mut x = Matrix::from_vec(24, 18, seed).expect("sized correctly");
        for j in 0..18 {
            x[(j, j)] += 10.0;
        }
        let heap = x.qr().expect("rows >= cols").solve_least_squares(&y).expect("full rank");
        let beta = linalg::solve_least_squares(&x, &y).expect("full rank");
        assert_same_bits(&heap, &beta);
    }

    /// The O(p²) rank-1 rotation tracks a full refactorisation of
    /// `A + vvᵀ` to numerical accuracy (different op order, so this one
    /// is a tolerance, not bit-identity).
    #[test]
    fn rank1_update_matches_refactorisation(
        x in design_matrix(6, 6),
        v in prop::collection::vec(-2.0..2.0f64, 6),
    ) {
        let gram = x.gram();
        let mut chol = Cholesky::decompose(&gram).expect("gram of full-rank X is SPD");
        chol.rank1_update(&v).expect("length matches");
        let bumped = Matrix::from_fn(6, 6, |i, j| gram[(i, j)] + v[i] * v[j]);
        let refactored = Cholesky::decompose(&bumped).expect("still SPD");
        let got = chol.ln_det();
        let want = refactored.ln_det();
        prop_assert!(
            (got - want).abs() <= 1e-8 * want.abs().max(1.0),
            "{got} vs {want}"
        );
    }
}
