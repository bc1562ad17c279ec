//! Property-based tests for the tensor algebra.

use pelican_tensor::Tensor;
use proptest::prelude::*;

/// Strategy: a rank-2 tensor with bounded dimensions and finite values.
fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-100.0f32..100.0, m * n)
            .prop_map(move |data| Tensor::from_vec(vec![m, n], data).expect("sized"))
    })
}

proptest! {
    /// A·I = I·A = A.
    #[test]
    fn matmul_identity(a in matrix(8)) {
        let n = a.shape()[1];
        let m = a.shape()[0];
        let right = a.matmul(&Tensor::eye(n)).unwrap();
        let left = Tensor::eye(m).matmul(&a).unwrap();
        prop_assert_eq!(&right, &a);
        prop_assert_eq!(&left, &a);
    }

    /// (Aᵀ)ᵀ = A and transpose swaps dimensions.
    #[test]
    fn transpose_involution(a in matrix(10)) {
        let t = a.transpose();
        prop_assert_eq!(t.shape()[0], a.shape()[1]);
        prop_assert_eq!(t.transpose(), a);
    }

    /// matmul_bt(A, B) == A · Bᵀ and matmul_at(A, B) == Aᵀ · B.
    #[test]
    fn transposed_kernels_agree((m, k, n) in (1usize..6, 1usize..6, 1usize..6),
                                seed in 0u64..1000) {
        let mut rng = pelican_tensor::SeededRng::new(seed);
        let mk: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let nk: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
        let kn: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let a = Tensor::from_vec(vec![m, k], mk).unwrap();
        let b_nk = Tensor::from_vec(vec![n, k], nk).unwrap();
        let b_kn = Tensor::from_vec(vec![k, n], kn).unwrap();

        let bt = a.matmul_bt(&b_nk).unwrap();
        let bt_ref = a.matmul(&b_nk.transpose()).unwrap();
        for (x, y) in bt.as_slice().iter().zip(bt_ref.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }

        let a_kn = Tensor::from_vec(vec![k, m], (0..k * m).map(|_| rng.normal()).collect()).unwrap();
        let at = a_kn.matmul_at(&b_kn).unwrap();
        let at_ref = a_kn.transpose().matmul(&b_kn).unwrap();
        for (x, y) in at.as_slice().iter().zip(at_ref.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Reshape preserves every element (and therefore the sum).
    #[test]
    fn reshape_preserves_contents(a in matrix(8)) {
        let len = a.len();
        let flat = a.reshape(vec![len]).unwrap();
        prop_assert_eq!(flat.as_slice(), a.as_slice());
    }

    /// Softmax rows are probability distributions that preserve order.
    #[test]
    fn softmax_rows_are_distributions(a in matrix(8)) {
        let s = a.softmax_rows().unwrap();
        let n = s.shape()[1];
        for (orig, row) in a.as_slice().chunks(n).zip(s.as_slice().chunks(n)) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {sum}");
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            // Argmax is preserved.
            let am = |xs: &[f32]| xs.iter().enumerate()
                .fold((0, f32::NEG_INFINITY), |b, (i, &v)| if v > b.1 { (i, v) } else { b }).0;
            prop_assert_eq!(am(orig), am(row));
        }
    }

    /// argmax_rows picks an index whose value is the row maximum.
    #[test]
    fn argmax_is_max(a in matrix(8)) {
        let n = a.shape()[1];
        for (row, &idx) in a.as_slice().chunks(n).zip(a.argmax_rows().unwrap().iter()) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(row[idx], max);
        }
    }

    /// Column sums computed by sum_axis0 match a manual reduction.
    #[test]
    fn sum_axis0_matches_manual(a in matrix(8)) {
        let (m, n) = (a.shape()[0], a.shape()[1]);
        let s = a.sum_axis0().unwrap();
        for j in 0..n {
            let manual: f32 = (0..m).map(|i| a.get(&[i, j])).sum();
            prop_assert!((s.as_slice()[j] - manual).abs() < 1e-3);
        }
    }

    /// gather_rows returns exactly the requested rows.
    #[test]
    fn gather_rows_exact(a in matrix(8), seed in 0u64..100) {
        let m = a.shape()[0];
        let mut rng = pelican_tensor::SeededRng::new(seed);
        let indices: Vec<usize> = (0..5).map(|_| rng.index(m)).collect();
        let g = a.gather_rows(&indices);
        for (out_row, &src) in indices.iter().enumerate() {
            prop_assert_eq!(g.row(out_row), a.row(src));
        }
    }
}
