//! Property-based tests for the neural-network substrate.

use neural::activation::{softmax_rows, softmax_rows_backward};
use neural::dense::Dense;
use neural::layer::Layer;
use neural::loss::mse;
use neural::serialize::{tensors_from_bytes, tensors_to_bytes};
use neural::tensor::Tensor;
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    -5.0f32..5.0f32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_distributes_over_addition(
        a in prop::collection::vec(small_f32(), 12),
        b in prop::collection::vec(small_f32(), 12),
        c in prop::collection::vec(small_f32(), 12),
    ) {
        // (A + B) C == A C + B C for 3x4 * 4x3 matrices.
        let ta = Tensor::from_vec(a, &[3, 4]).unwrap();
        let tb = Tensor::from_vec(b, &[3, 4]).unwrap();
        let tc = Tensor::from_vec(c, &[4, 3]).unwrap();
        let left = ta.add(&tb).matmul(&tc);
        let right = ta.matmul(&tc).add(&tb.matmul(&tc));
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_is_an_involution_and_preserves_matmul(
        a in prop::collection::vec(small_f32(), 6),
        b in prop::collection::vec(small_f32(), 8),
    ) {
        let ta = Tensor::from_vec(a, &[2, 3]).unwrap();
        let tb = Tensor::from_vec(b, &[4, 2]).unwrap();
        prop_assert_eq!(ta.transpose().transpose(), ta.clone());
        // (B A)^T == A^T B^T
        let left = tb.matmul(&ta).transpose();
        let right = ta.transpose().matmul(&tb.transpose());
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_are_probability_distributions(values in prop::collection::vec(-30.0f32..30.0, 24)) {
        let x = Tensor::from_vec(values, &[4, 6]).unwrap();
        let y = softmax_rows(&x);
        for row in 0..4 {
            let sum: f32 = (0..6).map(|c| y.at(row, c)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for c in 0..6 {
                prop_assert!(y.at(row, c) >= 0.0 && y.at(row, c) <= 1.0);
            }
        }
    }

    #[test]
    fn softmax_backward_of_uniform_grad_is_zero(values in prop::collection::vec(-5.0f32..5.0, 8), k in -2.0f32..2.0) {
        // If dL/dy is constant across a row, dL/dx must vanish (softmax is shift
        // invariant along each row).
        let x = Tensor::from_vec(values, &[2, 4]).unwrap();
        let y = softmax_rows(&x);
        let grad = Tensor::full(&[2, 4], k);
        let dx = softmax_rows_backward(&y, &grad);
        prop_assert!(dx.max_abs() < 1e-4);
    }

    #[test]
    fn dense_layer_is_affine(
        seed in 0u64..1000,
        x1 in prop::collection::vec(small_f32(), 6),
        x2 in prop::collection::vec(small_f32(), 6),
    ) {
        // f(x1 + x2) - f(0) == (f(x1) - f(0)) + (f(x2) - f(0))
        let mut layer = Dense::new(6, 3, seed);
        let t0 = Tensor::zeros(&[1, 6]);
        let t1 = Tensor::from_vec(x1.clone(), &[1, 6]).unwrap();
        let t2 = Tensor::from_vec(x2.clone(), &[1, 6]).unwrap();
        let sum: Vec<f32> = x1.iter().zip(x2.iter()).map(|(a, b)| a + b).collect();
        let tsum = Tensor::from_vec(sum, &[1, 6]).unwrap();
        let f0 = layer.infer(&t0);
        let f1 = layer.infer(&t1);
        let f2 = layer.infer(&t2);
        let fsum = layer.infer(&tsum);
        for j in 0..3 {
            let lhs = fsum.at(0, j) - f0.at(0, j);
            let rhs = (f1.at(0, j) - f0.at(0, j)) + (f2.at(0, j) - f0.at(0, j));
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }

    #[test]
    fn mse_is_nonnegative_and_zero_iff_equal(values in prop::collection::vec(small_f32(), 1..40)) {
        let len = values.len();
        let a = Tensor::from_vec(values.clone(), &[len]).unwrap();
        let (loss_same, grad_same) = mse(&a, &a);
        prop_assert_eq!(loss_same, 0.0);
        prop_assert_eq!(grad_same.max_abs(), 0.0);
        let shifted = a.map(|v| v + 1.0);
        let (loss, _) = mse(&a, &shifted);
        prop_assert!((loss - 1.0).abs() < 1e-4);
    }

    #[test]
    fn weight_serialization_round_trips(
        values in prop::collection::vec(small_f32(), 1..64),
        rows in 1usize..8,
    ) {
        let len = values.len();
        let cols = len / rows;
        if cols == 0 { return Ok(()); }
        let t = Tensor::from_vec(values[..rows * cols].to_vec(), &[rows, cols]).unwrap();
        let bytes = tensors_to_bytes(&[&t]);
        let restored = tensors_from_bytes(&bytes).unwrap();
        prop_assert_eq!(restored.len(), 1);
        prop_assert_eq!(&restored[0], &t);
    }
}

// Property tests for the PR-1 performance kernels: the blocked/parallel matmul,
// the blocked transpose and the im2col convolution must match their naive
// reference implementations on random shapes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_matmul_matches_naive_on_random_shapes(
        n in 1usize..40,
        k in 1usize..160,
        m in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a = neural::init::normal(&[n, k], 1.0, seed);
        let b = neural::init::normal(&[k, m], 1.0, seed.wrapping_add(1));
        let fast = a.matmul(&b);
        let reference = a.matmul_naive(&b);
        prop_assert_eq!(fast.shape(), reference.shape());
        for (f, r) in fast.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "{} vs {}", f, r);
        }
    }

    #[test]
    fn matmul_thread_count_does_not_change_results(
        n in 8usize..48,
        k in 32usize..96,
        seed in 0u64..1000,
    ) {
        let a = neural::init::normal(&[n, k], 1.0, seed);
        let b = neural::init::normal(&[k, n], 1.0, seed.wrapping_add(7));
        let serial = a.matmul_with_threads(&b, 1);
        let parallel = a.matmul_with_threads(&b, 4);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn blocked_transpose_round_trips_on_random_shapes(
        n in 1usize..70,
        m in 1usize..70,
        seed in 0u64..1000,
    ) {
        let a = neural::init::normal(&[n, m], 1.0, seed);
        let t = a.transpose();
        prop_assert_eq!(t.shape(), &[m, n]);
        prop_assert_eq!(t.transpose(), a.clone());
        for i in 0..n.min(8) {
            for j in 0..m.min(8) {
                prop_assert_eq!(t.at(j, i), a.at(i, j));
            }
        }
    }

    #[test]
    fn im2col_convolution_matches_direct_on_random_shapes(
        h in 1usize..9,
        w in 1usize..9,
        cin in 1usize..4,
        cout in 1usize..4,
        kernel_half in 0usize..3,
        seed in 0u64..1000,
    ) {
        let kernel = 2 * kernel_half + 1;
        let mut conv = neural::conv::Conv2d::new(cin, cout, kernel, seed);
        let x = neural::init::normal(&[h, w, cin], 1.0, seed.wrapping_add(3));
        let fast = conv.forward(&x);
        let direct = conv.infer_direct(&x);
        prop_assert_eq!(fast.shape(), direct.shape());
        for (a, b) in fast.as_slice().iter().zip(direct.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{} vs {}", a, b);
        }
    }
}
