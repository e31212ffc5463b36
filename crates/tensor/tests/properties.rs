//! Randomized tests for the tensor substrate, driven by the in-tree
//! deterministic PRNG so every run checks the same cases.

use flowgnn_rng::Rng;
use flowgnn_tensor::ops;
use flowgnn_tensor::{Activation, Linear, Matrix, Mlp, WeightInit};

fn vec_f32(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect()
}

#[test]
fn matvec_is_linear_in_input() {
    let mut rng = Rng::seed_from_u64(0x7E50_0001);
    for _ in 0..128 {
        let rows = rng.gen_range(1usize..8);
        let cols = rng.gen_range(1usize..8);
        let m = WeightInit::new(rng.next_u64() % 1000).matrix(rows, cols);
        let x = vec![1.0; cols];
        let y = vec![0.5; cols];
        let xy: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let lhs = m.matvec(&xy);
        let rhs: Vec<f32> = m
            .matvec(&x)
            .iter()
            .zip(m.matvec(&y))
            .map(|(a, b)| a + b)
            .collect();
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-4);
        }
    }
}

#[test]
fn transpose_round_trip() {
    let mut rng = Rng::seed_from_u64(0x7E50_0002);
    for _ in 0..128 {
        let rows = rng.gen_range(1usize..10);
        let cols = rng.gen_range(1usize..10);
        let m = WeightInit::new(rng.next_u64() % 1000).matrix(rows, cols);
        assert_eq!(m.transposed().transposed(), m);
    }
}

#[test]
fn input_stationary_matches_output_stationary() {
    let mut rng = Rng::seed_from_u64(0x7E50_0003);
    for _ in 0..128 {
        let in_dim = rng.gen_range(1usize..12);
        let out_dim = rng.gen_range(1usize..12);
        let seed = rng.next_u64() % 1000;
        let layer = Linear::seeded(in_dim, out_dim, Activation::Identity, seed);
        let x: Vec<f32> = (0..in_dim)
            .map(|i| ((i * 7 + seed as usize) % 13) as f32 / 6.5 - 1.0)
            .collect();
        let isc = layer.forward(&x);
        let mut osc = layer.weight().matvec(&x);
        for (o, b) in osc.iter_mut().zip(layer.bias()) {
            *o += b;
        }
        assert!(ops::max_abs_diff(&isc, &osc) < 1e-4);
    }
}

#[test]
fn relu_is_idempotent() {
    let mut rng = Rng::seed_from_u64(0x7E50_0004);
    for _ in 0..64 {
        let xs = vec_f32(&mut rng, 32);
        let mut once = xs.clone();
        Activation::Relu.apply_slice(&mut once);
        let mut twice = once.clone();
        Activation::Relu.apply_slice(&mut twice);
        assert_eq!(once, twice);
    }
}

#[test]
fn sigmoid_in_unit_interval() {
    let mut rng = Rng::seed_from_u64(0x7E50_0005);
    for _ in 0..64 {
        for x in vec_f32(&mut rng, 32) {
            let y = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&y));
        }
    }
}

#[test]
fn softmax_is_a_distribution() {
    let mut rng = Rng::seed_from_u64(0x7E50_0006);
    for _ in 0..64 {
        let mut xs = vec_f32(&mut rng, 16);
        ops::softmax(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(xs.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }
}

#[test]
fn mlp_output_dim_is_last_dim() {
    for seed in 0u64..32 {
        let mlp = Mlp::seeded(&[8, 6, 4, 2], Activation::Relu, seed);
        assert_eq!(mlp.forward(&[0.1; 8]).len(), 2);
    }
}

#[test]
fn max_assign_is_commutative() {
    let mut rng = Rng::seed_from_u64(0x7E50_0008);
    for _ in 0..64 {
        let a = vec_f32(&mut rng, 8);
        let b = vec_f32(&mut rng, 8);
        let mut ab = a.clone();
        ops::max_assign(&mut ab, &b);
        let mut ba = b.clone();
        ops::max_assign(&mut ba, &a);
        assert_eq!(ab, ba);
    }
}

#[test]
fn dot_is_symmetric() {
    let mut rng = Rng::seed_from_u64(0x7E50_0009);
    for _ in 0..64 {
        let a = vec_f32(&mut rng, 16);
        let b = vec_f32(&mut rng, 16);
        assert!((ops::dot(&a, &b) - ops::dot(&b, &a)).abs() < 1e-3);
    }
}

#[test]
fn identity_matrix_is_matvec_neutral() {
    let m = Matrix::identity(5);
    let x = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(m.matvec(&x), x.to_vec());
}

#[test]
fn rows_written_after_a_reshape_read_back_exactly() {
    // One matrix reshaped through random shapes, including zero rows and
    // zero columns, as the functional path's ping-pong buffers are,
    // against a `Vec<Vec<f32>>` model of per-node rows.
    let mut rng = Rng::seed_from_u64(0xA2E7A);
    let mut m = Matrix::default();
    for trial in 0..32 {
        let rows = rng.gen_range(0..20usize);
        let cols = rng.gen_range(0..40usize);
        m.reshape(rows, cols);
        let mut model: Vec<Vec<f32>> = (0..rows).map(|_| vec_f32(&mut rng, cols)).collect();
        for (r, row) in model.iter().enumerate() {
            m.set_row(r, row);
        }
        // Interleaved whole-row and single-element writes.
        for _ in 0..64 {
            if rows == 0 {
                break;
            }
            let r = rng.gen_range(0..rows);
            if cols > 0 && rng.gen_bool(0.5) {
                let c = rng.gen_range(0..cols);
                let v = rng.gen_range(-5.0f32..=5.0);
                m.row_mut(r)[c] = v;
                model[r][c] = v;
            } else {
                let vals = vec_f32(&mut rng, cols);
                m.set_row(r, &vals);
                model[r] = vals;
            }
        }
        assert_eq!((m.rows(), m.cols()), (rows, cols), "trial {trial}");
        for (r, want) in model.iter().enumerate() {
            assert_eq!(m.row(r), &want[..], "trial {trial} row {r}");
        }
        assert_eq!(m.as_slice(), &model.concat()[..], "trial {trial}");
    }
}
