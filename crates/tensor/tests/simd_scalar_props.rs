//! Property tests pinning each kernel to its reference.
//!
//! Each kernel has one body; its reference lives here, written out
//! independently of the library. `dot` (the one reduction with its own
//! summation order) is pinned to a left-to-right sum within 1e-6 over
//! lengths 0..64, which cover every tail length; `Linear` and `Mlp` are
//! pinned bit for bit to the plain input-stationary loop. Inputs come
//! from the in-tree xoshiro PRNG.

use flowgnn_rng::Rng;
use flowgnn_tensor::ops;
use flowgnn_tensor::{Activation, Linear, Matrix, Mlp};

fn random_vec(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-2.0f32..=2.0)).collect()
}

/// A vector with exact zeros mixed in, to exercise zero-skipping.
fn sparse_vec(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.4) {
                0.0
            } else {
                rng.gen_range(-2.0f32..=2.0)
            }
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The left-to-right dot product `ops::dot` is pinned to.
fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[test]
fn dot_is_pinned_to_scalar_within_1e6() {
    let mut rng = Rng::seed_from_u64(0xD07);
    for len in 0..64 {
        for trial in 0..4 {
            let a = random_vec(&mut rng, len);
            let b = random_vec(&mut rng, len);
            let fast = ops::dot(&a, &b);
            let slow = scalar_dot(&a, &b);
            let tol = 1e-6 * slow.abs().max(1.0) * (len as f32).max(1.0);
            assert!(
                (fast - slow).abs() <= tol,
                "dot len {len} trial {trial}: {fast} vs {slow}"
            );
        }
    }
}

#[test]
fn matvec_is_pinned_to_scalar_within_1e6() {
    let mut rng = Rng::seed_from_u64(0x3A7);
    for (rows, cols) in [(1, 1), (3, 7), (5, 8), (4, 17), (9, 33), (2, 64)] {
        let m = Matrix::from_vec(rows, cols, random_vec(&mut rng, rows * cols));
        let x = random_vec(&mut rng, cols);
        let got = m.matvec(&x);
        for (r, o) in got.iter().enumerate() {
            let slow = scalar_dot(m.row(r), &x);
            let tol = 1e-6 * slow.abs().max(1.0) * (cols as f32);
            assert!(
                (o - slow).abs() <= tol,
                "matvec {rows}x{cols} row {r}: {o} vs {slow}"
            );
        }
    }
}

/// The scalar input-stationary loop, written out independently of the
/// library (`out = b; for each nonzero x[i]: out[o] += x[i] * W[o][i]`).
fn reference_input_stationary(layer: &Linear, x: &[f32]) -> Vec<f32> {
    let weight = layer.weight();
    let mut out = layer.bias().to_vec();
    for (i, xi) in x.iter().enumerate() {
        if *xi == 0.0 {
            continue;
        }
        for (o, v) in out.iter_mut().enumerate() {
            *v += xi * weight[(o, i)];
        }
    }
    layer.activation().apply_slice(&mut out);
    out
}

/// Sparse inputs plus the edge cases of the zero skip: all-zero inputs of
/// either sign, and sparse inputs holding −0.0 (skipped like 0.0), NaN,
/// +inf or −inf (never skipped).
fn linear_inputs(rng: &mut Rng, len: usize) -> Vec<Vec<f32>> {
    let mut inputs: Vec<Vec<f32>> = (0..4).map(|_| sparse_vec(rng, len)).collect();
    inputs.push(vec![0.0; len]);
    inputs.push(vec![-0.0; len]);
    for special in [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut x = sparse_vec(rng, len);
        for i in (rng.gen_range(0..len)..len).step_by(5) {
            x[i] = special;
        }
        inputs.push(x);
    }
    inputs
}

#[test]
fn tiled_linear_forward_is_bit_identical_to_the_scalar_schedule() {
    let mut rng = Rng::seed_from_u64(0x11EA);
    for (in_dim, out_dim) in [
        (1, 1),
        (7, 3),
        (8, 8),
        (17, 9),
        (33, 20),
        (64, 5),
        // GIN: the MLP's two layers, the node encoder, the edge projection.
        (100, 200),
        (200, 100),
        (9, 100),
        (3, 100),
        // Output widths that reach every tile width (1 to 13 eight-lane
        // chunks, alone or split into two or three balanced tiles) and
        // every padding of the last chunk (0 to 7 columns).
        (5, 7),
        (6, 8),
        (4, 24),
        (7, 31),
        (3, 32),
        (12, 33),
        (7, 46),
        (9, 58),
        (40, 71),
        (9, 96),
        (5, 103),
        (11, 104),
        (6, 105),
        (10, 127),
        (4, 136),
        (8, 201),
        (3, 208),
        (5, 255),
        // Inputs spanning several 32-input compaction blocks and a partial
        // last one.
        (300, 13),
    ] {
        for act in [Activation::Identity, Activation::Relu] {
            let layer = Linear::seeded(in_dim, out_dim, act, 7 + in_dim as u64);
            // A −0.0 bias keeps its sign only if −0.0 inputs are skipped.
            let signed = Linear::new(layer.weight(), vec![-0.0; out_dim], act);
            for (trial, x) in linear_inputs(&mut rng, in_dim).iter().enumerate() {
                for layer in [&layer, &signed] {
                    let got = layer.forward(x);
                    let want = reference_input_stationary(layer, x);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "linear {in_dim}->{out_dim} {act} trial {trial}"
                    );
                }
            }
        }
    }
}

#[test]
fn mlp_forward_into_matches_forward_and_scalar_chain() {
    let mut rng = Rng::seed_from_u64(0x3117);
    let mlp = Mlp::seeded(&[19, 16, 8, 3], Activation::Relu, 5);
    let mut out = Vec::new();
    let mut tmp = Vec::new();
    for _ in 0..8 {
        let x = sparse_vec(&mut rng, 19);
        mlp.forward_into(&x, &mut out, &mut tmp);
        assert_eq!(bits(&out), bits(&mlp.forward(&x)), "forward_into reuse");
        let mut want = x.clone();
        for layer in mlp.layers() {
            want = reference_input_stationary(layer, &want);
        }
        assert_eq!(bits(&out), bits(&want), "mlp vs scalar chain");
    }
}
