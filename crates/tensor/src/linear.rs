//! Fully-connected (linear) layer.

use crate::simd::LANES;
use crate::{Activation, Matrix, WeightInit};

/// A fully-connected layer `y = act(W·x + b)`.
///
/// This is the workhorse of every node transformation in the paper's models
/// (GCN's linear transform, GIN's MLP layers, GAT's per-head projections,
/// PNA's towers, output heads). [`Linear::forward_input_stationary`]
/// mirrors the accelerator's NT-unit schedule, in which each fetched
/// *input* element updates the whole output vector; the weights are stored
/// once, transposed (`in × out`), so each input's products come from one
/// contiguous row. Each row, and the bias, is zero-padded to a whole
/// number of [`LANES`]-wide chunks, each aligned to its own size, so every
/// register tile reads whole chunks and no load straddles a cache line.
/// The padding feeds no output, and [`Linear::out_dim`], [`Linear::macs`],
/// [`Linear::weight`] and [`Linear::bias`] report the unpadded layer. The
/// input- and output-stationary orders round differently, so the
/// simulator and the reference both use the input-stationary order to keep
/// cross-checks exact.
///
/// # Example
///
/// ```
/// use flowgnn_tensor::{Linear, Activation};
///
/// let layer = Linear::seeded(8, 4, Activation::Relu, 1);
/// let y = layer.forward(&vec![0.25; 8]);
/// assert_eq!(y.len(), 4);
/// assert!(y.iter().all(|&v| v >= 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// `W` transposed and zero-padded (`in × ⌈out/LANES⌉·LANES`): input
    /// `i`'s weights for every output fill chunks `i·c .. (i+1)·c`, where
    /// `c = ⌈out/LANES⌉`, and zeros the rest of the last one.
    wt: Vec<Chunk>,
    /// `b`, zero-padded like a row of `wt`.
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
}

impl Linear {
    /// Creates a layer from explicit parameters; `weight` is `out × in`.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`, or if the padded weights
    /// hold more than `u32::MAX` chunks.
    pub fn new(weight: Matrix, mut bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(
            bias.len(),
            weight.rows(),
            "bias length {} does not match {} output rows",
            bias.len(),
            weight.rows()
        );
        let (out_dim, in_dim) = (weight.rows(), weight.cols());
        let chunks = out_dim.div_ceil(LANES);
        assert!(
            u32::try_from(in_dim * chunks).is_ok(),
            "{in_dim}x{out_dim} weights overflow the u32 chunk offsets"
        );
        let t = weight.transposed();
        let mut wt = vec![Chunk([0.0; LANES]); in_dim * chunks];
        for i in 0..in_dim {
            for (chunk, w) in wt[i * chunks..].iter_mut().zip(t.row(i).chunks(LANES)) {
                chunk.0[..w.len()].copy_from_slice(w);
            }
        }
        bias.resize(chunks * LANES, 0.0);
        Self {
            wt,
            bias,
            in_dim,
            out_dim,
            activation,
        }
    }

    /// Creates a layer with Glorot-uniform weights from a seed.
    pub fn seeded(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        let mut init = WeightInit::new(seed);
        Self::from_init(in_dim, out_dim, activation, &mut init)
    }

    /// Creates a layer drawing parameters from an existing initialiser
    /// stream (used when a whole model shares one seed).
    pub fn from_init(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: &mut WeightInit,
    ) -> Self {
        // Draw order (matrix, then bias) is pinned by the weight goldens.
        let weight = init.matrix(out_dim, in_dim);
        let bias = init.bias(out_dim);
        Self::new(weight, bias, activation)
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix (`out × in`), as a copy transposed back from the
    /// stored layout without its padding.
    pub fn weight(&self) -> Matrix {
        let chunks = self.out_dim.div_ceil(LANES);
        let rows = (0..self.in_dim).flat_map(|i| {
            let row = &self.wt[i * chunks..(i + 1) * chunks];
            row.iter().flat_map(|c| c.0).take(self.out_dim)
        });
        Matrix::from_vec(self.in_dim, self.out_dim, rows.collect()).transposed()
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias[..self.out_dim]
    }

    /// Number of multiply–accumulate operations per forward pass.
    ///
    /// Used by the baseline platform models and the resource estimator.
    pub fn macs(&self) -> u64 {
        (self.in_dim() as u64) * (self.out_dim() as u64)
    }

    /// Forward pass returning a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.forward_into(x, &mut out);
        out
    }

    /// Forward pass into a caller-provided buffer (resized to `out_dim`).
    ///
    /// Uses the input-stationary accumulation order (see type docs).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward_into(&self, x: &[f32], out: &mut Vec<f32>) {
        self.forward_input_stationary(x, out);
        self.activation.apply_slice(out);
    }

    /// The raw input-stationary accumulation *without* activation:
    /// `out = b; for each input element i: out += x[i] * W[:, i]`.
    ///
    /// This is exactly the loop the accelerator's NT unit executes
    /// (`P_apply` input elements per cycle); exposing it lets the simulator
    /// share the arithmetic while accounting cycles itself.
    ///
    /// Inputs equal to `0.0` (either sign) are skipped, and every output
    /// element starts from its bias and receives the products of the
    /// remaining inputs in ascending input order, each multiply and add
    /// rounded separately. The loop first compacts the nonzero inputs of
    /// each block of 32 into a stack buffer, branch-free, then accumulates
    /// the outputs, padded like a weight row, in register tiles of up to 13
    /// [`LANES`]-wide accumulators. The padded row's chunks are split as
    /// evenly as that allows: a 200-wide layer into 104 + 96 columns, a
    /// 100-wide one into one 104-column tile, and no tile is narrower than
    /// 56 columns unless the whole layer is. A tile stays in registers
    /// while it takes every compacted input's product from one contiguous,
    /// aligned slice of the padded transposed weights, and its independent
    /// add chains outnumber the add latency, so the multiplies and adds
    /// themselves bound it. Each output element receives the same products
    /// in the same order as a walk down the columns of `W`, so the two are
    /// **bit-identical**, zero-skipping included.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward_input_stationary(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            x.len(),
            self.in_dim(),
            "input length {} does not match layer input dim {}",
            x.len(),
            self.in_dim()
        );
        // The buffer holds the padded bias while it accumulates, so every
        // tile loads and stores whole chunks.
        out.clear();
        out.extend_from_slice(&self.bias);
        let (acc, _) = out.as_chunks_mut::<LANES>();
        let chunks = acc.len();
        let tiles = chunks.div_ceil(TILE_CHUNKS);
        let mut nonzero = [(0u32, 0.0f32); COMPACT_BLOCK];
        for (b, block) in x.chunks(COMPACT_BLOCK).enumerate() {
            // An entry holds an input's first weight chunk (`new` checked
            // that it fits) and its value. Every input is written; only a
            // nonzero one advances the cursor, so a zero is overwritten by
            // the next input.
            let mut len = 0;
            for (j, &xi) in block.iter().enumerate() {
                nonzero[len] = (((b * COMPACT_BLOCK + j) * chunks) as u32, xi);
                len += usize::from(xi != 0.0);
            }
            let nonzero = &nonzero[..len];
            let mut chunk = 0;
            for t in 0..tiles {
                // The first `chunks % tiles` tiles take one chunk more.
                let width = chunks / tiles + usize::from(t < chunks % tiles);
                let (acc, weights) = (&mut acc[chunk..], &self.wt[chunk..]);
                match width {
                    1 => tile::<1>(acc, weights, nonzero),
                    2 => tile::<2>(acc, weights, nonzero),
                    3 => tile::<3>(acc, weights, nonzero),
                    4 => tile::<4>(acc, weights, nonzero),
                    5 => tile::<5>(acc, weights, nonzero),
                    6 => tile::<6>(acc, weights, nonzero),
                    7 => tile::<7>(acc, weights, nonzero),
                    8 => tile::<8>(acc, weights, nonzero),
                    9 => tile::<9>(acc, weights, nonzero),
                    10 => tile::<10>(acc, weights, nonzero),
                    11 => tile::<11>(acc, weights, nonzero),
                    12 => tile::<12>(acc, weights, nonzero),
                    13 => tile::<13>(acc, weights, nonzero),
                    _ => unreachable!("a tile is 1 to {TILE_CHUNKS} chunks wide"),
                }
                chunk += width;
            }
        }
        out.truncate(self.out_dim);
    }
}

/// Adds every `(row, x[i])` of `nonzero`, in order, into the first `K`
/// chunks of `acc`, taking input `i`'s weights from the `K` chunks of
/// `weights` that start at `row`.
#[inline(always)]
fn tile<const K: usize>(acc: &mut [[f32; LANES]], weights: &[Chunk], nonzero: &[(u32, f32)]) {
    let acc: &mut [[f32; LANES]; K] = (&mut acc[..K]).try_into().expect("a whole tile");
    let mut tile = *acc;
    for &(row, xi) in nonzero {
        let row = row as usize;
        let w: &[Chunk; K] = weights[row..row + K].try_into().expect("a whole tile");
        for (a, w) in tile.iter_mut().zip(w) {
            for (a, w) in a.iter_mut().zip(&w.0) {
                *a += xi * w;
            }
        }
    }
    *acc = tile;
}

/// [`LANES`] weights of one padded row, aligned to their own size so no
/// vector load of a tile straddles a cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
struct Chunk([f32; LANES]);

const _: () = assert!(std::mem::size_of::<Chunk>() == std::mem::align_of::<Chunk>());

/// Inputs [`Linear::forward_input_stationary`] compacts per block: their
/// nonzero chunk offsets and values fit a small fixed stack buffer, so a
/// layer of any width allocates nothing, and each tile loads and stores
/// its outputs once per block.
const COMPACT_BLOCK: usize = 32;

/// Most [`LANES`]-wide accumulators one register tile holds: 13
/// accumulators, the broadcast input and the products fill the 16 AVX2
/// vector registers.
const TILE_CHUNKS: usize = 13;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Linear {
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        Linear::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
            vec![0.5, -0.5],
            Activation::Identity,
        )
    }

    #[test]
    fn forward_matches_manual() {
        let y = tiny().forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn input_stationary_matches_matvec_order() {
        let layer = Linear::seeded(17, 9, Activation::Identity, 11);
        let x: Vec<f32> = (0..17).map(|i| (i as f32 * 0.37).sin()).collect();
        let expected: Vec<f32> = layer
            .weight()
            .matvec(&x)
            .iter()
            .zip(layer.bias())
            .map(|(v, b)| v + b)
            .collect();
        let got = layer.forward(&x);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-4, "{g} vs {e}");
        }
    }

    #[test]
    fn activation_is_applied() {
        let layer = Linear::new(Matrix::from_rows(&[&[1.0]]), vec![0.0], Activation::Relu);
        assert_eq!(layer.forward(&[-5.0]), vec![0.0]);
    }

    #[test]
    fn zero_input_elements_are_skippable() {
        let layer = tiny();
        let dense = layer.forward(&[0.0, 2.0]);
        assert_eq!(dense, vec![4.5, 7.5]);
    }

    #[test]
    fn weight_round_trips_through_the_stored_layout() {
        // Non-square, so a `weight()` that forgot to transpose back would
        // come out 5 × 3; 3 and 13 outputs are not whole chunks, so one
        // that kept the padding would come out wider.
        for (out, inp) in [(3, 5), (13, 100)] {
            let w = Matrix::from_vec(out, inp, (0..out * inp).map(|v| v as f32 - 7.0).collect());
            let bias: Vec<f32> = (0..out).map(|v| v as f32 + 0.5).collect();
            let layer = Linear::new(w.clone(), bias.clone(), Activation::Identity);
            assert_eq!(layer.weight(), w);
            assert_eq!(layer.bias(), bias);
            assert_eq!((layer.in_dim(), layer.out_dim()), (inp, out));
        }
    }

    #[test]
    fn macs_counts_products() {
        assert_eq!(Linear::seeded(100, 100, Activation::Relu, 0).macs(), 10_000);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_input_length_panics() {
        tiny().forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn mismatched_bias_panics() {
        Linear::new(Matrix::zeros(2, 2), vec![0.0], Activation::Identity);
    }

    #[test]
    fn forward_into_reuses_buffer() {
        let layer = tiny();
        let mut buf = vec![9.0; 17];
        layer.forward_into(&[1.0, 1.0], &mut buf);
        assert_eq!(buf, vec![3.5, 6.5]);
    }
}
