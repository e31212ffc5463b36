//! Fully-connected (linear) layer.

use crate::{simd, Activation, Matrix, WeightInit};

/// A fully-connected layer `y = act(W·x + b)`.
///
/// This is the workhorse of every node transformation in the paper's models
/// (GCN's linear transform, GIN's MLP layers, GAT's per-head projections,
/// PNA's towers, output heads). The weight matrix is stored `out × in`
/// row-major; [`Linear::forward_input_stationary`] mirrors the accelerator's
/// NT-unit schedule, in which each fetched *input* element updates the whole
/// output vector — the two orders produce different floating-point rounding,
/// so the simulator and the reference both use the input-stationary order to
/// keep cross-checks exact.
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
    weight: Matrix,
    // Transposed copy (`in × out`) kept alongside the canonical `out × in`
    // matrix: the input-stationary loop reads one *contiguous* slice of a
    // transposed row per nonzero input and tile instead of a strided
    // column walk.
    wt: Matrix,
    bias: Vec<f32>,
    activation: Activation,
}

impl Linear {
    /// Creates a layer from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`.
    pub fn new(weight: Matrix, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(
            bias.len(),
            weight.rows(),
            "bias length {} does not match {} output rows",
            bias.len(),
            weight.rows()
        );
        let wt = weight.transposed();
        Self {
            weight,
            wt,
            bias,
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
        self.weight.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix (`out × in`).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
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
    /// rounded separately. The default body first compacts the nonzero
    /// inputs of each block of 32 into a stack buffer, branch-free, then
    /// accumulates the outputs in register tiles of 64, 32, 16, 8, 4, 2
    /// and 1 columns: a tile stays in registers while it takes every
    /// compacted input's product from one contiguous slice of the
    /// transposed weights. The scalar-kernel switch
    /// ([`crate::simd::set_scalar_kernels`]) selects the reference walk
    /// down the columns of the `out × in` matrix instead. Both add the
    /// same products to each output element in the same order, so they
    /// are **bit-identical**, zero-skipping included.
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
        out.clear();
        out.extend_from_slice(&self.bias);
        if simd::scalar_kernels() {
            for (i, xi) in x.iter().enumerate() {
                if *xi == 0.0 {
                    continue; // skip zero inputs; result identical, cheaper in sim
                }
                for (o, row) in out.iter_mut().zip(self.weight.iter_rows()) {
                    *o += xi * row[i];
                }
            }
            return;
        }
        let mut nonzero = [(0u32, 0.0f32); COMPACT_BLOCK];
        for (b, block) in x.chunks(COMPACT_BLOCK).enumerate() {
            // Every input is written; only a nonzero one advances the
            // cursor, so a zero is overwritten by the next input.
            let mut len = 0;
            for (j, &xi) in block.iter().enumerate() {
                nonzero[len] = ((b * COMPACT_BLOCK + j) as u32, xi);
                len += usize::from(xi != 0.0);
            }
            let nonzero = &nonzero[..len];
            let mut col = 0;
            let rest = self.tiles::<64>(out, &mut col, nonzero);
            let rest = self.tiles::<32>(rest, &mut col, nonzero);
            let rest = self.tiles::<16>(rest, &mut col, nonzero);
            let rest = self.tiles::<8>(rest, &mut col, nonzero);
            let rest = self.tiles::<4>(rest, &mut col, nonzero);
            let rest = self.tiles::<2>(rest, &mut col, nonzero);
            self.tiles::<1>(rest, &mut col, nonzero);
        }
    }

    /// Adds every `(i, x[i])` of `nonzero`, in order, into each whole
    /// `W`-column tile of `out`, whose first column is output `col`.
    /// Advances `col` past those tiles and returns the columns left over.
    #[inline(always)]
    fn tiles<'o, const W: usize>(
        &self,
        out: &'o mut [f32],
        col: &mut usize,
        nonzero: &[(u32, f32)],
    ) -> &'o mut [f32] {
        let mut tiles = out.chunks_exact_mut(W);
        for tile in &mut tiles {
            let tile: &mut [f32; W] = tile.try_into().expect("a whole tile");
            let mut acc = *tile;
            for &(i, xi) in nonzero {
                let w: &[f32; W] = self.wt.row(i as usize)[*col..*col + W]
                    .try_into()
                    .expect("a whole tile");
                for (a, w) in acc.iter_mut().zip(w) {
                    *a += xi * w;
                }
            }
            *tile = acc;
            *col += W;
        }
        tiles.into_remainder()
    }
}

/// Inputs [`Linear::forward_input_stationary`] compacts per block: their
/// nonzero indices and values fit a small fixed stack buffer, so a layer
/// of any width allocates nothing.
const COMPACT_BLOCK: usize = 32;

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
