//! Activation functions used by FlowGNN's node/message transformations.

/// An element-wise activation function.
///
/// Covers every activation appearing in the six paper models: ReLU (GIN/PNA/
/// DGN MLPs), LeakyReLU (GAT attention logits), sigmoid (output heads), and
/// identity (plain linear layers such as GCN's transformation).
///
/// # Example
///
/// ```
/// use flowgnn_tensor::Activation;
///
/// assert_eq!(Activation::Relu.apply(-1.5), 0.0);
/// assert_eq!(Activation::Relu.apply(2.0), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// `f(x) = x`.
    #[default]
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = x` for `x >= 0`, else `0.2 * x` (the GAT paper's slope).
    LeakyRelu,
    /// Logistic sigmoid `f(x) = 1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// The negative slope used by [`Activation::LeakyRelu`].
    pub const LEAKY_SLOPE: f32 = 0.2;

    /// Applies the activation to a single value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    Self::LEAKY_SLOPE * x
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Applies the activation to every element of `xs` in place.
    ///
    /// ReLU — the activation on every hot per-node path — goes through
    /// the [`crate::ops::relu`] kernel (bit-identical to the
    /// [`Activation::apply`] loop).
    pub fn apply_slice(self, xs: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => crate::ops::relu(xs),
            _ => {
                for x in xs {
                    *x = self.apply(*x);
                }
            }
        }
    }

    /// Human-readable name (lowercase), e.g. `"relu"`.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::LeakyRelu => "leaky_relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_returns_input() {
        assert_eq!(Activation::Identity.apply(-3.25), -3.25);
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
        assert_eq!(Activation::Relu.apply(4.0), 4.0);
    }

    #[test]
    fn leaky_relu_scales_negative() {
        assert_eq!(Activation::LeakyRelu.apply(-1.0), -0.2);
        assert_eq!(Activation::LeakyRelu.apply(3.0), 3.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
        assert!(Activation::Sigmoid.apply(20.0) > 0.999);
        assert!(Activation::Sigmoid.apply(-20.0) < 0.001);
    }

    #[test]
    fn tanh_matches_std() {
        assert_eq!(Activation::Tanh.apply(0.7), 0.7f32.tanh());
    }

    #[test]
    fn apply_slice_maps_every_element() {
        let mut xs = [-1.0, 0.5, 2.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, [0.0, 0.5, 2.0]);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Activation::LeakyRelu.to_string(), "leaky_relu");
    }
}
