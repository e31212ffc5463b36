//! Free-standing vector operations shared by aggregators and models.
//!
//! These mirror the element-wise primitives the accelerator's MP units and
//! aggregation stages execute. They are plain functions (no trait dispatch)
//! so the hot simulation loops stay branch-predictable.
//!
//! The element-wise kernels (`add_assign`, `max_assign`, `min_assign`,
//! `scale`, `axpy`, `relu`) are plain loops over the slices: LLVM
//! vectorizes them at the workspace's pinned `target-cpu`, and since Rust
//! neither fuses nor reassociates floating-point operations, each element
//! is computed exactly as written on every target. [`dot`] is the one
//! reduction; its summation order is spelled out in its docs and pinned
//! bit for bit by a golden test.

use crate::simd::{scalar_kernels, LANES};

/// The sequential dot product, kept as the reference [`dot`] is compared
/// against and the body the scalar-kernel switch selects.
pub mod scalar {
    /// Left-to-right dot product. See [`super::dot`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
}

/// Adds `src` into `dst` element-wise (`dst += src`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Element-wise maximum into `dst` (`dst = max(dst, src)`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "max_assign length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.max(*s);
    }
}

/// Element-wise minimum into `dst` (`dst = min(dst, src)`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn min_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "min_assign length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.min(*s);
    }
}

/// Scales every element of `xs` by `k`.
pub fn scale(xs: &mut [f32], k: f32) {
    for x in xs {
        *x *= k;
    }
}

/// `dst += k * src` (axpy), with the multiply and add rounded separately.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(dst: &mut [f32], k: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += k * s;
    }
}

/// `acc[l] += x[l] * y[l]` over the first [`LANES`] elements.
#[inline(always)]
fn accumulate(acc: &mut [f32; LANES], x: &[f32], y: &[f32]) {
    for ((s, x), y) in acc.iter_mut().zip(&x[..LANES]).zip(&y[..LANES]) {
        *s += x * y;
    }
}

/// Dot product, summed in a fixed order:
///
/// 1. the inputs are cut into chunks of [`LANES`]; even chunks accumulate
///    lane-wise into one accumulator, odd chunks into a second, so two
///    independent add chains run side by side;
/// 2. a shorter tail is zero-padded to a full chunk and multiplied across
///    all eight lanes into the second accumulator;
/// 3. the accumulators are summed lane-wise and reduced as
///    `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`.
///
/// The result depends only on the inputs, never on the target CPU, but it
/// differs from the left-to-right [`scalar::dot`] by rounding; the
/// property tests pin the two within 1e-6. Under the scalar-kernel
/// switch ([`crate::simd::set_scalar_kernels`]) this calls
/// [`scalar::dot`] instead.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    if scalar_kernels() {
        return scalar::dot(a, b);
    }
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut even = [0.0f32; LANES];
    let mut odd = [0.0f32; LANES];
    let (mut a, mut b) = (a, b);
    while a.len() >= 2 * LANES {
        accumulate(&mut even, a, b);
        accumulate(&mut odd, &a[LANES..], &b[LANES..]);
        (a, b) = (&a[2 * LANES..], &b[2 * LANES..]);
    }
    if a.len() >= LANES {
        accumulate(&mut even, a, b);
        (a, b) = (&a[LANES..], &b[LANES..]);
    }
    if !a.is_empty() {
        // Padding lanes still add 0.0 * 0.0 = +0.0: it turns a -0.0
        // accumulator lane into +0.0, so skipping them would change bits.
        for (l, s) in odd.iter_mut().enumerate() {
            *s += if l < a.len() { a[l] * b[l] } else { 0.0 };
        }
    }
    let l: [f32; LANES] = std::array::from_fn(|i| even[i] + odd[i]);
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// In-place ReLU: `xs[i] = max(xs[i], 0)`, the same as
/// [`crate::Activation::Relu`] applied element-wise.
pub fn relu(xs: &mut [f32]) {
    for x in xs {
        *x = x.max(0.0);
    }
}

/// Element-wise sum of two slices into a fresh vector.
///
/// Allocates; hot paths should use [`add_assign`] into a scratch slice.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// In-place numerically-stable softmax.
///
/// An empty slice is left unchanged. A row whose maximum is not finite
/// (any NaN or `+inf` element, or all elements `-inf`) has no
/// well-defined softmax in `f32`; such rows are returned **unchanged**
/// (deterministically) rather than silently divided by a `0.0`/NaN sum,
/// and a debug assertion fires so model bugs surface in development.
pub fn softmax(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    // `f32::max` returns the non-NaN operand, so the max alone cannot
    // detect a NaN element — track it alongside the reduction.
    let mut max = f32::NEG_INFINITY;
    let mut saw_nan = false;
    for &x in xs.iter() {
        saw_nan |= x.is_nan();
        max = max.max(x);
    }
    if saw_nan || !max.is_finite() {
        debug_assert!(
            false,
            "softmax over a non-finite row (max = {max}); row left unchanged"
        );
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    // With a finite max, exp(0) = 1 is among the terms, so sum >= 1.
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// Concatenates slices into one vector.
///
/// Allocates; hot paths should write segments into a scratch slice.
pub fn concat(parts: &[&[f32]]) -> Vec<f32> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

/// L2 norm.
pub fn norm(xs: &[f32]) -> f32 {
    dot(xs, xs).sqrt()
}

/// Maximum absolute element-wise difference between two slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums() {
        let mut d = vec![1.0, 2.0];
        add_assign(&mut d, &[3.0, 4.0]);
        assert_eq!(d, vec![4.0, 6.0]);
    }

    #[test]
    fn max_min_assign() {
        let mut mx = vec![1.0, 5.0];
        max_assign(&mut mx, &[3.0, 2.0]);
        assert_eq!(mx, vec![3.0, 5.0]);
        let mut mn = vec![1.0, 5.0];
        min_assign(&mut mn, &[3.0, 2.0]);
        assert_eq!(mn, vec![1.0, 2.0]);
    }

    #[test]
    fn axpy_and_dot() {
        let mut d = vec![1.0, 1.0];
        axpy(&mut d, 2.0, &[1.0, -1.0]);
        assert_eq!(d, vec![3.0, -1.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn dot_summation_order_is_pinned() {
        // FNV-1a over the result bits for every length 0..=100, which
        // covers every tail length after both even and odd chunk counts.
        // Any change to the summation order documented on `dot` changes
        // the hash.
        let mut rng = flowgnn_rng::Rng::seed_from_u64(0xD07_0DE5);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for len in 0..=100 {
            let a: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..=2.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..=2.0)).collect();
            for byte in dot(&a, &b).to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0xae4f_df8c_8784_8d26);
    }

    #[test]
    fn relu_clamps_in_place() {
        let mut xs: Vec<f32> = (0..13).map(|i| i as f32 - 6.0).collect();
        relu(&mut xs);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(*x, (i as f32 - 6.0).max(0.0));
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = [1.0, 2.0, 3.0];
        softmax(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[0] < xs[1] && xs[1] < xs[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [1000.0, 1001.0];
        softmax(&mut a);
        let mut b = [0.0, 1.0];
        softmax(&mut b);
        assert!((a[0] - b[0]).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut xs: [f32; 0] = [];
        softmax(&mut xs);
    }

    #[test]
    fn softmax_tolerates_partial_neg_infinity() {
        // A -inf logit with a finite max is fine: it just gets weight 0.
        let mut xs = [f32::NEG_INFINITY, 0.0, 1.0];
        softmax(&mut xs);
        assert_eq!(xs[0], 0.0);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite row")]
    fn softmax_non_finite_row_asserts_in_debug() {
        let mut xs = [f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax(&mut xs);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn softmax_non_finite_row_is_left_unchanged() {
        let mut all_neg_inf = [f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax(&mut all_neg_inf);
        assert!(all_neg_inf.iter().all(|x| *x == f32::NEG_INFINITY));
        let mut with_nan = [1.0, f32::NAN, 2.0];
        softmax(&mut with_nan);
        assert_eq!(with_nan[0], 1.0);
        assert!(with_nan[1].is_nan());
        assert_eq!(with_nan[2], 2.0);
    }

    #[test]
    fn concat_preserves_order() {
        assert_eq!(concat(&[&[1.0], &[2.0, 3.0]]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn norm_is_euclidean() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn max_abs_diff_finds_largest_gap() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 0.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
