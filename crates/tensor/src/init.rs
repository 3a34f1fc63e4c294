//! Deterministic weight initializers.
//!
//! Model weights in the reproduction are trained from scratch, so the initializers matter
//! for reproducibility: every initializer takes an explicit RNG so experiments can be
//! replayed from a seed.

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Samples a standard normal value using the Box–Muller transform.
///
/// `rand` 0.8 without `rand_distr` does not expose a normal distribution, so we derive one
/// from two uniform samples.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Fills a tensor with samples from a normal distribution with the given mean and standard
/// deviation.
pub fn normal<R: Rng + ?Sized>(dims: impl Into<Shape>, mean: f32, std: f32, rng: &mut R) -> Tensor {
    let shape = dims.into();
    let n = shape.num_elements();
    let data = (0..n)
        .map(|_| mean + std * sample_standard_normal(rng))
        .collect();
    Tensor::from_vec(shape, data).expect("shape/data length match by construction")
}

/// Fills a tensor with samples from `U(lo, hi)`.
pub fn uniform<R: Rng + ?Sized>(dims: impl Into<Shape>, lo: f32, hi: f32, rng: &mut R) -> Tensor {
    let shape = dims.into();
    let n = shape.num_elements();
    let dist = Uniform::new(lo, hi);
    let data = (0..n).map(|_| dist.sample(rng)).collect();
    Tensor::from_vec(shape, data).expect("shape/data length match by construction")
}

/// He (Kaiming) normal initialization for layers followed by ReLU activations.
///
/// `fan_in` is the number of input connections feeding each output unit.
pub fn he_normal<R: Rng + ?Sized>(dims: impl Into<Shape>, fan_in: usize, rng: &mut R) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    normal(dims, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_has_requested_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = normal(vec![10_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean was {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std was {}", var.sqrt());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = uniform(vec![1000], -0.5, 0.5, &mut rng);
        assert!(t.max() <= 0.5 && t.min() >= -0.5);
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(11);
        let wide = he_normal(vec![10_000], 1000, &mut rng);
        let narrow = he_normal(vec![10_000], 10, &mut rng);
        let std = |t: &Tensor| {
            let m = t.mean();
            (t.data().iter().map(|x| (x - m) * (x - m)).sum::<f32>() / t.len() as f32).sqrt()
        };
        assert!(std(&wide) < std(&narrow));
    }

    #[test]
    fn initializers_are_deterministic_for_a_seed() {
        let a = he_normal(vec![64], 32, &mut StdRng::seed_from_u64(5));
        let b = he_normal(vec![64], 32, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
