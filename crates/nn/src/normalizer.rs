//! Input/output standardization for regression targets.
//!
//! The SPICE approximator trains on measurements spanning wildly different
//! units (dB, Hz, W, m²); fitting raw targets would let the largest unit
//! dominate the MSE. [`Normalizer`] maintains per-component mean/std over
//! the points seen so far and maps both ways.


/// Per-component standardizer: `z = (x − mean) / std`.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    dim: usize,
    count: usize,
    mean: Vec<f64>,
    /// Running sum of squared deviations (Welford).
    m2: Vec<f64>,
}

impl Normalizer {
    /// Creates a standardizer for `dim`-component vectors.
    pub fn new(dim: usize) -> Self {
        Normalizer { dim, count: 0, mean: vec![0.0; dim], m2: vec![0.0; dim] }
    }

    /// Number of observed vectors.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Dimension of the vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Observes one vector (Welford update).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn observe(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim, "normalizer dimension mismatch");
        self.count += 1;
        for (i, &xi) in x.iter().enumerate() {
            let d = xi - self.mean[i];
            self.mean[i] += d / self.count as f64;
            self.m2[i] += d * (xi - self.mean[i]);
        }
    }

    /// Current per-component standard deviation (1.0 until two samples
    /// exist or when a component is constant).
    pub fn std(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| {
                if self.count < 2 {
                    1.0
                } else {
                    let var = self.m2[i] / (self.count - 1) as f64;
                    if var > 1e-24 {
                        var.sqrt()
                    } else {
                        1.0
                    }
                }
            })
            .collect()
    }

    /// Current per-component mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Standardizes a vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn normalize(&self, x: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.dim];
        self.normalize_into(&self.std(), x, &mut z);
        z
    }

    /// [`Normalizer::normalize`] into a caller-owned buffer, with the
    /// scales `std` (from [`Normalizer::std`]) computed once by the
    /// caller for many points.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length differs from `self.dim()`.
    pub fn normalize_into(&self, std: &[f64], x: &[f64], z: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "normalizer dimension mismatch");
        debug_assert!(
            x.iter().all(|v| v.is_finite()),
            "normalize called with non-finite input {x:?}"
        );
        let (mean, std, z) = (&self.mean[..self.dim], &std[..self.dim], &mut z[..self.dim]);
        for (((z, &v), m), s) in z.iter_mut().zip(x).zip(mean).zip(std) {
            *z = (v - m) / s;
        }
    }

    /// Inverts [`Normalizer::normalize`].
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn denormalize(&self, z: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim];
        self.denormalize_into(&self.std(), z, &mut x);
        x
    }

    /// [`Normalizer::denormalize`] into a caller-owned buffer, with
    /// precomputed scales as for [`Normalizer::normalize_into`].
    ///
    /// # Panics
    ///
    /// Panics if a slice's length differs from `self.dim()`.
    pub fn denormalize_into(&self, std: &[f64], z: &[f64], x: &mut [f64]) {
        assert_eq!(z.len(), self.dim, "normalizer dimension mismatch");
        debug_assert!(
            z.iter().all(|v| v.is_finite()),
            "denormalize called with non-finite input {z:?}"
        );
        let (mean, std, x) = (&self.mean[..self.dim], &std[..self.dim], &mut x[..self.dim]);
        for (((x, &v), m), s) in x.iter_mut().zip(z).zip(mean).zip(std) {
            *x = v * s + m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_match_closed_form() {
        let mut n = Normalizer::new(2);
        let data = [[1.0, 100.0], [3.0, 200.0], [5.0, 300.0]];
        for d in &data {
            n.observe(d);
        }
        assert_eq!(n.count(), 3);
        assert!((n.mean()[0] - 3.0).abs() < 1e-12);
        assert!((n.mean()[1] - 200.0).abs() < 1e-12);
        let s = n.std();
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] - 100.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip() {
        let mut n = Normalizer::new(3);
        for k in 0..10 {
            n.observe(&[k as f64, 2.0 * k as f64 + 1.0, -0.5 * k as f64]);
        }
        let x = [4.2, -1.0, 7.0];
        let z = n.normalize(&x);
        let back = n.denormalize(&z);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_cases_fall_back_to_unit_scale() {
        let mut n = Normalizer::new(1);
        assert_eq!(n.std(), vec![1.0], "no data");
        n.observe(&[5.0]);
        assert_eq!(n.std(), vec![1.0], "one sample");
        n.observe(&[5.0]);
        n.observe(&[5.0]);
        assert_eq!(n.std(), vec![1.0], "constant component");
        // Normalization of the constant just centers it.
        assert_eq!(n.normalize(&[5.0]), vec![0.0]);
    }

    #[test]
    fn constant_feature_round_trips_without_nan() {
        // A constant component has zero variance; the unit-scale fallback
        // must keep normalize/denormalize a finite, exact round trip
        // instead of dividing by zero.
        let mut n = Normalizer::new(2);
        for k in 0..10 {
            n.observe(&[7.5, k as f64]);
        }
        let x = [7.5, 4.0];
        let z = n.normalize(&x);
        assert!(z.iter().all(|v| v.is_finite()), "normalized constant went non-finite: {z:?}");
        assert_eq!(z[0], 0.0, "constant centers to zero");
        let back = n.denormalize(&z);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12, "round trip drifted: {a} vs {b}");
        }
    }

    #[test]
    fn standardized_data_has_unit_stats() {
        let mut n = Normalizer::new(1);
        let data: Vec<f64> = (0..100).map(|k| (k as f64 * 0.37).sin() * 13.0 + 5.0).collect();
        for &d in &data {
            n.observe(&[d]);
        }
        let zs: Vec<f64> = data.iter().map(|&d| n.normalize(&[d])[0]).collect();
        let mean = zs.iter().sum::<f64>() / zs.len() as f64;
        let var = zs.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / (zs.len() - 1) as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }
}
