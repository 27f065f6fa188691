//! Gaussian fitting and log-likelihood outlier detection.
//!
//! The paper (§6) fits the layer's flattened weights to a single-component
//! Gaussian (they use `sklearn.mixture.GaussianMixture` with one component,
//! which reduces to a plain mean/variance fit) and flags any weight whose
//! log-likelihood under the fit falls below `-4` as an outlier. Outliers are
//! ~0.1–0.2% of weights and are preserved in full FP32.

use sti_tensor::{math, stats};

/// A fitted single-component Gaussian.
///
/// ```
/// use sti_quant::GaussianFit;
///
/// let fit = GaussianFit::fit(&[0.0, 1.0, -1.0, 0.5, -0.5]);
/// assert!(fit.mean().abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianFit {
    mean: f32,
    std: f32,
}

impl GaussianFit {
    /// Fits mean and standard deviation to `samples`.
    ///
    /// A degenerate population (constant, or fewer than two samples) yields a
    /// tiny positive standard deviation so that log-likelihood stays finite.
    pub fn fit(samples: &[f32]) -> Self {
        let mean = stats::mean(samples);
        let std = stats::std_dev(samples).max(1e-8);
        Self { mean, std }
    }

    /// The fitted mean.
    pub fn mean(&self) -> f32 {
        self.mean
    }

    /// The fitted standard deviation (always positive).
    pub fn std(&self) -> f32 {
        self.std
    }

    /// Log-likelihood of `x` under the fitted Gaussian:
    /// `-0.5·ln(2πσ²) − (x−μ)²/(2σ²)`.
    pub fn log_likelihood(&self, x: f32) -> f32 {
        self.log_density()(x)
    }

    /// [`log_likelihood`](Self::log_likelihood) with `ln(2πσ²)` taken once,
    /// for every `x` it is then called with.
    fn log_density(&self) -> impl Fn(f32) -> f32 {
        let Self { mean, std } = *self;
        let var = std * std;
        let norm = -0.5 * math::ln(2.0 * std::f32::consts::PI * var);
        move |x| {
            let z = x - mean;
            norm - z * z / (2.0 * var)
        }
    }

    /// Indexes of samples whose log-likelihood is below `threshold`
    /// (paper default: `-4.0`).
    pub fn outlier_indexes(&self, samples: &[f32], threshold: f32) -> Vec<u32> {
        let log_likelihood = self.log_density();
        samples
            .iter()
            .enumerate()
            .filter(|(_, &x)| log_likelihood(x) < threshold)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_tensor::Rng;

    #[test]
    fn fit_recovers_moments() {
        let mut rng = Rng::new(1);
        let mut xs = vec![0.0f32; 20_000];
        rng.fill_gaussian(&mut xs, 0.5, 0.1);
        let fit = GaussianFit::fit(&xs);
        assert!((fit.mean() - 0.5).abs() < 0.01);
        assert!((fit.std() - 0.1).abs() < 0.01);
    }

    #[test]
    fn log_likelihood_peaks_at_mean() {
        let fit = GaussianFit::fit(&[-1.0, 0.0, 1.0]);
        let at_mean = fit.log_likelihood(fit.mean());
        assert!(at_mean > fit.log_likelihood(fit.mean() + fit.std()));
        assert!(at_mean > fit.log_likelihood(fit.mean() - fit.std()));
    }

    #[test]
    fn outliers_found_in_tails() {
        let mut rng = Rng::new(2);
        let mut xs = vec![0.0f32; 10_000];
        rng.fill_gaussian(&mut xs, 0.0, 0.05);
        // Plant two extreme outliers, like the planted non-Gaussian weights
        // in real transformer layers.
        xs[17] = 1.5;
        xs[423] = -2.0;
        let fit = GaussianFit::fit(&xs);
        let outliers = fit.outlier_indexes(&xs, -4.0);
        assert!(outliers.contains(&17));
        assert!(outliers.contains(&423));
        // The threshold of -4 flags only a tiny fraction (paper: 0.14-0.17%).
        assert!(
            (outliers.len() as f64 / xs.len() as f64) < 0.02,
            "too many outliers: {}",
            outliers.len()
        );
    }

    /// The normaliser taken once per fit changes no bit: the outliers are
    /// exactly the samples whose own `log_likelihood` is below the threshold.
    #[test]
    fn outlier_indexes_equal_the_per_sample_likelihood_filter() {
        let mut rng = Rng::new(3);
        for (std, threshold) in [(0.05, -4.0), (0.02, -1.0), (1.0, -2.5), (1e-3, 3.0)] {
            let mut xs = vec![0.0f32; 4_096];
            rng.fill_gaussian(&mut xs, 0.1, std);
            xs[7] = 1.0;
            let fit = GaussianFit::fit(&xs);
            let want: Vec<u32> = (0..xs.len() as u32)
                .filter(|&i| fit.log_likelihood(xs[i as usize]) < threshold)
                .collect();
            let got = fit.outlier_indexes(&xs, threshold);
            assert!(!got.is_empty() && got.len() < xs.len(), "std {std}: {} outliers", got.len());
            assert_eq!(got, want, "std {std}, threshold {threshold}");
        }
    }

    #[test]
    fn degenerate_population_has_finite_likelihood() {
        let fit = GaussianFit::fit(&[3.0, 3.0, 3.0]);
        assert!(fit.std() > 0.0);
        assert!(fit.log_likelihood(3.0).is_finite());
        assert!(fit.log_likelihood(4.0).is_finite());
    }

    #[test]
    fn empty_input_yields_default_fit() {
        let fit = GaussianFit::fit(&[]);
        assert_eq!(fit.mean(), 0.0);
        assert!(fit.std() > 0.0);
    }
}
