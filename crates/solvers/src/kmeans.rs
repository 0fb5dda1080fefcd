//! Lloyd's k-means, with the mean-centroid-distance sensor of Chippa et
//! al. used by the PID-controller baseline.
//!
//! The paper's motivation section (§2.3) discusses approximate k-means
//! with an MCD ("mean centroid distance") algorithm-level sensor and a
//! PID controller, and argues that this design cannot guarantee final
//! quality. This module provides that exact system so the claim can be
//! tested head-to-head against ApproxIt.

use approx_arith::ArithContext;
use approx_linalg::{stats, vector};

use approx_arith::rng::Pcg32;

use crate::datasets::ClusterDataset;
use crate::method::IterativeMethod;

/// K-means state: the centroid positions.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansState {
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
}

/// Lloyd's algorithm as an [`IterativeMethod`].
///
/// Assignment (nearest centroid) is exact; the centroid mean
/// recomputation runs on the context's datapath — the same partitioning
/// as the GMM benchmark.
#[derive(Debug, Clone)]
pub struct KMeans {
    points: Vec<Vec<f64>>,
    k: usize,
    tolerance: f64,
    max_iterations: usize,
    initial: KMeansState,
}

impl KMeans {
    /// Create a k-means instance with deterministic (seeded) initial
    /// centroids drawn from the data.
    ///
    /// # Panics
    /// Panics if there are fewer points than clusters, `k` is 0, the
    /// tolerance is not positive, or `max_iterations` is 0.
    #[must_use]
    pub fn new(
        points: Vec<Vec<f64>>,
        k: usize,
        tolerance: f64,
        max_iterations: usize,
        seed: u64,
    ) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(points.len() >= k, "need at least k points");
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        let mut rng = Pcg32::seeded(seed, 4);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() < k {
            let idx = rng.below(points.len() as u64) as usize;
            if !chosen.contains(&idx) {
                chosen.push(idx);
            }
        }
        let centroids = chosen.iter().map(|&i| points[i].clone()).collect();
        Self {
            points,
            k,
            tolerance,
            max_iterations,
            initial: KMeansState { centroids },
        }
    }

    /// Create from a labelled dataset (labels ignored during fitting).
    #[must_use]
    pub fn from_dataset(
        dataset: &ClusterDataset,
        tolerance: f64,
        max_iterations: usize,
        seed: u64,
    ) -> Self {
        Self::new(
            dataset.points.clone(),
            dataset.k,
            tolerance,
            max_iterations,
            seed,
        )
    }

    /// Exact nearest-centroid assignment of every point.
    #[must_use]
    pub fn assignments(&self, state: &KMeansState) -> Vec<usize> {
        self.points
            .iter()
            .map(|p| {
                state
                    .centroids
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        vector::dist2_exact(p, a)
                            .partial_cmp(&vector::dist2_exact(p, b))
                            .expect("finite distances")
                    })
                    .map(|(i, _)| i)
                    .expect("k > 0")
            })
            .collect()
    }

    /// Mean centroid distance — the algorithm-level quality sensor of
    /// Chippa et al. (average distance of a point from its assigned
    /// centroid).
    #[must_use]
    pub fn mean_centroid_distance(&self, state: &KMeansState) -> f64 {
        let assignments = self.assignments(state);
        let total: f64 = self
            .points
            .iter()
            .zip(&assignments)
            .map(|(p, &c)| vector::dist2_exact(p, &state.centroids[c]))
            .sum();
        total / self.points.len() as f64
    }
}

impl IterativeMethod for KMeans {
    type State = KMeansState;

    fn name(&self) -> &str {
        "kmeans"
    }

    fn initial_state(&self) -> KMeansState {
        self.initial.clone()
    }

    fn step(&self, state: &KMeansState, ctx: &mut dyn ArithContext) -> KMeansState {
        let assignments = self.assignments(state);
        let centroids = (0..self.k)
            .map(|c| {
                let members: Vec<Vec<f64>> = self
                    .points
                    .iter()
                    .zip(&assignments)
                    .filter(|(_, &a)| a == c)
                    .map(|(p, _)| p.clone())
                    .collect();
                if members.is_empty() {
                    state.centroids[c].clone()
                } else {
                    stats::mean(ctx, &members)
                }
            })
            .collect();
        KMeansState { centroids }
    }

    /// Within-cluster sum of squares divided by N (exact).
    fn objective(&self, state: &KMeansState) -> f64 {
        let assignments = self.assignments(state);
        let total: f64 = self
            .points
            .iter()
            .zip(&assignments)
            .map(|(p, &c)| {
                let d = vector::dist2_exact(p, &state.centroids[c]);
                d * d
            })
            .sum();
        total / self.points.len() as f64
    }

    fn params(&self, state: &KMeansState) -> Vec<f64> {
        state.centroids.iter().flatten().copied().collect()
    }

    fn converged(&self, prev: &KMeansState, next: &KMeansState) -> bool {
        prev.centroids
            .iter()
            .flatten()
            .zip(next.centroids.iter().flatten())
            .all(|(&a, &b)| (a - b).abs() < self.tolerance)
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_blobs;
    use crate::method::run_to_convergence as run;
    use crate::metrics::hamming_distance;
    use approx_arith::{EnergyProfile, ExactContext};

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    fn data() -> ClusterDataset {
        gaussian_blobs(
            "km",
            &[50, 50],
            &[vec![0.0, 0.0], vec![8.0, 8.0]],
            &[0.7, 0.7],
            41,
        )
    }

    #[test]
    fn separates_two_far_blobs() {
        let d = data();
        let km = KMeans::from_dataset(&d, 1e-9, 100, 3);
        let mut ctx = ExactContext::with_profile(profile());
        let (state, iters) = run(&km, &mut ctx);
        assert!(iters < 100);
        let labels = km.assignments(&state);
        assert_eq!(hamming_distance(&labels, &d.labels, 2), 0);
    }

    #[test]
    fn objective_is_monotone_under_lloyd() {
        let d = data();
        let km = KMeans::from_dataset(&d, 1e-9, 100, 3);
        let mut ctx = ExactContext::with_profile(profile());
        let mut state = km.initial_state();
        let mut prev = km.objective(&state);
        for _ in 0..10 {
            state = km.step(&state, &mut ctx);
            let f = km.objective(&state);
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }

    #[test]
    fn mcd_shrinks_as_fit_improves() {
        let d = data();
        let km = KMeans::from_dataset(&d, 1e-9, 100, 3);
        let mut ctx = ExactContext::with_profile(profile());
        let initial_mcd = km.mean_centroid_distance(&km.initial_state());
        let (state, _) = run(&km, &mut ctx);
        assert!(km.mean_centroid_distance(&state) <= initial_mcd);
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        // Put one centroid far away so it never wins a point.
        let d = data();
        let km = KMeans::from_dataset(&d, 1e-9, 100, 3);
        let mut state = km.initial_state();
        state.centroids[0] = vec![1e6, 1e6];
        let mut ctx = ExactContext::with_profile(profile());
        let next = km.step(&state, &mut ctx);
        assert_eq!(next.centroids[0], vec![1e6, 1e6]);
    }
}
