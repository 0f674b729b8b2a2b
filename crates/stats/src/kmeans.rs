//! K-means clustering for workload classification.
//!
//! Fig. 6 of the paper plots each workload as a point in (blocking factor,
//! memory references per cycle) space and groups them into classes
//! (enterprise / big data / HPC / core-bound) whose means drive the
//! sensitivity study. The paper assigns classes by usage segment; we also
//! provide an unsupervised check that the segments really do form distinct
//! clusters, using plain k-means with deterministic seeding.

use crate::StatsError;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster centroids, `k` rows of `dim` coordinates.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index assigned to each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

/// Runs k-means (Lloyd's algorithm) on `points` with `k` clusters.
///
/// Initialization is deterministic: a farthest-point ("k-means++ without the
/// randomness") sweep starting from the point closest to the grand mean. The
/// algorithm stops when assignments are stable or after `max_iter` rounds.
///
/// # Errors
///
/// * [`StatsError::InvalidParameter`] if `k` is zero, larger than the number
///   of points, or the points have inconsistent dimensionality.
/// * [`StatsError::NotEnoughData`] if `points` is empty.
///
/// # Examples
///
/// ```
/// use memsense_stats::kmeans;
/// let pts = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
///     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
/// ];
/// let c = kmeans(&pts, 2, 100).unwrap();
/// assert_eq!(c.assignments[0], c.assignments[1]);
/// assert_ne!(c.assignments[0], c.assignments[3]);
/// ```
pub fn kmeans(points: &[Vec<f64>], k: usize, max_iter: usize) -> Result<Clustering, StatsError> {
    if points.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    if k == 0 || k > points.len() {
        return Err(StatsError::InvalidParameter("k must be in 1..=n"));
    }
    let dim = points[0].len();
    if dim == 0 || points.iter().any(|p| p.len() != dim) {
        return Err(StatsError::InvalidParameter(
            "points must share a non-zero dimensionality",
        ));
    }

    let mut centroids = init_farthest_point(points, k, dim);
    let mut assignments = vec![usize::MAX; points.len()];
    let mut iterations = 0;

    for _ in 0..max_iter.max(1) {
        iterations += 1;
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let nearest = nearest_centroid(p, &centroids);
            if assignments[i] != nearest {
                assignments[i] = nearest;
                changed = true;
            }
        }
        // Recompute centroids; an emptied cluster keeps its old centroid.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for d in 0..dim {
                sums[a][d] += p[d];
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dim {
                    centroids[c][d] = sums[c][d] / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let inertia = points
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| dist2(p, &centroids[a]))
        .sum();

    Ok(Clustering {
        centroids,
        assignments,
        inertia,
        iterations,
    })
}

fn init_farthest_point(points: &[Vec<f64>], k: usize, dim: usize) -> Vec<Vec<f64>> {
    let grand = {
        let mut g = vec![0.0; dim];
        for p in points {
            for d in 0..dim {
                g[d] += p[d];
            }
        }
        for gd in &mut g {
            *gd /= points.len() as f64;
        }
        g
    };
    // First centroid: the point nearest the grand mean. `total_cmp` keeps
    // the selection deterministic (and panic-free) even for NaN distances.
    let Some(first) = points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| dist2(a, &grand).total_cmp(&dist2(b, &grand)))
        .map(|(i, _)| i)
    else {
        return Vec::new();
    };
    let mut centroids = vec![points[first].clone()];
    while centroids.len() < k {
        let Some(next) = points
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| min_dist2(a, &centroids).total_cmp(&min_dist2(b, &centroids)))
            .map(|(i, _)| i)
        else {
            break;
        };
        centroids.push(points[next].clone());
    }
    centroids
}

fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = dist2(p, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

fn min_dist2(p: &[f64], centroids: &[Vec<f64>]) -> f64 {
    centroids
        .iter()
        .map(|c| dist2(p, c))
        .fold(f64::INFINITY, f64::min)
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
            for &(dx, dy) in &[(0.0, 0.0), (0.2, 0.1), (-0.1, 0.2), (0.1, -0.2)] {
                pts.push(vec![cx + dx, cy + dy]);
            }
        }
        pts
    }

    #[test]
    fn separates_blobs() {
        let pts = three_blobs();
        let c = kmeans(&pts, 3, 100).unwrap();
        // All points in the same blob share an assignment.
        for blob in 0..3 {
            let a0 = c.assignments[blob * 4];
            for i in 1..4 {
                assert_eq!(c.assignments[blob * 4 + i], a0);
            }
        }
        // Different blobs get different clusters.
        assert_ne!(c.assignments[0], c.assignments[4]);
        assert_ne!(c.assignments[0], c.assignments[8]);
        assert_ne!(c.assignments[4], c.assignments[8]);
        assert!(c.inertia < 1.0);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![1.0], vec![2.0], vec![3.0]];
        let c = kmeans(&pts, 3, 50).unwrap();
        assert!(c.inertia < 1e-20);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let c = kmeans(&pts, 1, 10).unwrap();
        assert_eq!(c.centroids[0], vec![1.0, 2.0]);
    }

    #[test]
    fn invalid_k_rejected() {
        let pts = vec![vec![1.0]];
        assert!(kmeans(&pts, 0, 10).is_err());
        assert!(kmeans(&pts, 2, 10).is_err());
    }

    #[test]
    fn empty_points_rejected() {
        assert!(kmeans(&[], 1, 10).is_err());
    }

    #[test]
    fn mixed_dims_rejected() {
        let pts = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(kmeans(&pts, 1, 10).is_err());
    }

    #[test]
    fn deterministic() {
        let pts = three_blobs();
        let a = kmeans(&pts, 3, 100).unwrap();
        let b = kmeans(&pts, 3, 100).unwrap();
        assert_eq!(a, b);
    }
}
