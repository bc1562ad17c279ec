//! k-nearest-neighbours classifier.

use crate::Classifier;
use pelican_tensor::Tensor;

/// Configuration for [`Knn`].
#[derive(Debug, Clone, Copy)]
pub struct KnnConfig {
    /// Number of neighbours consulted per prediction.
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self { k: 5 }
    }
}

/// k-NN over Euclidean distance with majority voting (distance-weighted
/// tie-breaking).
///
/// A standard NIDS baseline in the literature surrounding the paper
/// (e.g. the triangle-area nearest-neighbour detector the paper cites as
/// \[33\]); provided for the extended comparison bench.
///
/// ```
/// use pelican_ml::{Classifier, Knn, KnnConfig};
/// use pelican_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![4, 1], vec![0.0, 1.0, 10.0, 11.0])?;
/// let mut knn = Knn::new(KnnConfig { k: 1 });
/// knn.fit(&x, &[0, 0, 1, 1]);
/// assert_eq!(knn.predict(&Tensor::from_vec(vec![1, 1], vec![9.0])?), vec![1]);
/// # Ok::<(), pelican_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Knn {
    config: KnnConfig,
    x: Option<Tensor>,
    y: Vec<usize>,
    n_classes: usize,
}

impl Knn {
    /// Creates an untrained classifier.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(config: KnnConfig) -> Self {
        assert!(config.k > 0, "k must be positive");
        Self {
            config,
            x: None,
            y: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Classifier for Knn {
    fn fit(&mut self, x: &Tensor, y: &[usize]) {
        assert_eq!(x.rank(), 2, "knn expects [rows, features]");
        assert!(x.shape()[0] > 0, "empty training set");
        assert_eq!(y.len(), x.shape()[0], "label count");
        self.n_classes = y.iter().max().map_or(1, |&m| m + 1);
        self.x = Some(x.clone());
        self.y = y.to_vec();
    }

    fn predict(&self, x: &Tensor) -> Vec<usize> {
        let train = self.x.as_ref().expect("predict before fit");
        assert_eq!(x.shape()[1], train.shape()[1], "feature count mismatch");
        let (n_train, d) = (train.shape()[0], train.shape()[1]);
        let k = self.config.k.min(n_train);
        let mut preds = Vec::with_capacity(x.shape()[0]);
        for row in 0..x.shape()[0] {
            let q = &x.as_slice()[row * d..(row + 1) * d];
            // Collect the k smallest squared distances with a simple
            // bounded insertion (k is tiny; no heap needed).
            let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
            for t in 0..n_train {
                let r = &train.as_slice()[t * d..(t + 1) * d];
                let dist: f32 = q.iter().zip(r).map(|(a, b)| (a - b) * (a - b)).sum();
                if best.len() < k || dist < best.last().expect("nonempty").0 {
                    let pos = best.partition_point(|(bd, _)| *bd <= dist);
                    best.insert(pos, (dist, self.y[t]));
                    if best.len() > k {
                        best.pop();
                    }
                }
            }
            // Majority vote, ties broken by total inverse distance.
            let mut votes = vec![0usize; self.n_classes];
            let mut weight = vec![0.0f32; self.n_classes];
            for &(dist, label) in &best {
                votes[label] += 1;
                weight[label] += 1.0 / (dist + 1e-9);
            }
            let pred = (0..self.n_classes)
                .max_by(|&a, &b| {
                    votes[a]
                        .cmp(&votes[b])
                        .then(weight[a].partial_cmp(&weight[b]).expect("finite weight"))
                })
                .unwrap_or(0);
            preds.push(pred);
        }
        preds
    }

    fn name(&self) -> &'static str {
        "knn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_tensor::SeededRng;

    #[test]
    fn one_nn_memorises_training_set() {
        let x = Tensor::from_vec(vec![3, 2], vec![0., 0., 5., 5., 9., 0.]).unwrap();
        let y = vec![0, 1, 2];
        let mut knn = Knn::new(KnnConfig { k: 1 });
        knn.fit(&x, &y);
        assert_eq!(knn.predict(&x), y);
    }

    #[test]
    fn majority_voting_smooths_noise() {
        // One mislabelled point surrounded by correct neighbours.
        let mut rng = SeededRng::new(1);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let c = i % 2;
            rows.push(vec![rng.normal_with(c as f32 * 6.0, 0.5)]);
            labels.push(c);
        }
        rows.push(vec![0.1]); // near class 0 but labelled 1
        labels.push(1);
        let x = Tensor::from_rows(&rows).unwrap();
        let mut knn = Knn::new(KnnConfig { k: 7 });
        knn.fit(&x, &labels);
        let probe = Tensor::from_vec(vec![1, 1], vec![0.0]).unwrap();
        assert_eq!(knn.predict(&probe), vec![0]);
    }

    #[test]
    fn k_larger_than_train_set_is_clamped() {
        let x = Tensor::from_vec(vec![2, 1], vec![0., 10.]).unwrap();
        let mut knn = Knn::new(KnnConfig { k: 50 });
        knn.fit(&x, &[0, 1]);
        // Both points vote; inverse-distance tiebreak favours the closer.
        assert_eq!(
            knn.predict(&Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap()),
            vec![0]
        );
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        Knn::new(KnnConfig { k: 0 });
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        Knn::new(KnnConfig::default()).predict(&Tensor::zeros(vec![1, 1]));
    }
}
