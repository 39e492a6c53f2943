//! Dense embedding vectors and their geometry.

/// A dense `f32` embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVector(pub Vec<f32>);

impl DenseVector {
    /// The zero vector of a given dimension.
    pub fn zeros(dim: usize) -> Self {
        DenseVector(vec![0.0; dim])
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether all components are zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&x| x == 0.0)
    }

    /// Dot product; panics on dimension mismatch.
    pub fn dot(&self, other: &DenseVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Euclidean distance to another vector.
    pub fn euclidean_distance(&self, other: &DenseVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Cosine similarity, clamped to `[0, 1]` (negative cosines are treated
    /// as dissimilarity 0, matching the similarity-graph weight contract).
    pub fn cosine(&self, other: &DenseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(0.0, 1.0)
    }

    /// Add another vector in place.
    pub fn add_assign(&mut self, other: &DenseVector) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Add `scale * other` in place.
    pub fn add_scaled(&mut self, other: &DenseVector, scale: f32) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a += scale * b;
        }
    }

    /// Scale in place.
    pub fn scale(&mut self, s: f32) {
        scale_slice(&mut self.0, s);
    }

    /// Normalize to unit length in place (no-op for the zero vector).
    pub fn normalize(&mut self) {
        normalize_slice(&mut self.0);
    }
}

/// [`DenseVector::scale`] over a component slice.
#[inline]
pub(crate) fn scale_slice(v: &mut [f32], s: f32) {
    for a in v {
        *a *= s;
    }
}

/// [`DenseVector::normalize`] over a component slice: the same float
/// sequence — f64 sum of squares in component order, norm rounded to
/// `f32`, every component multiplied by `1/n`.
#[inline]
pub(crate) fn normalize_slice(v: &mut [f32]) {
    let n = v.iter().map(|&a| a as f64 * a as f64).sum::<f64>().sqrt() as f32;
    if n > 0.0 {
        scale_slice(v, 1.0 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let a = DenseVector(vec![3.0, 4.0]);
        let b = DenseVector(vec![4.0, 3.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dot(&b), 24.0);
        assert!((a.cosine(&b) - 24.0 / 25.0).abs() < 1e-9);
        assert!((a.euclidean_distance(&b) - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn cosine_clamps_negatives_and_zero() {
        let a = DenseVector(vec![1.0, 0.0]);
        let b = DenseVector(vec![-1.0, 0.0]);
        assert_eq!(a.cosine(&b), 0.0);
        let z = DenseVector::zeros(2);
        assert_eq!(a.cosine(&z), 0.0);
        assert!(z.is_zero());
    }

    #[test]
    fn mutation_ops() {
        let mut a = DenseVector(vec![1.0, 2.0]);
        a.add_assign(&DenseVector(vec![1.0, 1.0]));
        assert_eq!(a.0, vec![2.0, 3.0]);
        a.add_scaled(&DenseVector(vec![2.0, 2.0]), 0.5);
        assert_eq!(a.0, vec![3.0, 4.0]);
        a.normalize();
        assert!((a.norm() - 1.0).abs() < 1e-6);
        let mut z = DenseVector::zeros(3);
        z.normalize(); // must not NaN
        assert!(z.is_zero());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = DenseVector(vec![1.0]).dot(&DenseVector(vec![1.0, 2.0]));
    }
}
