//! Metric accumulators shared by every experiment driver.

/// Streaming mean/min/max accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mean {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Mean {
    /// An empty accumulator.
    pub fn new() -> Self {
        Mean {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Current mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator in (for per-trial aggregation).
    pub fn merge(&mut self, other: &Mean) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Load-balance view: per-degree message-forwarding shares (paper Fig. 4).
#[derive(Clone, Debug, Default)]
pub struct LoadByDegree {
    /// `(degree, messages_forwarded)` accumulated per peer degree bucket.
    entries: std::collections::BTreeMap<usize, u64>,
    total: u64,
}

impl LoadByDegree {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a peer of social degree `degree` forwarded `count`
    /// messages.
    pub fn record(&mut self, degree: usize, count: u64) {
        *self.entries.entry(degree).or_insert(0) += count;
        self.total += count;
    }

    /// Percentage of all forwarded messages handled by peers of `degree`.
    pub fn percentage_at(&self, degree: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * self.entries.get(&degree).copied().unwrap_or(0) as f64 / self.total as f64
    }

    /// `(degree, percentage)` series, ascending by degree.
    pub fn series(&self) -> Vec<(usize, f64)> {
        self.entries
            .keys()
            .map(|&d| (d, self.percentage_at(d)))
            .collect()
    }

    /// Gini coefficient of the load distribution: 0 = perfectly balanced.
    pub fn gini(&self) -> f64 {
        let loads: Vec<f64> = self.entries.values().map(|&v| v as f64).collect();
        gini(&loads)
    }
}

/// Gini coefficient of a set of non-negative values.
pub fn gini(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let sum: f64 = sorted.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_accumulator() {
        let mut m = Mean::new();
        for x in [1.0, 2.0, 3.0] {
            m.add(x);
        }
        assert!((m.mean() - 2.0).abs() < 1e-12);
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(3.0));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn mean_empty_and_merge() {
        let empty = Mean::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min(), None);
        let mut a = Mean::new();
        a.add(1.0);
        let mut b = Mean::new();
        b.add(3.0);
        a.merge(&b);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn load_by_degree_percentages() {
        let mut l = LoadByDegree::new();
        l.record(10, 30);
        l.record(100, 70);
        assert!((l.percentage_at(10) - 30.0).abs() < 1e-12);
        assert!((l.percentage_at(100) - 70.0).abs() < 1e-12);
        assert_eq!(l.percentage_at(5), 0.0);
        assert_eq!(l.series().len(), 2);
    }

    #[test]
    fn gini_extremes() {
        assert!((gini(&[1.0, 1.0, 1.0, 1.0])).abs() < 1e-12, "equal = 0");
        let concentrated = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(concentrated > 0.7, "concentration should be near 1");
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }
}
