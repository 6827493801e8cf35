//! Aggregate feature profiles: how package feature vectors derive from items.
//!
//! Definition 1 of the paper: a profile `V = (A1, …, Am)` assigns one of
//! `min`, `max`, `sum`, `avg` or `null` to every feature; the feature value
//! vector of a package aggregates its items' values feature by feature, and
//! every aggregate is normalised into `[0, 1]` by the maximum value any
//! package (of size at most φ) could achieve on that feature.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::item::{Catalog, ItemId};
use crate::package::Package;

/// An aggregation function assigned to one feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregateFn {
    /// Minimum item value in the package.
    Min,
    /// Maximum item value in the package.
    Max,
    /// Sum of item values in the package.
    Sum,
    /// Average of item values in the package.
    Avg,
    /// Feature is ignored.
    Null,
}

impl AggregateFn {
    /// Whether the aggregate can only grow (or stay equal) when items are
    /// added: true for `sum` and `max`, false for `min` and `avg` (and
    /// trivially true for `null`, which contributes nothing).
    pub fn is_monotone_increasing(&self) -> bool {
        matches!(
            self,
            AggregateFn::Sum | AggregateFn::Max | AggregateFn::Null
        )
    }

    /// Whether the aggregate can only shrink (or stay equal) when items are
    /// added: true for `min` (and trivially `null`).
    pub fn is_monotone_decreasing(&self) -> bool {
        matches!(self, AggregateFn::Min | AggregateFn::Null)
    }
}

/// An aggregate feature profile `V = (A1, …, Am)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    aggregates: Vec<AggregateFn>,
}

impl Profile {
    /// Creates a profile from one aggregate per feature.
    pub fn new(aggregates: Vec<AggregateFn>) -> Self {
        Profile { aggregates }
    }

    /// A profile that sums every feature.
    pub fn all_sum(m: usize) -> Self {
        Profile::new(vec![AggregateFn::Sum; m])
    }

    /// A profile that averages every feature.
    pub fn all_avg(m: usize) -> Self {
        Profile::new(vec![AggregateFn::Avg; m])
    }

    /// The introduction's running profile for two-feature catalogs:
    /// `(sum cost, avg rating)`.
    pub fn cost_quality() -> Self {
        Profile::new(vec![AggregateFn::Sum, AggregateFn::Avg])
    }

    /// Number of features the profile covers.
    pub fn dim(&self) -> usize {
        self.aggregates.len()
    }

    /// The aggregate assigned to a feature.
    pub fn aggregate(&self, feature: usize) -> AggregateFn {
        self.aggregates[feature]
    }

    /// All aggregates.
    pub fn aggregates(&self) -> &[AggregateFn] {
        &self.aggregates
    }

    /// Indices of features the profile does not ignore.
    pub fn active_features(&self) -> Vec<usize> {
        self.aggregates
            .iter()
            .enumerate()
            .filter(|(_, a)| **a != AggregateFn::Null)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Incremental aggregation state of a (possibly empty) package.
///
/// Algorithms 2–4 repeatedly extend candidate packages by one item; keeping
/// per-feature running sums/minima/maxima makes each extension `O(m)` instead
/// of `O(m · |p|)`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct PackageState {
    size: usize,
    sum: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

/// Written out so that `clone_from` copies field by field into the target's
/// buffers: enumerations that fold each candidate from a per-depth prefix
/// state then run without allocating (the derived `clone_from` would build
/// three fresh `Vec`s per call).
impl Clone for PackageState {
    fn clone(&self) -> Self {
        PackageState {
            size: self.size,
            sum: self.sum.clone(),
            min: self.min.clone(),
            max: self.max.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.size = source.size;
        self.sum.clone_from(&source.sum);
        self.min.clone_from(&source.min);
        self.max.clone_from(&source.max);
    }
}

impl PackageState {
    /// State of the empty package over `m` features.
    pub fn empty(m: usize) -> Self {
        PackageState {
            size: 0,
            sum: vec![0.0; m],
            min: vec![f64::INFINITY; m],
            max: vec![f64::NEG_INFINITY; m],
        }
    }

    /// Number of items aggregated so far.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether no items have been aggregated.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Returns a copy of the state with one more item's features folded in.
    pub fn with_item(&self, features: &[f64]) -> PackageState {
        let mut next = self.clone();
        next.add_item(features);
        next
    }

    /// Folds one more item's features into the state.
    pub fn add_item(&mut self, features: &[f64]) {
        debug_assert_eq!(features.len(), self.sum.len());
        self.size += 1;
        for (j, v) in features.iter().enumerate() {
            self.sum[j] += v;
            if *v < self.min[j] {
                self.min[j] = *v;
            }
            if *v > self.max[j] {
                self.max[j] = *v;
            }
        }
    }

    /// The raw (un-normalised) aggregate value of one feature under a profile.
    /// The empty package aggregates to 0 on every feature.
    pub fn raw_aggregate(&self, profile: &Profile, feature: usize) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        match profile.aggregate(feature) {
            AggregateFn::Min => self.min[feature],
            AggregateFn::Max => self.max[feature],
            AggregateFn::Sum => self.sum[feature],
            AggregateFn::Avg => self.sum[feature] / self.size as f64,
            AggregateFn::Null => 0.0,
        }
    }
}

/// A profile bound to a catalog and a maximum package size φ, carrying the
/// normalisation constants `Z_i` (the maximum aggregate value any package of
/// size ≤ φ can reach on feature `i`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregationContext {
    profile: Profile,
    norm: Vec<f64>,
    max_package_size: usize,
}

impl AggregationContext {
    /// Builds the context, computing normalisation constants from the catalog:
    ///
    /// * `min`, `max`, `avg` are bounded by the largest single item value,
    /// * `sum` is bounded by the sum of the φ largest item values.
    pub fn new(profile: Profile, catalog: &Catalog, max_package_size: usize) -> Result<Self> {
        if profile.dim() != catalog.num_features() {
            return Err(CoreError::DimensionMismatch {
                expected: catalog.num_features(),
                actual: profile.dim(),
            });
        }
        if max_package_size == 0 {
            return Err(CoreError::InvalidConfig(
                "maximum package size must be at least 1".into(),
            ));
        }
        let maxima = catalog.feature_maxima();
        let norm = (0..profile.dim())
            .map(|j| match profile.aggregate(j) {
                AggregateFn::Min | AggregateFn::Max | AggregateFn::Avg => maxima[j],
                AggregateFn::Sum => catalog.top_values(j, max_package_size).iter().sum(),
                AggregateFn::Null => 0.0,
            })
            .collect();
        Ok(AggregationContext {
            profile,
            norm,
            max_package_size,
        })
    }

    /// The profile of the context.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The maximum package size φ.
    pub fn max_package_size(&self) -> usize {
        self.max_package_size
    }

    /// Normalisation constants `Z_i` per feature (0 for ignored or all-zero
    /// features).
    pub fn normalizers(&self) -> &[f64] {
        &self.norm
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.profile.dim()
    }

    /// The normalised aggregate value of one feature from a package state.
    pub fn normalized_feature(&self, state: &PackageState, feature: usize) -> f64 {
        let z = self.norm[feature];
        if z <= 0.0 {
            0.0
        } else {
            state.raw_aggregate(&self.profile, feature) / z
        }
    }

    /// The normalised feature value vector of a package state.
    pub fn normalized_vector_from_state(&self, state: &PackageState) -> Vec<f64> {
        (0..self.dim())
            .map(|j| self.normalized_feature(state, j))
            .collect()
    }

    /// Builds the aggregation state of a package from the catalog.
    pub fn state_of(&self, catalog: &Catalog, items: &[ItemId]) -> Result<PackageState> {
        let mut state = PackageState::empty(self.dim());
        for &id in items {
            state.add_item(catalog.item(id)?);
        }
        Ok(state)
    }

    /// The normalised feature value vector of a package (Definition 1 plus the
    /// normalisation of Section 2).
    pub fn package_vector(&self, catalog: &Catalog, package: &Package) -> Result<Vec<f64>> {
        if package.len() > self.max_package_size {
            return Err(CoreError::PackageTooLarge {
                size: package.len(),
                max_size: self.max_package_size,
            });
        }
        let state = self.state_of(catalog, package.items())?;
        Ok(self.normalized_vector_from_state(&state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog of Figure 1(a).
    fn figure1_catalog() -> Catalog {
        Catalog::new(
            vec!["cost".into(), "rating".into()],
            vec![vec![0.6, 0.2], vec![0.4, 0.4], vec![0.2, 0.4]],
        )
        .unwrap()
    }

    fn figure1_context() -> AggregationContext {
        AggregationContext::new(Profile::cost_quality(), &figure1_catalog(), 2).unwrap()
    }

    #[test]
    fn aggregate_fn_monotonicity_classification() {
        assert!(AggregateFn::Sum.is_monotone_increasing());
        assert!(AggregateFn::Max.is_monotone_increasing());
        assert!(!AggregateFn::Avg.is_monotone_increasing());
        assert!(!AggregateFn::Min.is_monotone_increasing());
        assert!(AggregateFn::Min.is_monotone_decreasing());
        assert!(!AggregateFn::Sum.is_monotone_decreasing());
        assert!(AggregateFn::Null.is_monotone_increasing());
        assert!(AggregateFn::Null.is_monotone_decreasing());
    }

    #[test]
    fn profile_constructors_and_accessors() {
        let p = Profile::cost_quality();
        assert_eq!(p.dim(), 2);
        assert_eq!(p.aggregate(0), AggregateFn::Sum);
        assert_eq!(p.aggregate(1), AggregateFn::Avg);
        assert_eq!(Profile::all_sum(3).aggregates(), &[AggregateFn::Sum; 3]);
        assert_eq!(Profile::all_avg(2).aggregates(), &[AggregateFn::Avg; 2]);
        let q = Profile::new(vec![AggregateFn::Sum, AggregateFn::Null, AggregateFn::Min]);
        assert_eq!(q.active_features(), vec![0, 2]);
    }

    #[test]
    fn normalizers_follow_example_1() {
        // Example 1: max sum on feature 1 over size-2 packages is 1.0 (0.6+0.4),
        // max avg on feature 2 is 0.4.
        let ctx = figure1_context();
        assert_eq!(ctx.normalizers(), &[1.0, 0.4]);
        assert_eq!(ctx.max_package_size(), 2);
    }

    #[test]
    fn package_vectors_match_example_1() {
        let catalog = figure1_catalog();
        let ctx = figure1_context();
        // p1 = {t1}: (0.6, 0.5) after normalisation.
        let p1 = Package::new(vec![0]).unwrap();
        let v1 = ctx.package_vector(&catalog, &p1).unwrap();
        assert!((v1[0] - 0.6).abs() < 1e-12);
        assert!((v1[1] - 0.5).abs() < 1e-12);
        // p4 = {t1, t2}: sum cost 1.0, avg rating 0.3 -> (1.0, 0.75).
        let p4 = Package::new(vec![0, 1]).unwrap();
        let v4 = ctx.package_vector(&catalog, &p4).unwrap();
        assert!((v4[0] - 1.0).abs() < 1e-12);
        assert!((v4[1] - 0.75).abs() < 1e-12);
        // p5 = {t2, t3}: sum cost 0.6, avg rating 0.4 -> (0.6, 1.0).
        let p5 = Package::new(vec![1, 2]).unwrap();
        let v5 = ctx.package_vector(&catalog, &p5).unwrap();
        assert!((v5[0] - 0.6).abs() < 1e-12);
        assert!((v5[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_packages_are_rejected() {
        let catalog = figure1_catalog();
        let ctx = figure1_context();
        let p = Package::new(vec![0, 1, 2]).unwrap();
        assert!(matches!(
            ctx.package_vector(&catalog, &p),
            Err(CoreError::PackageTooLarge {
                size: 3,
                max_size: 2
            })
        ));
    }

    #[test]
    fn context_validates_configuration() {
        let catalog = figure1_catalog();
        assert!(matches!(
            AggregationContext::new(Profile::all_sum(3), &catalog, 2),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            AggregationContext::new(Profile::all_sum(2), &catalog, 0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn min_max_aggregates_and_null() {
        let catalog = Catalog::from_rows(vec![vec![2.0, 5.0, 1.0], vec![4.0, 3.0, 9.0]]).unwrap();
        let profile = Profile::new(vec![AggregateFn::Min, AggregateFn::Max, AggregateFn::Null]);
        let ctx = AggregationContext::new(profile, &catalog, 2).unwrap();
        // Normalisers: min/max use the max item value; null is 0.
        assert_eq!(ctx.normalizers(), &[4.0, 5.0, 0.0]);
        let both = Package::new(vec![0, 1]).unwrap();
        let v = ctx.package_vector(&catalog, &both).unwrap();
        assert!((v[0] - 2.0 / 4.0).abs() < 1e-12);
        assert!((v[1] - 5.0 / 5.0).abs() < 1e-12);
        assert_eq!(v[2], 0.0);
    }

    #[test]
    fn package_state_incremental_matches_batch() {
        let catalog = figure1_catalog();
        let ctx = figure1_context();
        let mut state = PackageState::empty(2);
        assert!(state.is_empty());
        state.add_item(catalog.item(0).unwrap());
        let state2 = state.with_item(catalog.item(2).unwrap());
        assert_eq!(state2.size(), 2);
        let incremental = ctx.normalized_vector_from_state(&state2);
        let batch = ctx
            .package_vector(&catalog, &Package::new(vec![0, 2]).unwrap())
            .unwrap();
        assert_eq!(incremental, batch);
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffers() {
        let catalog = figure1_catalog();
        let mut source = PackageState::empty(2);
        source.add_item(catalog.item(1).unwrap());
        source.add_item(catalog.item(2).unwrap());
        let mut target = PackageState::empty(2);
        target.add_item(catalog.item(0).unwrap());
        let buffers = |s: &PackageState| [s.sum.as_ptr(), s.min.as_ptr(), s.max.as_ptr()];
        let before = buffers(&target);
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(buffers(&target), before);
        assert_eq!(source.clone(), source);
    }

    #[test]
    fn empty_state_aggregates_to_zero() {
        let ctx = figure1_context();
        let state = PackageState::empty(2);
        assert_eq!(ctx.normalized_vector_from_state(&state), vec![0.0, 0.0]);
        assert_eq!(state.raw_aggregate(ctx.profile(), 0), 0.0);
    }

    #[test]
    fn unknown_item_is_reported() {
        let catalog = figure1_catalog();
        let ctx = figure1_context();
        assert!(matches!(
            ctx.state_of(&catalog, &[0, 99]),
            Err(CoreError::UnknownItem(99))
        ));
    }
}
