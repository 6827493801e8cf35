//! Skyline (Pareto-optimal) packages of fixed cardinality.
//!
//! The paper's introduction argues that returning *all* skyline packages —
//! packages not dominated on every aggregate feature by another package — is
//! impractical because "the number of skyline packages can be in the hundreds
//! or even thousands for a reasonably-sized dataset" (\[20\], \[29\]).  This module
//! implements that baseline so the claim can be measured: enumerate all
//! packages of a given size, compute their aggregate feature vectors, and keep
//! the non-dominated ones.
//!
//! Domination is direction-aware: for each feature the caller states whether
//! larger or smaller values are preferred (e.g. cost is minimised, rating is
//! maximised).
//!
//! Cost: the candidate space is all `C(n, c)` packages of exactly `c` items,
//! and every one is aggregated.  One lexicographic combination cursor walks
//! it; each candidate is folded from its prefix's [`PackageState`] (one state
//! per depth, reused without allocating) and its direction-oriented vector is
//! written into one flat buffer, so enumeration is `O(C(n, c) · m)` time and
//! `C(n, c) · m` floats of memory.  The non-dominated candidates are then
//! found by the block-nested-loop window filter of Börzsönyi, Kossmann and
//! Stocker ("The Skyline Operator", ICDE 2001): `O(N · S)` comparisons for
//! `N` candidates and a window of at most `S` skyline members, never more
//! than the `N²` of the all-pairs definition.  Only skyline members are
//! materialised as `(Package, Vec<f64>)`.

use pkgrec_core::item::{Catalog, ItemId};
use pkgrec_core::package::Package;
use pkgrec_core::profile::{AggregationContext, PackageState};
use pkgrec_core::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// Preference direction per feature for skyline domination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureDirection {
    /// Larger aggregate values are better (e.g. average rating).
    Maximize,
    /// Smaller aggregate values are better (e.g. total cost).
    Minimize,
}

impl FeatureDirection {
    /// The value oriented so that larger is better: `Minimize` negates.
    /// Negation is exact, so orienting twice gives back the same bits.
    fn orient(self, value: f64) -> f64 {
        match self {
            FeatureDirection::Maximize => value,
            FeatureDirection::Minimize => -value,
        }
    }
}

/// Statistics of a skyline computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkylineStats {
    /// Number of candidate packages of the requested cardinality.
    pub candidates: usize,
    /// Number of skyline (non-dominated) packages.
    pub skyline_size: usize,
}

/// Over direction-oriented vectors (larger is better on every feature): `a`
/// dominates `b` if it is at least as good on every feature and strictly
/// better on at least one.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strictly_better = false;
    for (&av, &bv) in a.iter().zip(b) {
        if av < bv {
            return false;
        }
        if av > bv {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Advances `items`, a strictly increasing `k`-subset of `0..n`, to its
/// lexicographic successor.  Returns the lowest position that changed, or
/// `None` (leaving `items` as it was) after the last subset.
fn next_combination(items: &mut [ItemId], n: usize) -> Option<usize> {
    let k = items.len();
    let pos = (0..k).rev().find(|&i| items[i] < n - k + i)?;
    items[pos] += 1;
    for i in pos + 1..k {
        items[i] = items[i - 1] + 1;
    }
    Some(pos)
}

/// A skyline package together with its aggregate feature vector.
pub type SkylineEntry = (Package, Vec<f64>);

/// Computes the skyline packages of exactly `cardinality` items.
///
/// Returns the skyline packages in ascending package order with their
/// aggregate feature vectors (bit-identical to
/// [`AggregationContext::package_vector`]) and the size statistics.  A
/// `cardinality` of 0 or above the catalog size has no candidates; one above
/// φ (with candidates) is [`CoreError::PackageTooLarge`]; `directions` must
/// hold one entry per feature of `context`, which must match the catalog
/// ([`CoreError::DimensionMismatch`]).  See the module docs for the cost.
pub fn skyline_packages(
    context: &AggregationContext,
    catalog: &Catalog,
    cardinality: usize,
    directions: &[FeatureDirection],
) -> Result<(Vec<SkylineEntry>, SkylineStats)> {
    let m = context.dim();
    if directions.len() != m {
        return Err(CoreError::DimensionMismatch {
            expected: m,
            actual: directions.len(),
        });
    }
    if catalog.num_features() != m {
        return Err(CoreError::DimensionMismatch {
            expected: catalog.num_features(),
            actual: m,
        });
    }
    let n = catalog.len();
    if cardinality == 0 || cardinality > n {
        let stats = SkylineStats {
            candidates: 0,
            skyline_size: 0,
        };
        return Ok((Vec::new(), stats));
    }
    if cardinality > context.max_package_size() {
        return Err(CoreError::PackageTooLarge {
            size: cardinality,
            max_size: context.max_package_size(),
        });
    }

    // Enumerate: `states[d]` aggregates the first `d` items of the current
    // subset, so after the cursor moves only the depths past the lowest
    // changed position are refolded.  Items fold in ascending order, exactly
    // as `package_vector` folds them.
    let rows = catalog.rows();
    let mut items: Vec<ItemId> = (0..cardinality).collect();
    let mut states = vec![PackageState::empty(m); cardinality + 1];
    let mut oriented: Vec<f64> = Vec::new();
    let mut changed = Some(0);
    while let Some(from) = changed {
        for depth in from..cardinality {
            let (prefix, rest) = states.split_at_mut(depth + 1);
            rest[0].clone_from(&prefix[depth]);
            rest[0].add_item(&rows[items[depth]]);
        }
        let state = &states[cardinality];
        for (j, direction) in directions.iter().enumerate() {
            oriented.push(direction.orient(context.normalized_feature(state, j)));
        }
        changed = next_combination(&mut items, n);
    }
    let candidates = oriented.len() / m;
    let vector = |i: usize| &oriented[i * m..(i + 1) * m];

    // Block-nested-loop filter: the window holds mutually non-dominated
    // candidates.  A candidate the window dominates is dropped; otherwise it
    // evicts the members it dominates and joins.  Indices join in ascending
    // order and `retain` keeps order, so the window stays in package order.
    //
    // Drops and evictions only remove dominated candidates, so the window
    // keeps the whole skyline; it keeps nothing else because domination is
    // transitive.  That holds even with NaN, which compares false both ways:
    // a normalised value is NaN only as ∞ / ∞, on a `sum` feature whose
    // `Z_i` overflowed, where every other value is finite / ∞ = 0, so such
    // a feature never tells two candidates apart.
    let mut window: Vec<usize> = Vec::new();
    for i in 0..candidates {
        let v = vector(i);
        if window.iter().any(|&w| dominates(vector(w), v)) {
            continue;
        }
        window.retain(|&w| !dominates(v, vector(w)));
        window.push(i);
    }

    // Materialise the members: a fresh cursor walks up to each one's rank.
    let mut skyline = Vec::with_capacity(window.len());
    let mut items: Vec<ItemId> = (0..cardinality).collect();
    let mut rank = 0;
    for &w in &window {
        while rank < w {
            next_combination(&mut items, n);
            rank += 1;
        }
        let values = vector(w)
            .iter()
            .zip(directions)
            .map(|(&v, direction)| direction.orient(v))
            .collect();
        skyline.push((Package::new(items.clone())?, values));
    }
    let stats = SkylineStats {
        candidates,
        skyline_size: skyline.len(),
    };
    Ok((skyline, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_core::profile::Profile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn figure1_setup() -> (Catalog, AggregationContext) {
        let catalog = Catalog::new(
            vec!["cost".into(), "rating".into()],
            vec![vec![0.6, 0.2], vec![0.4, 0.4], vec![0.2, 0.4]],
        )
        .unwrap();
        let ctx = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
        (catalog, ctx)
    }

    /// Domination of raw (un-oriented) vectors under `dirs`.
    fn dominates_under(a: &[f64], b: &[f64], dirs: &[FeatureDirection]) -> bool {
        let orient =
            |v: &[f64]| -> Vec<f64> { v.iter().zip(dirs).map(|(&x, d)| d.orient(x)).collect() };
        dominates(&orient(a), &orient(b))
    }

    #[test]
    fn domination_is_direction_aware() {
        let dirs = [FeatureDirection::Minimize, FeatureDirection::Maximize];
        assert!(dominates_under(&[0.2, 0.9], &[0.5, 0.5], &dirs));
        assert!(!dominates_under(&[0.5, 0.5], &[0.2, 0.9], &dirs));
        // Incomparable points do not dominate each other.
        assert!(!dominates_under(&[0.2, 0.4], &[0.5, 0.9], &dirs));
        assert!(!dominates_under(&[0.5, 0.9], &[0.2, 0.4], &dirs));
        // Equal points do not dominate.
        assert!(!dominates_under(&[0.3, 0.3], &[0.3, 0.3], &dirs));
    }

    #[test]
    fn the_cursor_walks_exact_cardinality_subsets_in_package_order() {
        for (n, k) in [(1, 1), (5, 1), (5, 2), (6, 3), (4, 4)] {
            let mut items: Vec<ItemId> = (0..k).collect();
            let mut walked = vec![Package::new(items.clone()).unwrap()];
            while let Some(pos) = next_combination(&mut items, n) {
                assert!(pos < k);
                walked.push(Package::new(items.clone()).unwrap());
            }
            let expected: Vec<Package> = pkgrec_core::enumerate_packages(n, k)
                .into_iter()
                .filter(|p| p.len() == k)
                .collect();
            assert_eq!(walked, expected, "n = {n}, k = {k}");
        }
    }

    #[test]
    fn wrong_length_directions_are_rejected() {
        let (catalog, ctx) = figure1_setup();
        for dirs in [
            &[FeatureDirection::Minimize][..],
            &[FeatureDirection::Minimize; 3][..],
        ] {
            // Rejected before any enumeration, whatever the cardinality.
            for cardinality in [0, 2, 9] {
                assert!(matches!(
                    skyline_packages(&ctx, &catalog, cardinality, dirs),
                    Err(CoreError::DimensionMismatch {
                        expected: 2,
                        actual
                    }) if actual == dirs.len()
                ));
            }
        }
    }

    #[test]
    fn a_context_of_another_width_is_rejected() {
        let (catalog, _) = figure1_setup();
        let wide = Catalog::from_rows(vec![vec![0.1, 0.2, 0.3]]).unwrap();
        let ctx = AggregationContext::new(Profile::all_sum(3), &wide, 2).unwrap();
        let dirs = [FeatureDirection::Maximize; 3];
        assert!(matches!(
            skyline_packages(&ctx, &catalog, 2, &dirs),
            Err(CoreError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        ));
    }

    #[test]
    fn overflowing_sums_match_the_pairwise_definition() {
        // Sums of these rows overflow to ∞ and so does `Z_0`, so some
        // normalised values are ∞ / ∞ = NaN; the result must still be the
        // all-pairs skyline.
        let big = f64::MAX / 1.5;
        let catalog = Catalog::from_rows(vec![
            vec![big, 0.5],
            vec![0.2, 0.9],
            vec![big, 0.1],
            vec![0.1, 0.4],
            vec![big, 0.8],
            vec![0.3, 0.3],
        ])
        .unwrap();
        let ctx = AggregationContext::new(Profile::all_sum(2), &catalog, 2).unwrap();
        let dirs = [FeatureDirection::Maximize, FeatureDirection::Minimize];
        let all: Vec<(Package, Vec<f64>)> = pkgrec_core::enumerate_packages(catalog.len(), 2)
            .into_iter()
            .filter(|p| p.len() == 2)
            .map(|p| {
                let v = ctx.package_vector(&catalog, &p).unwrap();
                (p, v)
            })
            .collect();
        assert!(all.iter().any(|(_, v)| v[0].is_nan()));
        let expected: Vec<Package> = all
            .iter()
            .filter(|(_, v)| !all.iter().any(|(_, o)| dominates_under(o, v, &dirs)))
            .map(|(p, _)| p.clone())
            .collect();
        let (skyline, stats) = skyline_packages(&ctx, &catalog, 2, &dirs).unwrap();
        let got: Vec<Package> = skyline.into_iter().map(|(p, _)| p).collect();
        assert_eq!(got, expected);
        assert_eq!(stats.candidates, all.len());
    }

    #[test]
    fn skyline_of_the_running_example() {
        let (catalog, ctx) = figure1_setup();
        let dirs = [FeatureDirection::Minimize, FeatureDirection::Maximize];
        let (skyline, stats) = skyline_packages(&ctx, &catalog, 2, &dirs).unwrap();
        assert_eq!(stats.candidates, 3);
        // Size-2 packages: {t1,t2} = (1.0, 0.75), {t1,t3} = (0.8, 0.75),
        // {t2,t3} = (0.6, 1.0).  {t2,t3} dominates both others (cheaper and
        // better rated), so it is the only skyline package.
        assert_eq!(stats.skyline_size, 1);
        assert_eq!(skyline[0].0, Package::new(vec![1, 2]).unwrap());
    }

    #[test]
    fn every_non_skyline_package_is_dominated_by_a_skyline_package() {
        let mut rng = StdRng::seed_from_u64(9);
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let catalog = Catalog::from_rows(rows).unwrap();
        let ctx = AggregationContext::new(Profile::cost_quality(), &catalog, 3).unwrap();
        let dirs = [FeatureDirection::Minimize, FeatureDirection::Maximize];
        let (skyline, stats) = skyline_packages(&ctx, &catalog, 3, &dirs).unwrap();
        assert_eq!(stats.candidates, 120);
        assert!(stats.skyline_size >= 1);
        // Check the defining property on every candidate.
        for p in pkgrec_core::enumerate_packages(catalog.len(), 3) {
            if p.len() != 3 {
                continue;
            }
            let v = ctx.package_vector(&catalog, &p).unwrap();
            let in_skyline = skyline.iter().any(|(sp, _)| *sp == p);
            let dominated = skyline.iter().any(|(_, sv)| dominates_under(sv, &v, &dirs));
            assert!(
                in_skyline || dominated,
                "package {p} neither in skyline nor dominated"
            );
        }
    }

    #[test]
    fn skyline_grows_with_anti_correlated_features() {
        // The motivation for the paper: with anti-correlated features the
        // skyline quickly becomes large relative to the candidate count.
        let mut rng = StdRng::seed_from_u64(10);
        let anti: Vec<Vec<f64>> = (0..12)
            .map(|_| {
                let a: f64 = rng.gen_range(0.0..1.0);
                vec![a, 1.0 - a]
            })
            .collect();
        let correlated: Vec<Vec<f64>> = (0..12)
            .map(|_| {
                let a: f64 = rng.gen_range(0.0..1.0);
                vec![a, (a + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0)]
            })
            .collect();
        let dirs = [FeatureDirection::Maximize, FeatureDirection::Maximize];
        let cat_anti = Catalog::from_rows(anti).unwrap();
        let cat_cor = Catalog::from_rows(correlated).unwrap();
        let ctx_anti = AggregationContext::new(Profile::all_sum(2), &cat_anti, 2).unwrap();
        let ctx_cor = AggregationContext::new(Profile::all_sum(2), &cat_cor, 2).unwrap();
        let (_, anti_stats) = skyline_packages(&ctx_anti, &cat_anti, 2, &dirs).unwrap();
        let (_, cor_stats) = skyline_packages(&ctx_cor, &cat_cor, 2, &dirs).unwrap();
        assert!(
            anti_stats.skyline_size > cor_stats.skyline_size,
            "anti-correlated skyline ({}) should exceed correlated skyline ({})",
            anti_stats.skyline_size,
            cor_stats.skyline_size
        );
    }
}
