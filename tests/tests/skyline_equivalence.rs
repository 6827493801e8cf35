//! Property suite for the skyline baseline.
//!
//! `skyline_packages` walks the exact-cardinality packages with one
//! combination cursor, folds each from its prefix state and filters them
//! with a block-nested-loop window.  It must return exactly what the
//! definition gives: every package of the requested size built with
//! `enumerate_packages` and `package_vector`, kept when no other candidate
//! dominates it pairwise.  The reference below shares no code with that
//! path.  Inputs are drawn on a coarse grid so ties, duplicate rows and
//! equal vectors are common, over 1–4 features, all five aggregates, mixed
//! directions, φ from 1 to 4 and cardinalities from 0 to φ + 1 (also above
//! the catalog size); some catalogs hold values whose sums overflow.
//!
//! Both functions must return the same `Result`: the same entries in the
//! same order with bit-equal vectors and the same stats, or the same error.
//! A `SkylineSession` over the same inputs must present and recommend what
//! the reference skyline ranks.

use pkgrec_baselines::{skyline_packages, FeatureDirection, SkylineSession, SkylineStats};
use pkgrec_core::enumerate_packages;
use pkgrec_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Grid values; the last one overflows any sum of two.
const GRID: [f64; 6] = [0.0, 0.25, 0.5, 0.75, 1.0, f64::MAX / 1.5];

type Entries = Vec<(Package, Vec<f64>)>;

/// A skyline `Result` with vectors as bits and the error as text.
type Comparable = std::result::Result<(Vec<(Package, Vec<u64>)>, SkylineStats), String>;

/// The skyline by its definition: all-pairs domination over every
/// enumerated package of exactly `cardinality` items.
fn reference_skyline(
    context: &AggregationContext,
    catalog: &Catalog,
    cardinality: usize,
    directions: &[FeatureDirection],
) -> Result<(Entries, SkylineStats)> {
    if directions.len() != context.dim() {
        return Err(CoreError::DimensionMismatch {
            expected: context.dim(),
            actual: directions.len(),
        });
    }
    let dominates = |a: &[f64], b: &[f64]| {
        let mut strictly_better = false;
        for ((&av, &bv), direction) in a.iter().zip(b).zip(directions) {
            let (better, worse) = match direction {
                FeatureDirection::Maximize => (av > bv, av < bv),
                FeatureDirection::Minimize => (av < bv, av > bv),
            };
            if worse {
                return false;
            }
            strictly_better |= better;
        }
        strictly_better
    };
    let mut candidates = Vec::new();
    for package in enumerate_packages(catalog.len(), cardinality) {
        if package.len() == cardinality {
            let vector = context.package_vector(catalog, &package)?;
            candidates.push((package, vector));
        }
    }
    let skyline: Entries = candidates
        .iter()
        .filter(|(_, v)| !candidates.iter().any(|(_, o)| dominates(o, v)))
        .cloned()
        .collect();
    let stats = SkylineStats {
        candidates: candidates.len(),
        skyline_size: skyline.len(),
    };
    Ok((skyline, stats))
}

/// A `Result` in comparable form: vectors as bits, errors as their debug
/// text (variant and fields).
fn comparable(result: Result<(Entries, SkylineStats)>) -> Comparable {
    result
        .map(|(entries, stats)| {
            let bits = entries
                .into_iter()
                .map(|(p, v)| (p, v.iter().map(|x| x.to_bits()).collect()))
                .collect();
            (bits, stats)
        })
        .map_err(|e| format!("{e:?}"))
}

/// What a `SkylineSession` recommends from a skyline: the `k` entries with
/// the best direction-oriented mean, ties by package, scores as bits.
fn reference_ranking(
    entries: &Entries,
    directions: &[FeatureDirection],
    k: usize,
) -> Vec<(Package, u64)> {
    let mut ranked: Vec<(Package, f64)> = entries
        .iter()
        .map(|(p, v)| {
            let total: f64 = v
                .iter()
                .zip(directions)
                .map(|(&x, d)| match d {
                    FeatureDirection::Maximize => x,
                    FeatureDirection::Minimize => -x,
                })
                .sum();
            (p.clone(), total / directions.len() as f64)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    ranked.truncate(k);
    ranked.into_iter().map(|(p, s)| (p, s.to_bits())).collect()
}

fn aggregate_of(index: usize) -> AggregateFn {
    [
        AggregateFn::Min,
        AggregateFn::Max,
        AggregateFn::Sum,
        AggregateFn::Avg,
        AggregateFn::Null,
    ][index % 5]
}

fn direction_of(index: usize) -> FeatureDirection {
    [FeatureDirection::Maximize, FeatureDirection::Minimize][index % 2]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The fast skyline returns exactly the reference's `Result`, and a
    /// session over it ranks exactly the reference skyline.
    #[test]
    fn skyline_matches_the_pairwise_definition(
        m in 1usize..5,
        n in 1usize..10,
        cells in prop::collection::vec(0usize..20, 36),
        aggregates in prop::collection::vec(0usize..5, 4),
        directions in prop::collection::vec(0usize..2, 4),
        phi in 1usize..5,
        cardinality_draw in 0usize..6,
        shape in 0usize..10,
        k in 1usize..4,
    ) {
        // The grid's first five values; in a third of the catalogs, 1 cell
        // in 10 holds the huge value instead.
        let huge = shape.is_multiple_of(3);
        let value = |cell: usize| match cell {
            0 | 1 if huge => GRID[5],
            _ => GRID[cell % 5],
        };
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..m).map(|j| value(cells[(i * m + j) % cells.len()])).collect())
            .collect();
        if shape.is_multiple_of(2) && n >= 2 {
            rows[n - 1] = rows[0].clone();
        }
        let catalog = Catalog::from_rows(rows).unwrap();
        let profile = Profile::new(aggregates[..m].iter().map(|&a| aggregate_of(a)).collect());
        let context = AggregationContext::new(profile.clone(), &catalog, phi).unwrap();
        let cardinality = cardinality_draw % (phi + 2);
        let mut dirs: Vec<FeatureDirection> =
            directions[..m].iter().map(|&d| direction_of(d)).collect();
        match shape {
            1 => dirs.push(FeatureDirection::Maximize),
            5 => {
                dirs.pop();
            }
            _ => {}
        }

        let fast = skyline_packages(&context, &catalog, cardinality, &dirs);
        let reference = reference_skyline(&context, &catalog, cardinality, &dirs);
        let skyline = reference.as_ref().ok().map(|(entries, _)| entries.clone());
        prop_assert_eq!(comparable(fast), comparable(reference));

        let session = SkylineSession::new(
            catalog.clone(),
            profile,
            phi,
            cardinality,
            dirs.clone(),
            k,
        );
        let valid = (1..=phi).contains(&cardinality) && cardinality <= n && dirs.len() == m;
        prop_assert_eq!(session.is_ok(), valid);
        if let (Ok(mut session), Some(skyline)) = (session, skyline) {
            let expected = reference_ranking(&skyline, &dirs, k);
            let mut rng = StdRng::seed_from_u64(shape as u64);
            for _ in 0..2 {
                let shown = session.present(&mut rng).unwrap();
                let packages: Vec<Package> = expected.iter().map(|(p, _)| p.clone()).collect();
                prop_assert_eq!(shown, packages);
                let recommended: Vec<(Package, u64)> = session
                    .recommend(&mut rng)
                    .unwrap()
                    .into_iter()
                    .map(|r| (r.package, r.score.to_bits()))
                    .collect();
                prop_assert_eq!(&recommended, &expected);
            }
        }
    }
}
