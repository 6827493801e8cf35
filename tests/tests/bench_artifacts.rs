//! Sanity checks over the committed benchmark artifacts (`BENCH_*.json` at
//! the repository root): every artifact must parse, carry the machine/build
//! environment header, and contain the series its figure is expected to
//! record.  CI runs this suite after the fig smoke set so a bench refresh
//! that drops a field (or a figure that silently stops writing a series)
//! fails the build instead of shipping a hollow artifact.

use pkgrec_serve::StoreStats;
use serde_json::Value;
use std::path::PathBuf;

fn artifact(name: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(name);
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name} must exist at the repository root: {e}"));
    serde_json::value_from_str(&raw).unwrap_or_else(|e| panic!("{name} must be valid JSON: {e:?}"))
}

fn field<'a>(name: &str, value: &'a Value, key: &str) -> &'a Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("{name} must carry a `{key}` field"))
}

fn str_field(name: &str, value: &Value, key: &str) -> String {
    field(name, value, key)
        .as_str()
        .unwrap_or_else(|| panic!("{name}: `{key}` must be a string"))
        .to_string()
}

/// Every artifact embeds the environment it was measured under, so a number
/// can always be read next to the hardware that produced it.  Returns the
/// recorded `available_parallelism`.
fn assert_environment(name: &str, record: &Value) -> i128 {
    let env = field(name, record, "environment");
    let parallelism = field(name, env, "available_parallelism")
        .as_i128()
        .filter(|&p| p >= 1)
        .unwrap_or_else(|| panic!("{name}: environment.available_parallelism must be >= 1"));
    for key in ["os", "arch"] {
        assert!(
            !str_field(name, env, key).is_empty(),
            "{name}: environment.{key} must be non-empty"
        );
    }
    assert_eq!(
        str_field(name, env, "build_profile"),
        "release",
        "{name}: committed artifacts must be measured in release builds"
    );
    parallelism
}

fn points<'a>(name: &str, record: &'a Value, key: &str) -> &'a [Value] {
    let list = field(name, record, key)
        .as_array()
        .unwrap_or_else(|| panic!("{name}: `{key}` must be an array"));
    assert!(!list.is_empty(), "{name}: `{key}` must not be empty");
    list
}

fn series_paths(name: &str, record: &Value, key: &str) -> Vec<String> {
    points(name, record, key)
        .iter()
        .map(|p| str_field(name, p, "path"))
        .collect()
}

fn keys(name: &str, value: &Value) -> Vec<String> {
    value
        .as_object()
        .unwrap_or_else(|| panic!("{name}: expected a JSON object"))
        .iter()
        .map(|(key, _)| key.clone())
        .collect()
}

/// A recorded `store` block must carry exactly the counters [`StoreStats`]
/// serialises today — no stale counter of a removed path, none missing.
fn assert_store_stats(name: &str, store: &Value) {
    let current = serde_json::to_value(&StoreStats::default()).expect("StoreStats serialises");
    assert_eq!(
        keys(name, store),
        keys(name, &current),
        "{name}: a `store` block must carry exactly the current StoreStats counters"
    );
}

#[test]
fn scoring_artifact_records_every_kernel_shape() {
    let name = "BENCH_scoring.json";
    let record = artifact(name);
    assert_eq!(str_field(name, &record, "bench"), "fig_scoring");
    let parallelism = assert_environment(name, &record);
    let paths = series_paths(name, &record, "points");
    assert_eq!(
        paths.len(),
        3,
        "{name} must record exactly scalar, lane-blocked and one threaded shape, got {paths:?}"
    );
    assert_eq!(paths[0], "scalar", "{name}: got {paths:?}");
    assert_eq!(paths[1], "lane-blocked", "{name}: got {paths:?}");
    let threads: i128 = paths[2]
        .strip_prefix("threaded_")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{name} must record a `threaded_N` shape, got {paths:?}"));
    // A threaded row cannot have measured more threads than the recorded
    // machine had cores.
    assert!(
        (1..=parallelism).contains(&threads),
        "{name}: `threaded_{threads}` claims more threads than available_parallelism {parallelism}"
    );
    for point in points(name, &record, "points") {
        for key in ["mean_ns", "cells_per_sec", "speedup_vs_scalar"] {
            assert!(
                field(name, point, key).as_f64().is_some_and(|v| v > 0.0),
                "{name}: every point needs a positive `{key}`"
            );
        }
    }
}

#[test]
fn serving_artifact_records_every_serving_path() {
    let name = "BENCH_serving.json";
    let record = artifact(name);
    assert_eq!(str_field(name, &record, "bench"), "fig_serving");
    assert_environment(name, &record);
    // Each shard count records the store-hit path, then snapshot-restore.
    let paths = series_paths(name, &record, "points");
    assert!(
        !paths.is_empty()
            && paths
                .chunks(2)
                .all(|pair| pair == ["store-hit", "snapshot-restore"]),
        "{name} must record exactly store-hit and snapshot-restore per shard count, got {paths:?}"
    );
    let list = points(name, &record, "points");
    for point in list {
        assert!(
            field(name, point, "sessions_per_sec")
                .as_f64()
                .is_some_and(|v| v > 0.0),
            "{name}: every point needs a positive `sessions_per_sec`"
        );
        assert_store_stats(name, field(name, point, "store"));
        // Same fleet, same deterministic outcomes on every path.
        for key in ["mean_clicks", "converged", "mean_precision"] {
            assert_eq!(
                field(name, point, key),
                field(name, &list[0], key),
                "{name}: `{key}` must agree across paths"
            );
        }
    }
    let durability = field(name, &record, "durability");
    let serving = field(name, durability, "serving");
    assert_eq!(str_field(name, serving, "path"), "durable-log");
    assert_store_stats(name, field(name, serving, "store"));
    for key in ["reduction_factor", "recovery_ms"] {
        assert!(
            field(name, durability, key)
                .as_f64()
                .is_some_and(|v| v > 0.0),
            "{name}: durability needs a positive `{key}`"
        );
    }
}

#[test]
fn pkgsearch_artifact_records_the_sweep() {
    let name = "BENCH_pkgsearch.json";
    let record = artifact(name);
    assert_eq!(str_field(name, &record, "bench"), "fig_pkgsearch");
    assert_environment(name, &record);
    for config in points(name, &record, "configs") {
        for key in [
            "features",
            "phi",
            "reference_ns_per_search",
            "arena_ns_per_search",
        ] {
            assert!(
                field(name, config, key).as_i128().is_some_and(|v| v > 0),
                "{name}: every config needs a positive `{key}`"
            );
        }
    }
}

#[test]
fn server_artifact_records_load_levels() {
    let name = "BENCH_server.json";
    let record = artifact(name);
    assert_eq!(str_field(name, &record, "bench"), "fig_server");
    assert_environment(name, &record);
    // Every concurrency level runs the one request loop and must be
    // shadow-clean: the wire may not be observable in results.
    for level in points(name, &record, "levels") {
        assert_eq!(
            keys(name, level),
            ["store", "report"],
            "{name}: a level records exactly its store counters and load report"
        );
        assert_store_stats(name, field(name, level, "store"));
        let report = field(name, level, "report");
        assert_eq!(
            field(name, report, "mismatches").as_i128(),
            Some(0),
            "{name}: recorded levels must have zero shadow mismatches"
        );
        assert!(
            field(name, report, "sessions_per_sec")
                .as_f64()
                .is_some_and(|v| v > 0.0),
            "{name}: every level needs a positive `sessions_per_sec`"
        );
    }
}
