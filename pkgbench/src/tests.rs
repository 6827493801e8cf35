//! Determinism of the benchmark's inputs and results on small fleets.

use std::time::{Duration, Instant};

use pkgrec_core::Feedback;

use crate::check::{reference_replay, result_digest};
use crate::drive::{drive, DriveLog, Verb};
use crate::fleet::{Fleet, Workload};
use crate::system::open_store;

/// The op stream in issue order: session, verb and click of every op.
fn op_stream(log: &DriveLog) -> Vec<(u64, Verb, Option<Feedback>)> {
    log.ops
        .iter()
        .map(|op| (op.session, op.verb, op.feedback))
        .collect()
}

/// Drives a small engine-resident fleet in memory.
fn small_run(seed: u64) -> (Fleet, DriveLog) {
    let workload = Workload::EngineResident;
    let mut shape = workload.shape();
    shape.rows = 80;
    shape.sessions = 6;
    shape.slots = 3;
    shape.rounds = 2;
    let fleet = Fleet::with_shape(workload, shape, seed).unwrap();
    let mut store = open_store(&shape, None).unwrap();
    let far = Instant::now() + Duration::from_secs(600);
    let log = drive(&mut store, &fleet, 0..6, 3, far, None, 0).unwrap();
    (fleet, log)
}

#[test]
fn same_seed_same_op_stream_and_digest() {
    let (fleet, a) = small_run(11);
    let (_, b) = small_run(11);
    assert_eq!(a.completed, 6);
    assert!(a.ops.iter().all(|op| op.ok));
    assert_eq!(op_stream(&a), op_stream(&b));
    assert_eq!(result_digest(&a).unwrap(), result_digest(&b).unwrap());
    // The reference store answers identically.
    assert_eq!(reference_replay(&fleet, &a).unwrap().mismatches, 0);
}

#[test]
fn another_seed_changes_the_results() {
    let (_, a) = small_run(11);
    let (_, b) = small_run(12);
    assert_ne!(result_digest(&a).unwrap(), result_digest(&b).unwrap());
}

#[test]
fn sessions_interleave_round_robin() {
    let (_, log) = small_run(3);
    // Three open slots: the first three ops create sessions 0, 1, 2 and
    // the next three present to them in the same order.
    let sessions: Vec<u64> = log.ops.iter().take(6).map(|op| op.session).collect();
    assert_eq!(sessions, vec![0, 1, 2, 0, 1, 2]);
}
