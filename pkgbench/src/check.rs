//! Output checks, run after the clock stops: a reference store replays the
//! op stream and must answer identically, a killed-and-reopened durable
//! store must recommend identically, and every final recommendation is
//! scored against its shopper's true top-k.  Also the exact counter block
//! and the result digest.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use pkgrec_core::{AggregatedSearchStats, CoreError, Result};
use pkgrec_serve::segment::{encode_record, CatalogId, WireEvent, WireRecord};
use pkgrec_serve::{
    DurabilityConfig, SessionEvent, SessionId, SessionStore, StoreConfig, StoreStats,
};
use pkgrec_server::ServeReport;

use crate::drive::{DriveLog, OpRecord, Output, Verb};
use crate::fleet::{Fleet, Kind, Shape};
use crate::stats::Digest;

/// Reference stores replaying a log, one per core, after the clock stops.
const REFERENCE_PARTS: u64 = 2;

/// Memory-only stores with one shard and room for every session, fed the
/// same op stream as the store under test.  Sessions are independent, so
/// the fleet is split over [`REFERENCE_PARTS`] stores (session `i` in store
/// `i % REFERENCE_PARTS`) that replay on threads of their own.
pub struct Reference {
    parts: Vec<ReferencePart>,
    /// Answers that differed from the recorded ones (or failed).
    pub mismatches: usize,
}

/// One reference store and the sessions it holds.
struct ReferencePart {
    store: SessionStore,
    /// Fleet index → id in the store.
    ids: HashMap<u64, SessionId>,
    mismatches: usize,
}

/// Replays every successful op of `log`, in order, against the reference
/// stores and counts the present and recommend answers that differ.
pub fn reference_replay(fleet: &Fleet, log: &DriveLog) -> Result<Reference> {
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..REFERENCE_PARTS)
            .map(|part| {
                scope.spawn(move || -> Result<ReferencePart> {
                    let mut reference = ReferencePart {
                        store: SessionStore::new(StoreConfig {
                            shards: 1,
                            capacity_per_shard: usize::MAX,
                        })?,
                        ids: HashMap::new(),
                        mismatches: 0,
                    };
                    let mine = log
                        .ops
                        .iter()
                        .filter(|op| op.ok && op.session % REFERENCE_PARTS == part);
                    for op in mine {
                        if !reference.apply(fleet, op) {
                            reference.mismatches += 1;
                        }
                    }
                    Ok(reference)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(CoreError::io(
                        std::io::ErrorKind::Other,
                        "reference thread panicked",
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()
    })?;
    Ok(Reference {
        mismatches: parts.iter().map(|p| p.mismatches).sum(),
        parts,
    })
}

impl Reference {
    /// One more recommend of fleet session `index`, if the reference holds
    /// it.
    fn recommend(&mut self, index: u64) -> Option<Vec<pkgrec_core::RankedPackage>> {
        let part = &mut self.parts[(index % REFERENCE_PARTS) as usize];
        let id = *part.ids.get(&index)?;
        part.store.recommend(id).ok()
    }

    /// Aggregated `Top-k-Pkg` counters over the reference sessions of
    /// `kind`, or of every kind.
    pub fn search_stats(
        &mut self,
        fleet: &Fleet,
        kind: Option<Kind>,
    ) -> Result<AggregatedSearchStats> {
        let mut total = AggregatedSearchStats::default();
        for part in &mut self.parts {
            for (&index, &id) in &part.ids {
                if kind.is_none() || kind == Some(fleet.session(index)?.kind) {
                    total.merge(&part.store.state(id)?.search);
                }
            }
        }
        Ok(total)
    }
}

impl ReferencePart {
    /// Applies one recorded op; false when the answer differs or fails.
    fn apply(&mut self, fleet: &Fleet, op: &OpRecord) -> bool {
        if op.verb == Verb::Create {
            return match fleet
                .session(op.session)
                .and_then(|plan| self.store.create(plan.config))
            {
                Ok(id) => self.ids.insert(op.session, id).is_none(),
                Err(_) => false,
            };
        }
        let Some(&id) = self.ids.get(&op.session) else {
            return false;
        };
        match op.verb {
            Verb::Present => self
                .store
                .present(id)
                .is_ok_and(|shown| op.output == Output::Shown(shown)),
            Verb::Feedback => op
                .feedback
                .is_some_and(|feedback| self.store.feedback(id, feedback).is_ok()),
            Verb::Recommend => self
                .store
                .recommend(id)
                .is_ok_and(|ranked| op.output == Output::Ranked(ranked)),
            Verb::Create => unreachable!("handled above"),
        }
    }
}

/// Fleet indices of the sessions that reached their final recommend.
pub fn completed_sessions(log: &DriveLog) -> Vec<u64> {
    log.ops
        .iter()
        .filter(|op| op.ok && op.verb == Verb::Recommend)
        .map(|op| op.session)
        .collect()
}

/// What reopening a killed durable store showed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reopen {
    /// Recommends compared.
    pub checked: usize,
    /// Recommends that differed from the reference (or failed).
    pub mismatches: usize,
    /// Time to open the directory again, s.
    pub open_s: f64,
    /// Sessions recovery re-registered from the segments.
    pub recovery_replays: usize,
}

/// Kills `store` without running destructors, reopens its directory and
/// asks every completed session for one more recommend, which must equal
/// the reference store's answer at the same op index.
pub fn reopen_check(
    shape: &Shape,
    dir: &Path,
    store: SessionStore,
    log: &DriveLog,
    reference: &mut Reference,
) -> Result<Reopen> {
    std::mem::forget(store);
    let opened = Instant::now();
    let mut reopened = SessionStore::open_with(
        StoreConfig {
            shards: shape.shards,
            capacity_per_shard: shape.capacity_per_shard,
        },
        DurabilityConfig::at(dir),
    )?;
    let mut outcome = Reopen {
        open_s: opened.elapsed().as_secs_f64(),
        recovery_replays: reopened.stats().recovery_replays,
        ..Reopen::default()
    };
    let ids: HashMap<u64, u64> = log.ids.iter().copied().collect();
    for index in completed_sessions(log) {
        outcome.checked += 1;
        let expected = reference.recommend(index);
        let got = ids
            .get(&index)
            .and_then(|&id| reopened.recommend(SessionId(id)).ok());
        if expected.is_none() || expected != got {
            outcome.mismatches += 1;
        }
    }
    Ok(outcome)
}

/// Mean precision@k of every final recommendation against its shopper's
/// true top-k packages (k = the number of packages recommended).
pub fn precision(fleet: &Fleet, log: &DriveLog) -> Result<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for op in log.ops.iter().filter(|op| op.ok) {
        let Output::Ranked(ranked) = &op.output else {
            continue;
        };
        let k = ranked.len().max(1);
        let truth = fleet
            .session(op.session)?
            .user
            .ground_truth_top_k(&fleet.catalog, k)?;
        let hits = ranked
            .iter()
            .filter(|r| truth.packages.iter().any(|(p, _)| *p == r.package))
            .count();
        sum += hits as f64 / k as f64;
        count += 1;
    }
    Ok(crate::stats::ratio(sum, count as f64))
}

/// A digest of every answer, session by session in fleet order (so
/// concurrent clients produce the same digest as a single load thread).
pub fn result_digest(log: &DriveLog) -> Result<u64> {
    let mut by_session: BTreeMap<u64, Vec<&OpRecord>> = BTreeMap::new();
    for op in &log.ops {
        by_session.entry(op.session).or_default().push(op);
    }
    let mut digest = Digest::default();
    for (session, ops) in by_session {
        digest.feed(&session.to_le_bytes());
        for op in ops {
            digest.feed(op.verb.name().as_bytes());
            digest.feed(&[u8::from(op.ok)]);
            let json = match &op.output {
                Output::Unchecked => Ok(String::new()),
                Output::Shown(shown) => serde_json::to_string(shown),
                Output::Ranked(ranked) => serde_json::to_string(ranked),
            }
            .map_err(|e| CoreError::InvalidConfig(format!("digest: {e}")))?;
            digest.feed(json.as_bytes());
        }
    }
    Ok(digest.0)
}

/// Bytes the measured sessions' events take in the segment encoding — the
/// journal footprint of a memory-only store, where no segment files exist —
/// and the number of those events.  Catalog records are left out: the
/// segment log interns a catalog and writes it once, not per session.
pub fn encoded_journal_bytes(store: &SessionStore, log: &DriveLog) -> Result<(u64, u64)> {
    let measured: std::collections::HashSet<u64> = log.ids.iter().map(|&(_, id)| id).collect();
    let mut out = Vec::new();
    let mut events = 0;
    for record in store.export_journal().records() {
        if !measured.contains(&record.session.0) {
            continue;
        }
        events += 1;
        let event = match &record.event {
            SessionEvent::Created { config } => WireEvent::Created {
                catalog: CatalogId(0),
                profile: config.profile.clone(),
                max_package_size: config.max_package_size,
                spec: config.spec.clone(),
                seed: config.seed,
            },
            SessionEvent::Presented => WireEvent::Presented,
            SessionEvent::Feedback(feedback) => WireEvent::Feedback(*feedback),
            SessionEvent::Recommended => WireEvent::Recommended,
            // The memory-only store never evicts, so it never checkpoints.
            SessionEvent::Snapshot { .. } => {
                return Err(CoreError::InvalidConfig(
                    "snapshot in a memory-only store's journal".into(),
                ))
            }
        };
        encode_record(
            &WireRecord::Event {
                session: record.session,
                event,
            },
            &mut out,
        )?;
    }
    Ok((out.len() as u64, events))
}

/// The exact counters of one drive; two drives of the same sessions on
/// fresh systems must agree.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// The measured store's counters.
    pub store: StoreStats,
    /// `Top-k-Pkg` counters of the fleet's engine sessions.
    pub search: AggregatedSearchStats,
    /// Pool rows incremental resampling kept (traced runs, from the twins).
    pub samples_reused: Option<usize>,
    /// The server's counters (wire workloads).
    pub serve: Option<ServeReport>,
    /// Client reconnect-and-resend attempts.
    pub retries: u64,
    /// [`result_digest`] of the drive's answers.
    pub digest: u64,
}

impl Counters {
    /// One-line JSON.
    pub fn to_json(&self) -> String {
        let json = |value: std::result::Result<String, serde_json::Error>| {
            value.unwrap_or_else(|e| format!("\"{e}\""))
        };
        format!(
            "{{\"store\":{},\"search\":{},\"samples_reused\":{},\"serve\":{},\"client_retries\":{},\"digest\":\"{:016x}\"}}",
            json(serde_json::to_string(&self.store)),
            json(serde_json::to_string(&self.search)),
            self.samples_reused
                .map_or("null".to_string(), |n| n.to_string()),
            self.serve
                .map_or("null".to_string(), |s| json(serde_json::to_string(&s))),
            self.retries,
            self.digest
        )
    }
}
