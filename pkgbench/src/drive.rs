//! The closed-loop load generator: steps a fleet of sessions round-robin through a
//! target (the store in process, or a wire client), timing every call at
//! the caller and recording every answer for the checks that run after the
//! clock stops.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pkgrec_core::{Feedback, Package, RankedPackage, Result};
use pkgrec_serve::{user_rng, SessionConfig, SessionId, SessionStore};
use pkgrec_server::Client;
use rand::rngs::StdRng;

use crate::fleet::{Fleet, Kind, SessionPlan};
use crate::host;
use crate::trace::Tracer;

/// Ops between two host-speed samples ([`host::sample`]).
const HOST_SAMPLE_EVERY: usize = 256;

/// A session operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    /// Open a session.
    Create,
    /// Show a round of packages.
    Present,
    /// Apply the shopper's click.
    Feedback,
    /// Final top-k recommendation.
    Recommend,
}

impl Verb {
    /// Every verb.
    pub const ALL: [Verb; 4] = [Verb::Create, Verb::Present, Verb::Feedback, Verb::Recommend];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Create => "create",
            Verb::Present => "present",
            Verb::Feedback => "feedback",
            Verb::Recommend => "recommend",
        }
    }

    fn span(self, layer: Layer) -> &'static str {
        match (layer, self) {
            (Layer::Store, Verb::Create) => "store.create",
            (Layer::Store, Verb::Present) => "store.present",
            (Layer::Store, Verb::Feedback) => "store.feedback",
            (Layer::Store, Verb::Recommend) => "store.recommend",
            (Layer::Wire, Verb::Create) => "wire.create",
            (Layer::Wire, Verb::Present) => "wire.present",
            (Layer::Wire, Verb::Feedback) => "wire.feedback",
            (Layer::Wire, Verb::Recommend) => "wire.recommend",
        }
    }
}

/// What an op answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Create and feedback answers are not compared.
    Unchecked,
    /// A present's packages.
    Shown(Vec<Package>),
    /// A recommend's ranking.
    Ranked(Vec<RankedPackage>),
}

/// One attempted op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Fleet index of the session.
    pub session: u64,
    /// Recommender kind of the session.
    pub kind: Kind,
    /// The verb.
    pub verb: Verb,
    /// The click, for feedback.
    pub feedback: Option<Feedback>,
    /// Span op id (traced runs).
    pub op: u64,
    /// Latency at the caller, ns.
    pub ns: u64,
    /// Factor that puts `ns` at the reference host speed ([`host`]).
    pub scale: f64,
    /// Whole-op time on a clock of the caller's own, read around the root
    /// span (traced runs), ns.
    pub wall_ns: u64,
    /// Time of the explicit restore before the call (traced runs), ns.
    pub restore_ns: u64,
    /// Whether the traced run had to rehydrate the session first.
    pub restored: bool,
    /// Whether the call succeeded.
    pub ok: bool,
    /// The answer.
    pub output: Output,
}

/// Which layer a target's calls enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SessionStore` in process.
    Store,
    /// `Client` over TCP.
    Wire,
}

/// Something the load generator can run sessions against.
pub trait Target {
    /// The layer the calls enter.
    fn layer(&self) -> Layer;
    /// Opens a session.
    fn create(&mut self, config: SessionConfig) -> Result<u64>;
    /// One present.
    fn present(&mut self, id: u64) -> Result<Vec<Package>>;
    /// One feedback.
    fn feedback(&mut self, id: u64, feedback: Feedback) -> Result<usize>;
    /// One recommend.
    fn recommend(&mut self, id: u64) -> Result<Vec<RankedPackage>>;
    /// Rehydrates the session explicitly, reporting whether it was spilled;
    /// `None` when the target has no such step.
    fn restore(&mut self, _id: u64) -> Option<Result<bool>> {
        None
    }
}

impl Target for SessionStore {
    fn layer(&self) -> Layer {
        Layer::Store
    }
    fn create(&mut self, config: SessionConfig) -> Result<u64> {
        SessionStore::create(self, config).map(|id| id.0)
    }
    fn present(&mut self, id: u64) -> Result<Vec<Package>> {
        SessionStore::present(self, SessionId(id))
    }
    fn feedback(&mut self, id: u64, feedback: Feedback) -> Result<usize> {
        SessionStore::feedback(self, SessionId(id), feedback)
    }
    fn recommend(&mut self, id: u64) -> Result<Vec<RankedPackage>> {
        SessionStore::recommend(self, SessionId(id))
    }
    fn restore(&mut self, id: u64) -> Option<Result<bool>> {
        let id = SessionId(id);
        Some(
            self.is_live(id)
                .and_then(|live| SessionStore::restore(self, id).map(|()| !live)),
        )
    }
}

impl Target for Client {
    fn layer(&self) -> Layer {
        Layer::Wire
    }
    fn create(&mut self, config: SessionConfig) -> Result<u64> {
        Client::create(self, config)
    }
    fn present(&mut self, id: u64) -> Result<Vec<Package>> {
        Client::present(self, id)
    }
    fn feedback(&mut self, id: u64, feedback: Feedback) -> Result<usize> {
        Client::feedback(self, id, feedback)
    }
    fn recommend(&mut self, id: u64) -> Result<Vec<RankedPackage>> {
        Client::recommend(self, id)
    }
}

/// The random stream a session's shopper clicks with.
pub fn choice_rng(plan: &SessionPlan) -> StdRng {
    user_rng(plan.config.seed ^ 0x5ee5)
}

/// One open session: its plan, its id in the target and its progress.
struct Cursor {
    plan: SessionPlan,
    id: u64,
    step: usize,
    last_shown: Vec<Package>,
    rng: StdRng,
}

impl Cursor {
    /// The verb of step `step` of a `rounds`-round session.
    fn verb(&self, rounds: usize) -> Verb {
        match self.step {
            0 => Verb::Create,
            s if s > 2 * rounds => Verb::Recommend,
            s if s % 2 == 1 => Verb::Present,
            _ => Verb::Feedback,
        }
    }
}

/// Everything one drive recorded.
#[derive(Debug, Default)]
pub struct DriveLog {
    /// Every attempted op, in issue order.
    pub ops: Vec<OpRecord>,
    /// Sessions driven to their final recommend.
    pub completed: usize,
    /// Fleet index → id in the target, for every created session.
    pub ids: Vec<(u64, u64)>,
    /// Wall time of the drive, less the host-speed samples.
    pub elapsed: Duration,
    /// `elapsed` at the reference host speed, s.
    pub scaled_elapsed_s: f64,
    /// Host-speed samples taken during the drive, ns each.
    pub host_ns: Vec<u64>,
    /// Whether the deadline stopped the drive before its work was done.
    pub cut: bool,
}

impl DriveLog {
    /// Folds another client's log into this one (concurrent clients).
    pub fn merge(&mut self, other: DriveLog) {
        self.ops.extend(other.ops);
        self.completed += other.completed;
        self.ids.extend(other.ids);
        self.host_ns.extend(other.host_ns);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.scaled_elapsed_s = self.scaled_elapsed_s.max(other.scaled_elapsed_s);
        self.cut |= other.cut;
    }
}

/// Drives the fleet sessions at `indices` to completion through `target`,
/// `slots` at a time, round-robin, closed loop.  Stops issuing ops at
/// `deadline`.  Every [`HOST_SAMPLE_EVERY`] ops it times the host-speed
/// kernel, outside every op and outside `elapsed`, and at the end scales
/// each op by the samples around it ([`host::stretch_scales`]).  With a
/// tracer, every op becomes a root span whose children
/// are an explicit restore (where the target has one) and the call itself;
/// `op_base` offsets the span op ids.
pub fn drive(
    target: &mut dyn Target,
    fleet: &Fleet,
    indices: impl IntoIterator<Item = u64>,
    slots: usize,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
    op_base: u64,
) -> Result<DriveLog> {
    let rounds = fleet.shape.rounds;
    let layer = target.layer();
    let mut pending = indices.into_iter();
    let mut open: VecDeque<Cursor> = VecDeque::with_capacity(slots);
    let mut log = DriveLog::default();
    let mut sampling = Duration::ZERO;
    let mut sampled_at = Vec::new();
    let started = Instant::now();
    let mut refill = |open: &mut VecDeque<Cursor>| -> Result<()> {
        while open.len() < slots {
            let Some(index) = pending.next() else {
                break;
            };
            let plan = fleet.session(index)?;
            open.push_back(Cursor {
                rng: choice_rng(&plan),
                plan,
                id: 0,
                step: 0,
                last_shown: Vec::new(),
            });
        }
        Ok(())
    };
    refill(&mut open)?;
    while let Some(mut cursor) = open.pop_front() {
        if Instant::now() >= deadline {
            log.cut = true;
            break;
        }
        let verb = cursor.verb(rounds);
        let feedback = if verb == Verb::Feedback {
            let index =
                cursor
                    .plan
                    .user
                    .choose(&fleet.catalog, &cursor.last_shown, &mut cursor.rng)?;
            Some(Feedback::Click { index })
        } else {
            None
        };
        let op_id = op_base + log.ops.len() as u64;
        let wall = Instant::now();
        let root = tracer.as_mut().map(|t| t.open("op", None, op_id));
        let mut restored = false;
        let mut restore_ns = 0;
        let mut ok = true;
        if let (Some(t), true) = (tracer.as_mut(), verb != Verb::Create) {
            if layer == Layer::Store {
                let span = t.open("store.restore", root, op_id);
                match target.restore(cursor.id) {
                    Some(Ok(was_spilled)) => restored = was_spilled,
                    Some(Err(_)) => ok = false,
                    None => {}
                }
                restore_ns = t.close(span);
            }
        }
        let call = tracer
            .as_mut()
            .map(|t| t.open(verb.span(layer), root, op_id));
        let clock = Instant::now();
        let output = if !ok {
            Err(())
        } else {
            match verb {
                Verb::Create => target
                    .create(cursor.plan.config.clone())
                    .map(|id| {
                        cursor.id = id;
                        Output::Unchecked
                    })
                    .map_err(drop),
                Verb::Present => target.present(cursor.id).map(Output::Shown).map_err(drop),
                Verb::Feedback => target
                    .feedback(cursor.id, feedback.expect("feedback op"))
                    .map(|_| Output::Unchecked)
                    .map_err(drop),
                Verb::Recommend => target
                    .recommend(cursor.id)
                    .map(Output::Ranked)
                    .map_err(drop),
            }
        };
        let mut ns = clock.elapsed().as_nanos() as u64;
        let mut wall_ns = 0;
        if let Some(t) = tracer.as_mut() {
            ns = t.close(call.expect("traced call"));
            t.close(root.expect("traced op"));
            wall_ns = wall.elapsed().as_nanos() as u64;
        }
        let ok = output.is_ok();
        let output = output.unwrap_or(Output::Unchecked);
        if let Output::Shown(shown) = &output {
            cursor.last_shown = shown.clone();
        }
        if ok && verb == Verb::Create {
            log.ids.push((cursor.plan.index, cursor.id));
        }
        log.ops.push(OpRecord {
            session: cursor.plan.index,
            kind: cursor.plan.kind,
            verb,
            feedback,
            op: op_id,
            ns,
            scale: 1.0,
            wall_ns,
            restore_ns,
            restored,
            ok,
            output,
        });
        if log.ops.len() % HOST_SAMPLE_EVERY == 0 {
            let clock = Instant::now();
            sampled_at.push(started.elapsed().saturating_sub(sampling));
            log.host_ns.push(host::sample());
            sampling += clock.elapsed();
        }
        cursor.step += 1;
        if !ok {
            // A failed op abandons its session; the slot moves on.
            refill(&mut open)?;
        } else if verb == Verb::Recommend {
            log.completed += 1;
            refill(&mut open)?;
        } else {
            open.push_back(cursor);
        }
    }
    log.elapsed = started.elapsed().saturating_sub(sampling);
    let (scales, scaled_elapsed_s) = host::stretch_scales(&log.host_ns, &sampled_at, log.elapsed);
    for (i, op) in log.ops.iter_mut().enumerate() {
        op.scale = scales[i / HOST_SAMPLE_EVERY];
    }
    log.scaled_elapsed_s = scaled_elapsed_s;
    Ok(log)
}
