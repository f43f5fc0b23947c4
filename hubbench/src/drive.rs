//! The timed window over the socket: each workload's connections run
//! their generated operation sequences as closed loops (every client
//! waits for each reply before sending the next request, as the CLI,
//! the extension popup and the follower engine all do), time every
//! request as the client observes it, and check every answer against
//! the generator's model.

use crate::gen::{self, Edit, Model, Read, Workload, BRANCH, PAGE, USER};
use gitlite::{ObjectId, RepoPath};
use hub::{Follower, Hub, HubClient, LogEntry, TcpTransport, Transport};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Id of the seeded repository on the hub.
pub const REPO_ID: &str = "bench/corpus";

/// Request classes whose client-observed latency is recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `generate_citation`.
    Cite,
    /// `citation_entry`.
    Entry,
    /// `read_file`.
    File,
    /// First `log_page`.
    LogFirst,
    /// `branches`.
    Branches,
    /// A negotiated push (negotiate + bundle build + push).
    Push,
    /// A follower `sync_once` round that applied at least one bundle.
    Catchup,
    /// One cursor `log_page` of a whole-history walk.
    Page,
    /// `clone_repo`, including the client's bundle decode.
    Clone,
    /// `credited_authors`.
    Credited,
}

/// What one or more connections did in the window.
#[derive(Default)]
pub struct Tally {
    /// Client-observed latencies in µs, per class.
    pub samples: BTreeMap<Class, Vec<f64>>,
    /// Requests and sync rounds attempted.
    pub attempted: u64,
    /// Of those, failed, refused or answered wrongly.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Per connection running the workload's fixed operation sequence
    /// (follower rounds are not in it), when each of its requests
    /// completed, in seconds since the window opened.
    pub lanes: Vec<Vec<f64>>,
    /// `(method, path, tip)` of every citation answer requested.
    pub lookups: Vec<(Class, String, ObjectId)>,
    /// Follower bundles applied, full and delta.
    pub full_bundles: u64,
    /// See `full_bundles`.
    pub delta_bundles: u64,
}

impl Tally {
    fn record(&mut self, class: Class, us: f64, outcome: Result<(), String>) {
        self.samples.entry(class).or_default().push(us);
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!("{class:?}: {e}"));
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        for (class, samples) in other.samples {
            self.samples.entry(class).or_default().extend(samples);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.lanes.extend(other.lanes);
        self.lookups.extend(other.lookups);
        self.full_bundles += other.full_bundles;
        self.delta_bundles += other.delta_bundles;
    }

    /// Requests of the fixed sequence completed.
    pub fn ops(&self) -> u64 {
        self.lanes.iter().map(|l| l.len() as u64).sum()
    }

    /// A tally for one connection of the fixed sequence.
    fn lane() -> Tally {
        Tally {
            lanes: vec![Vec::new()],
            ..Tally::default()
        }
    }

    /// Counts one request of the fixed sequence as completed now.
    fn done(&mut self, opened: Instant) {
        self.lanes[0].push(opened.elapsed().as_secs_f64());
    }

    /// Requests completed per second: the median over the whole seconds
    /// during which every connection was still running its sequence, so
    /// a stall of a few seconds (or a connection finishing early) does
    /// not set the figure. Windows under 3 s fall back to the plain rate.
    pub fn steady_rate(&self) -> f64 {
        let end = |pick: fn(f64, f64) -> f64, init: f64| {
            self.lanes
                .iter()
                .filter_map(|l| l.last().copied())
                .fold(init, pick)
        };
        let (first_end, last_end) = (end(f64::min, f64::INFINITY), end(f64::max, 0.0));
        let seconds = first_end.floor() as usize;
        if seconds < 3 {
            return self.ops() as f64 / last_end.max(1e-9);
        }
        let mut counts = vec![0.0; seconds];
        for &at in self.lanes.iter().flatten() {
            if let Some(c) = counts.get_mut(at as usize) {
                *c += 1.0;
            }
        }
        crate::quantile(&counts, 0.5)
    }

    /// Share of citation lookups whose `(method, path, tip)` was asked
    /// before in the window.
    pub fn repeat_share(&self) -> f64 {
        if self.lookups.is_empty() {
            return 0.0;
        }
        let distinct: std::collections::HashSet<_> = self.lookups.iter().collect();
        1.0 - distinct.len() as f64 / self.lookups.len() as f64
    }
}

fn check<T: PartialEq + std::fmt::Debug>(got: hub::Result<T>, want: &T) -> Result<(), String> {
    match got {
        Ok(got) if &got == want => Ok(()),
        Ok(got) => Err(format!("wrong answer: got {got:?}, want {want:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Everything the window sends and the oracle compares against, built
/// from the seed before the server starts.
pub struct Inputs {
    /// The repository model (the contributor's local repository on
    /// `contribute`).
    pub model: Model,
    /// `browse`: each connection's visitor requests.
    pub reads: [Vec<Read>; 2],
    /// `contribute`: connection A's commits, and the tip each one makes.
    pub edits: Vec<Edit>,
    /// See `edits`.
    pub tips: Vec<ObjectId>,
    /// `archive`: whole-log cursor walks on connection A.
    pub passes: usize,
    /// `archive`: `clone_repo` + `credited_authors` rounds on connection B.
    pub clones: usize,
}

impl Inputs {
    /// Builds a workload's inputs sized for `seconds` of traffic.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let model = gen::model(workload, seed);
        let s = seconds as usize;
        let mut inputs = Inputs {
            reads: [Vec::new(), Vec::new()],
            edits: Vec::new(),
            tips: Vec::new(),
            passes: 0,
            clones: 0,
            model,
        };
        match workload {
            Workload::Browse => {
                for conn in 0..2 {
                    inputs.reads[conn] =
                        gen::visits(workload, seed, &inputs.model, conn as u64, BROWSE_OPS * s);
                }
            }
            Workload::Contribute => {
                inputs.edits = gen::contributions(workload, seed, &inputs.model, PUSHES * s);
                let mut shadow = gen::model(workload, seed);
                inputs.tips = inputs.edits.iter().map(|e| shadow.apply(e)).collect();
            }
            Workload::Archive => {
                inputs.passes = (PASSES * s).div_ceil(10);
                inputs.clones = (CLONES * s).div_ceil(10);
            }
        }
        inputs
    }
}

impl Inputs {
    /// Digest of every generated input, printed with each run so runs
    /// can be seen to share (or not share) their inputs.
    pub fn digest(&self) -> u64 {
        let reads: Vec<Read> = self.reads.concat();
        gen::digest(&self.model, &reads, &self.edits)
    }
}

/// `browse` requests per connection per second of `--seconds`.
const BROWSE_OPS: usize = 1000;
/// `contribute` pushes per second of `--seconds`.
const PUSHES: usize = 40;
/// `archive` whole-log walks per ten seconds of `--seconds`.
const PASSES: usize = 35;
/// `archive` clone rounds per ten seconds of `--seconds`.
const CLONES: usize = 10;

/// A connection to the served hub, with the v3 framing probe done.
fn connect(addr: &str) -> Result<HubClient<TcpTransport>, String> {
    let client = HubClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.branches(REPO_ID).map_err(|e| e.to_string())?;
    Ok(client)
}

/// The `contribute` follower: an in-process hub replicating the served
/// one over its own connection.
pub struct Replica<T = TcpTransport> {
    /// The follower's hub.
    pub hub: Arc<Hub>,
    /// The engine whose `sync_once` the window calls.
    pub follower: Follower<T>,
}

impl Replica {
    /// Creates a follower of `addr` and bootstraps it.
    pub fn bootstrap(addr: &str) -> Result<Replica, String> {
        let transport = TcpTransport::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Replica::over(transport, addr)
    }
}

impl<T: Transport> Replica<T> {
    /// A follower pulling through `transport`, bootstrapped with a full
    /// bundle.
    pub fn over(transport: T, primary: &str) -> Result<Replica<T>, String> {
        let hub = Arc::new(Hub::new("https://follower.local"));
        let follower = Follower::new(Arc::clone(&hub), transport, primary, 3600);
        follower.sync_once().map_err(|e| e.to_string())?;
        Ok(Replica { hub, follower })
    }

    fn tip(&self) -> Result<ObjectId, String> {
        let page = self
            .hub
            .log_page(REPO_ID, BRANCH, None, Some(1))
            .map_err(|e| e.to_string())?;
        page.items
            .first()
            .map(|e| e.id)
            .ok_or_else(|| "follower has an empty log".into())
    }
}

/// Runs the workload's timed window against `addr`; returns what the
/// connections did and the window's length in seconds.
pub fn window(
    workload: Workload,
    addr: &str,
    inputs: &mut Inputs,
    replica: Option<&Replica>,
) -> Result<(Tally, f64), String> {
    let start = Barrier::new(3);
    let mut tally = Tally::default();
    let elapsed = std::thread::scope(|s| -> Result<f64, String> {
        let handles = match workload {
            Workload::Browse => {
                let model = &inputs.model;
                let [a, b] = &inputs.reads;
                let a_client = connect(addr)?;
                let b_client = connect(addr)?;
                let start = &start;
                [
                    s.spawn(move || visit(&a_client, model, a, start)),
                    s.spawn(move || visit(&b_client, model, b, start)),
                ]
            }
            Workload::Contribute => {
                let replica = replica.ok_or("contribute needs a follower")?;
                let client = connect(addr)?;
                let token = client.login(USER).map_err(|e| e.to_string())?;
                let done = Arc::new(AtomicBool::new(false));
                let (model, edits, tips) = (&mut inputs.model, &inputs.edits, &inputs.tips);
                let (start, flag) = (&start, Arc::clone(&done));
                [
                    s.spawn(move || {
                        let t = contribute(&client, &token, model, edits, start);
                        flag.store(true, Ordering::SeqCst);
                        t
                    }),
                    s.spawn(move || follow(replica, tips, &done, start)),
                ]
            }
            Workload::Archive => {
                let expected_log = inputs.model.expected_log();
                let credited = inputs.model.cited.credited_authors();
                let refs: Vec<(String, ObjectId)> = inputs
                    .model
                    .cited
                    .repo()
                    .branches()
                    .map(|(b, t)| (b.to_owned(), t))
                    .collect();
                let a_client = connect(addr)?;
                let b_client = connect(addr)?;
                let (passes, clones, start) = (inputs.passes, inputs.clones, &start);
                [
                    s.spawn(move || page_all(&a_client, &expected_log, passes, start)),
                    s.spawn(move || clone_loop(&b_client, &refs, &credited, clones, start)),
                ]
            }
        };
        start.wait();
        let began = Instant::now();
        for h in handles {
            tally.merge(h.join().map_err(|_| "a connection thread panicked")?);
        }
        Ok(began.elapsed().as_secs_f64())
    })?;
    Ok((tally, elapsed))
}

/// Times one request as its client sees it: from the call until the
/// decoded reply is back. Checking the reply comes after.
fn timed<R>(call: impl FnOnce() -> R) -> (R, f64) {
    let began = Instant::now();
    let reply = call();
    (reply, began.elapsed().as_secs_f64() * 1e6)
}

/// One `browse` connection: its visitor requests in order.
pub fn visit<T: Transport>(
    client: &HubClient<T>,
    model: &Model,
    reads: &[Read],
    start: &Barrier,
) -> Tally {
    let mut t = Tally::lane();
    let tip = model.tip();
    let first_page: Vec<LogEntry> = model
        .expected_log()
        .into_iter()
        .take(PAGE as usize)
        .collect();
    let branches: Vec<String> = model
        .cited
        .repo()
        .branches()
        .map(|(b, _)| b.to_owned())
        .collect();
    start.wait();
    let opened = Instant::now();
    for read in reads {
        let (class, us, outcome) = match read {
            Read::Cite(p) => {
                let (got, us) = timed(|| client.generate_citation(REPO_ID, BRANCH, p));
                (Class::Cite, us, check(got, &model.expected_citation(p)))
            }
            Read::Entry(p) => {
                let (got, us) = timed(|| client.citation_entry(REPO_ID, BRANCH, p));
                (Class::Entry, us, check(got, &model.expected_entry(p)))
            }
            Read::File(p) => {
                let (got, us) = timed(|| client.read_file(REPO_ID, BRANCH, p));
                let want = model.cited.repo().worktree().read(p).map(|b| b.to_vec());
                (Class::File, us, check(got, &want.unwrap_or_default()))
            }
            Read::LogFirst => {
                let (got, us) = timed(|| client.log_page(REPO_ID, BRANCH, None, Some(PAGE)));
                (
                    Class::LogFirst,
                    us,
                    check(got.map(|page| page.items), &first_page),
                )
            }
            Read::Branches => {
                let (got, us) = timed(|| client.branches(REPO_ID));
                (Class::Branches, us, check(got, &branches))
            }
        };
        t.record(class, us, outcome);
        t.done(opened);
        if let Read::Cite(p) | Read::Entry(p) = read {
            t.lookups.push((class, p.to_string(), tip));
        }
    }
    t
}

/// `contribute`'s connection A: per edit, commit locally, push, then
/// ask for the changed path's citation and citation entry.
pub fn contribute<T: Transport>(
    client: &HubClient<T>,
    token: &hub::Token,
    model: &mut Model,
    edits: &[Edit],
    start: &Barrier,
) -> Tally {
    let mut t = Tally::lane();
    start.wait();
    let opened = Instant::now();
    for edit in edits {
        let tip = model.apply(edit);
        let local = model.cited.repo();
        let (pushed, us) = timed(|| client.push(token, REPO_ID, BRANCH, local, BRANCH, false));
        t.record(Class::Push, us, check(pushed, &tip));
        t.done(opened);
        let path: &RepoPath = &edit.path;
        let (cite, us) = timed(|| client.generate_citation(REPO_ID, BRANCH, path));
        t.record(Class::Cite, us, check(cite, &model.expected_citation(path)));
        t.done(opened);
        let (entry, us) = timed(|| client.citation_entry(REPO_ID, BRANCH, path));
        t.record(Class::Entry, us, check(entry, &model.expected_entry(path)));
        t.done(opened);
        t.lookups.push((Class::Cite, path.to_string(), tip));
        t.lookups.push((Class::Entry, path.to_string(), tip));
    }
    t
}

/// Pause between follower rounds, as the follower engine's own loop
/// pauses between rounds (its `with_interval`), so an idle round does
/// not spin on the primary.
const FOLLOW_PAUSE: std::time::Duration = std::time::Duration::from_millis(5);

/// The follower loop: `sync_once` rounds until the contributor is
/// done, then once more; after every round the follower's tip must be a
/// tip the contributor pushed, never older than the last one seen, and
/// at the end it must be the contributor's last tip.
pub fn follow<T: Transport>(
    replica: &Replica<T>,
    tips: &[ObjectId],
    done: &AtomicBool,
    start: &Barrier,
) -> Tally {
    let mut t = Tally::default();
    let order: HashMap<ObjectId, usize> = tips
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i + 1))
        .collect();
    let mut seen = 0usize;
    start.wait();
    loop {
        let last = done.load(Ordering::SeqCst);
        let (round, us) = timed(|| replica.follower.sync_once());
        let outcome = round.map_err(|e| e.to_string()).and_then(|report| {
            t.full_bundles += report.full_bundles as u64;
            t.delta_bundles += report.delta_bundles as u64;
            if report.full_bundles + report.delta_bundles > 0 {
                t.samples.entry(Class::Catchup).or_default().push(us);
            }
            let tip = replica.tip()?;
            match order.get(&tip) {
                Some(&i) if i >= seen => {
                    seen = i;
                    Ok(())
                }
                Some(&i) => Err(format!("follower went back from tip #{seen} to #{i}")),
                None if seen == 0 => Ok(()), // still at the seeded tip
                None => Err(format!("follower tip {tip} was never pushed")),
            }
        });
        t.attempted += 1;
        if let Err(e) = outcome {
            t.failed += 1;
            if t.errors.len() < 5 {
                t.errors.push(format!("sync_once: {e}"));
            }
        }
        if last {
            break;
        }
        std::thread::sleep(FOLLOW_PAUSE);
    }
    if seen != tips.len() {
        t.attempted += 1;
        t.failed += 1;
        t.errors
            .push(format!("follower ended at tip #{seen} of {}", tips.len()));
    }
    t
}

/// `archive`'s connection A: `passes` whole-log walks, page by page,
/// each checked against the model's log.
pub fn page_all<T: Transport>(
    client: &HubClient<T>,
    expected: &[LogEntry],
    passes: usize,
    start: &Barrier,
) -> Tally {
    let mut t = Tally::lane();
    start.wait();
    let opened = Instant::now();
    for _ in 0..passes {
        let mut cursor: Option<String> = None;
        let mut offset = 0usize;
        loop {
            let (page, us) =
                timed(|| client.log_page(REPO_ID, BRANCH, cursor.as_deref(), Some(PAGE)));
            let mut next = None;
            let outcome = page.map_err(|e| e.to_string()).and_then(|page| {
                let want = &expected
                    [offset.min(expected.len())..(offset + PAGE as usize).min(expected.len())];
                offset += page.items.len();
                next = page.next;
                if page.items != want {
                    return Err(format!(
                        "page at offset {} differs from the model's log",
                        offset - page.items.len()
                    ));
                }
                if next.is_none() && offset != expected.len() {
                    return Err(format!(
                        "log ended after {offset} of {} commits",
                        expected.len()
                    ));
                }
                Ok(())
            });
            let failed = outcome.is_err();
            t.record(Class::Page, us, outcome);
            t.done(opened);
            match next {
                Some(c) if !failed => cursor = Some(c),
                _ => break,
            }
        }
    }
    t
}

/// `credited_authors` calls after each clone on `archive`.
const CREDITS_PER_CLONE: usize = 4;

/// `archive`'s connection B: `rounds` of one `clone_repo` (its tips
/// checked) and [`CREDITS_PER_CLONE`] `credited_authors` (checked
/// against the model).
pub fn clone_loop<T: Transport>(
    client: &HubClient<T>,
    refs: &[(String, ObjectId)],
    credited: &[(String, Vec<RepoPath>)],
    rounds: usize,
    start: &Barrier,
) -> Tally {
    let mut t = Tally::lane();
    let tip = refs
        .iter()
        .find(|(b, _)| b == BRANCH)
        .map(|(_, id)| *id)
        .unwrap_or(ObjectId([0; 20]));
    start.wait();
    let opened = Instant::now();
    for _ in 0..rounds {
        let (cloned, us) = timed(|| client.clone_repo(REPO_ID));
        let cloned = cloned.map(|repo| {
            repo.branches()
                .map(|(b, t)| (b.to_owned(), t))
                .collect::<Vec<_>>()
        });
        t.record(Class::Clone, us, check(cloned, &refs.to_vec()));
        t.done(opened);
        for _ in 0..CREDITS_PER_CLONE {
            let (got, us) = timed(|| client.credited_authors(REPO_ID, BRANCH));
            t.record(Class::Credited, us, check(got, &credited.to_vec()));
            t.done(opened);
            t.lookups.push((Class::Credited, String::new(), tip));
        }
    }
    t
}
