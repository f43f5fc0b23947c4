//! The traced run: the workload's operation sequence replayed in
//! process through the hub's public stage functions, so the socket
//! latency can be split by layer.
//!
//! Each request crosses the same stages a v3 socket round trip does,
//! called one by one from here:
//!
//! 1. `ApiRequest::encode_ext` (`api.req_encode`)
//! 2. `frame::encode_message`, then `frame::read_message`
//!    (`frame.encode`, `frame.decode`)
//! 3. `ApiRequest::parse_ext` (`api.req_parse`)
//! 4. `Hub::dispatch` on a `Hub::with_pack_storage` hub seeded with the
//!    same bundle (`dispatch.<method>`)
//! 5. the response side in reverse (`api.resp_encode`, `frame.encode`,
//!    `frame.decode`, `api.resp_parse`)
//!
//! The program's route arms cannot be instrumented from outside, so the
//! `gitlite`/`citekit` calls an arm makes are *mirrored*: right after
//! dispatch returns, the same calls run on a `CachedStore<PackStore>`
//! repository built from the same bundle, as spans whose explicit
//! parent is the dispatch span. A dispatch span's self time is its
//! duration minus its mirrored children's. The mirrors run outside the
//! dispatch interval and are left out of a request's staged sum.
//!
//! A `telemetry::Tracer` with a `RingSink` keeps every span in memory;
//! they are read back when the replay ends. The same replay also runs
//! before and after with a tracer that has no sink; the tracing
//! overhead is the median, over client calls, of a traced call's time
//! minus the mean of the same call untraced.

use crate::drive::{Class, Inputs, Tally, REPO_ID};
use crate::gen::{self, Model, Read, Workload, BRANCH, PAGE, REPO_NAME, USER};
use crate::{quantile, Counters, Metrics};
use citekit::{citation_path, CitedRepo};
use gitlite::{CachedStore, PackStore, Repository};
use hub::transport::frame;
use hub::{ApiRequest, ApiResponse, Follower, Hub, HubClient, RepoBundle, Transport};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;
use telemetry::{EventKind, RingSink, TraceSink, Tracer};

/// Replay length per workload: a prefix of connection A's sequence.
const BROWSE_REPLAY: usize = 1500;
const CONTRIBUTE_REPLAY: usize = 60;
const ARCHIVE_PASSES: usize = 1;
const ARCHIVE_CLONES: usize = 2;
/// Calls per method in the closing probe, which gives every per-layer
/// metric a sample on every workload.
const PROBE: usize = 2;

/// Wire methods with a `dispatch.<method>_us` metric.
const METHODS: [&str; 12] = [
    "generate_citation",
    "citation_entry",
    "read_file",
    "log_page",
    "branches",
    "negotiate",
    "push",
    "clone_repo",
    "credited_authors",
    "repl_status",
    "repl_fetch",
    "audit_log_page",
];

/// The repository the route arms' `gitlite`/`citekit` calls are
/// mirrored on.
struct Mirror {
    repo: RwLock<Repository>,
}

impl Mirror {
    fn new(bundle: &RepoBundle, dir: &Path) -> Result<Mirror, String> {
        let store = PackStore::open(dir).map_err(|e| e.to_string())?;
        let repo = bundle
            .into_repository(Box::new(CachedStore::new(store)))
            .map_err(|e| e.to_string())?;
        Ok(Mirror {
            repo: RwLock::new(repo),
        })
    }

    /// Re-runs the library calls `request`'s route arm makes, as
    /// children of the dispatch span `parent`.
    fn replay(&self, tracer: &Tracer, parent: u64, request: &ApiRequest) {
        let repo = self.repo.read().expect("mirror lock");
        let Ok(tip) = repo.branch_tip(BRANCH) else {
            return;
        };
        let span = |name: &'static str| tracer.span(name).parent(parent).enter();
        match request {
            ApiRequest::GenerateCitation { path, .. } => {
                let work = {
                    let _s = span("gitlite.repo_clone");
                    repo.clone()
                };
                let cited = {
                    let _s = span("citekit.open");
                    CitedRepo::open(work).expect("mirror is cited")
                };
                let _s = span("citekit.cite_at");
                black_box(cited.cite_at(tip, path).ok());
            }
            ApiRequest::CitationEntry { .. } => {
                let text = {
                    let _s = span("gitlite.file_at");
                    repo.file_at(tip, &citation_path())
                        .expect("mirror has citation.cite")
                };
                let _s = span("citekit.file_parse");
                black_box(citekit::file::parse(&String::from_utf8_lossy(&text)).ok());
            }
            ApiRequest::ReadFile { path, .. } => {
                let _s = span("gitlite.file_at");
                black_box(repo.file_at(tip, path).ok());
            }
            ApiRequest::LogPage { .. } => {
                let _s = span("gitlite.log");
                black_box(repo.log(tip).ok());
            }
            ApiRequest::CreditedAuthors { .. } => {
                let mut work = {
                    let _s = span("gitlite.repo_clone");
                    repo.clone()
                };
                {
                    let _s = span("gitlite.checkout");
                    work.checkout_branch(BRANCH).expect("mirror has main");
                }
                let cited = {
                    let _s = span("citekit.open");
                    CitedRepo::open(work).expect("mirror is cited")
                };
                let _s = span("citekit.credited");
                black_box(cited.credited_authors());
            }
            _ => {}
        }
    }

    /// Brings the mirror up to `local`'s tip after a push.
    fn follow(&self, local: &Repository) {
        let mut repo = self.repo.write().expect("mirror lock");
        gitlite::push(local, &mut repo, BRANCH, BRANCH, false).expect("mirror fast-forwards");
    }
}

/// A [`Transport`] that runs each round trip through the stage
/// functions one by one, each in its own span.
struct Staged<'a> {
    hub: &'a Hub,
    tracer: &'a Tracer,
    mirror: &'a Mirror,
    responses: Cell<u64>,
    response_bytes: Cell<u64>,
    errors: Cell<u64>,
}

impl Staged<'_> {
    fn stage<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _s = self.tracer.span(name).enter();
        f()
    }
}

impl Transport for &Staged<'_> {
    fn send(&self, request: &str) -> String {
        match ApiRequest::parse(request) {
            Ok(request) => self.exchange(&request).encode(),
            Err(e) => ApiResponse::Error(e).encode(),
        }
    }

    fn exchange(&self, request: &ApiRequest) -> ApiResponse {
        let method = request.method();
        let _op = self.tracer.span(format!("op.{method}")).enter();
        let (text, objects) = self.stage("api.req_encode", || request.encode_ext());
        let wire = self.stage("frame.encode", || frame::encode_message(&text, &objects));
        let (text, objects) = self.stage("frame.decode", || {
            frame::read_message(&mut &wire[..]).expect("a frame this process encoded")
        });
        let parsed = self.stage("api.req_parse", || ApiRequest::parse_ext(&text, objects));
        let Ok(parsed) = parsed else {
            self.errors.set(self.errors.get() + 1);
            return ApiResponse::Error(parsed.unwrap_err());
        };
        let dispatch = self.tracer.span(format!("dispatch.{method}")).enter();
        let parent = dispatch.id();
        let response = self.hub.dispatch(parsed);
        drop(dispatch);
        self.mirror.replay(self.tracer, parent, request);
        let (text, objects) = self.stage("api.resp_encode", || response.encode_ext());
        self.responses.set(self.responses.get() + 1);
        let bytes = text.len() + objects.iter().map(|(_, b)| 24 + b.len()).sum::<usize>();
        self.response_bytes
            .set(self.response_bytes.get() + bytes as u64);
        let wire = self.stage("frame.encode", || frame::encode_message(&text, &objects));
        let (text, objects) = self.stage("frame.decode", || {
            frame::read_message(&mut &wire[..]).expect("a frame this process encoded")
        });
        let response = self
            .stage("api.resp_parse", || ApiResponse::parse_ext(&text, objects))
            .unwrap_or_else(ApiResponse::Error);
        if let ApiResponse::Error(e) = &response {
            eprintln!("hubbench: staged {method} failed: {}", e.message);
            self.errors.set(self.errors.get() + 1);
        }
        response
    }
}

/// One replay: a fresh pack-backed hub and mirror seeded with the
/// workload's repository, the replayed sequence, and the probe.
struct Pass {
    /// Wall time of each client call, in replay order (probe included).
    call_us: Vec<f64>,
    responses: u64,
    response_bytes: u64,
}

fn pass(
    w: Workload,
    seed: u64,
    inputs: &Inputs,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Pass, String> {
    let mut model = gen::model(w, seed);
    let bundle = RepoBundle::from_repository(model.cited.repo()).map_err(|e| e.to_string())?;
    let hub =
        Hub::with_pack_storage("https://hub.local", dir.join("hub")).map_err(|e| e.to_string())?;
    let err = |e: hub::HubError| e.to_string();
    hub.register_user(USER, "Bench User").map_err(err)?;
    let token = hub.login(USER).map_err(err)?;
    HubClient::in_process(&hub)
        .import_repo(&token, REPO_NAME, model.cited.repo())
        .map_err(err)?;
    let mirror = Mirror::new(&bundle, &dir.join("mirror"))?;
    let staged = Staged {
        hub: &hub,
        tracer,
        mirror: &mirror,
        responses: Cell::new(0),
        response_bytes: Cell::new(0),
        errors: Cell::new(0),
    };
    let client = HubClient::new(&staged);
    let follower_hub = Arc::new(Hub::new("https://follower.local"));
    let follower = Follower::new(Arc::clone(&follower_hub), &staged, "in-process", 3600);
    let sync = || {
        let _s = tracer.span("repl.sync").enter();
        follower.sync_once().map_err(err)
    };
    let call_us = RefCell::new(Vec::new());
    let call = |class: Class, f: &mut dyn FnMut() -> Result<(), String>| {
        let began = Instant::now();
        let span = tracer.span(call_span(class)).enter();
        let outcome = f();
        drop(span);
        call_us
            .borrow_mut()
            .push(began.elapsed().as_secs_f64() * 1e6);
        outcome
    };
    let mut pushed = 0usize;
    let push = |model: &mut Model, edit: &gen::Edit| -> Result<(), String> {
        model.apply(edit);
        call(Class::Push, &mut || {
            client
                .push(&token, REPO_ID, BRANCH, model.cited.repo(), BRANCH, false)
                .map(drop)
                .map_err(err)
        })?;
        mirror.follow(model.cited.repo());
        Ok(())
    };
    match w {
        Workload::Browse => {
            for read in inputs.reads[0].iter().take(BROWSE_REPLAY) {
                replay_read(&client, read, &call)?;
            }
        }
        Workload::Contribute => {
            sync()?;
            for edit in inputs.edits.iter().take(CONTRIBUTE_REPLAY) {
                push(&mut model, edit)?;
                replay_read(&client, &Read::Cite(edit.path.clone()), &call)?;
                replay_read(&client, &Read::Entry(edit.path.clone()), &call)?;
                sync()?;
                pushed += 1;
            }
        }
        Workload::Archive => {
            for _ in 0..ARCHIVE_PASSES {
                let mut cursor: Option<String> = None;
                loop {
                    let mut next = None;
                    call(Class::Page, &mut || {
                        let page = client
                            .log_page(REPO_ID, BRANCH, cursor.as_deref(), Some(PAGE))
                            .map_err(err)?;
                        next = page.next;
                        Ok(())
                    })?;
                    match next {
                        Some(c) => cursor = Some(c),
                        None => break,
                    }
                }
            }
            for _ in 0..ARCHIVE_CLONES {
                clone_and_credit(&client, &call)?;
            }
        }
    }
    // The probe: every method of every mix, on this workload's
    // repository, so each per-layer metric has samples here too.
    let probe_path = model.paths[0].clone();
    let edits = gen::contributions(w, seed, &model, pushed + PROBE);
    if w != Workload::Contribute {
        sync()?;
    }
    for edit in &edits[pushed..] {
        for read in [
            Read::Cite(probe_path.clone()),
            Read::Entry(probe_path.clone()),
            Read::File(probe_path.clone()),
            Read::LogFirst,
            Read::Branches,
        ] {
            replay_read(&client, &read, &call)?;
        }
        clone_and_credit(&client, &call)?;
        push(&mut model, edit)?;
        sync()?;
    }
    if staged.errors.get() > 0 {
        return Err(format!("{} staged requests failed", staged.errors.get()));
    }
    Ok(Pass {
        call_us: call_us.into_inner(),
        responses: staged.responses.get(),
        response_bytes: staged.response_bytes.get(),
    })
}

/// Name of the span around one replayed client call of `class`; a top
/// level span, so the spans of one request share it as their root.
fn call_span(class: Class) -> &'static str {
    match class {
        Class::Cite => "call.cite",
        Class::Entry => "call.entry",
        Class::File => "call.file",
        Class::LogFirst => "call.log_first",
        Class::Branches => "call.branches",
        Class::Push => "call.push",
        Class::Catchup => "call.catchup",
        Class::Page => "call.page",
        Class::Clone => "call.clone",
        Class::Credited => "call.credited",
    }
}

/// Runs one client call inside its `call.*` span.
type Call<'c> = dyn Fn(Class, &mut dyn FnMut() -> Result<(), String>) -> Result<(), String> + 'c;

/// One visitor request, answer discarded (the socket window checks them).
fn replay_read<T: Transport>(
    client: &HubClient<T>,
    read: &Read,
    call: &Call,
) -> Result<(), String> {
    let err = |e: hub::HubError| e.to_string();
    match read {
        Read::Cite(p) => call(Class::Cite, &mut || {
            client
                .generate_citation(REPO_ID, BRANCH, p)
                .map(drop)
                .map_err(err)
        }),
        Read::Entry(p) => call(Class::Entry, &mut || {
            client
                .citation_entry(REPO_ID, BRANCH, p)
                .map(drop)
                .map_err(err)
        }),
        Read::File(p) => call(Class::File, &mut || {
            client.read_file(REPO_ID, BRANCH, p).map(drop).map_err(err)
        }),
        Read::LogFirst => call(Class::LogFirst, &mut || {
            client
                .log_page(REPO_ID, BRANCH, None, Some(PAGE))
                .map(drop)
                .map_err(err)
        }),
        Read::Branches => call(Class::Branches, &mut || {
            client.branches(REPO_ID).map(drop).map_err(err)
        }),
    }
}

/// One `clone_repo` and one `credited_authors`.
fn clone_and_credit<T: Transport>(client: &HubClient<T>, call: &Call) -> Result<(), String> {
    let err = |e: hub::HubError| e.to_string();
    call(Class::Clone, &mut || {
        client.clone_repo(REPO_ID).map(drop).map_err(err)
    })?;
    call(Class::Credited, &mut || {
        client
            .credited_authors(REPO_ID, BRANCH)
            .map(drop)
            .map_err(err)
    })
}

/// A finished span.
struct Span {
    name: String,
    parent: Option<u64>,
    us: f64,
}

/// Per-layer metrics of the traced run: the staged replay (traced, and
/// untraced before and after it for the tracing overhead) plus the
/// socket window's counters.
pub fn layers(
    w: Workload,
    seed: u64,
    inputs: &Inputs,
    dir: &Path,
    tally: &Tally,
    before: &Counters,
    after: &Counters,
) -> Result<Metrics, String> {
    // Untraced, traced, untraced: the two untraced passes bracket the
    // traced one, so warm-up and drift do not pass for tracing cost.
    // Each pass's stores are removed once it ends, so no more than one
    // pass's copy of the repository is on the work file system at a time.
    let run_pass = |name: &str, tracer: &Tracer| {
        let pass_dir = dir.join(name);
        let pass = pass(w, seed, inputs, &pass_dir, tracer);
        let _ = std::fs::remove_dir_all(&pass_dir);
        pass
    };
    let quiet_a = run_pass("untraced-a", &Tracer::new())?;
    let tracer = Tracer::new();
    let ring = Arc::new(RingSink::new(1 << 22));
    tracer.add_sink(Arc::clone(&ring) as Arc<dyn TraceSink>);
    let traced = run_pass("traced", &tracer)?;
    let quiet_b = run_pass("untraced-b", &Tracer::new())?;
    // Paired by call: each traced call against the same call in the two
    // untraced passes around it. The median difference is robust to a
    // stall that hits one pass.
    let overhead: Vec<f64> = traced
        .call_us
        .iter()
        .zip(&quiet_a.call_us)
        .zip(&quiet_b.call_us)
        .map(|((t, a), b)| t - (a + b) / 2.0)
        .collect();

    let spans: HashMap<u64, Span> = ring
        .take()
        .into_iter()
        .filter(|e| e.kind == EventKind::Exit)
        .map(|e| {
            let span = Span {
                name: e.name,
                parent: e.parent_id,
                us: e.elapsed_ns.unwrap_or(0) as f64 / 1e3,
            };
            (e.span_id, span)
        })
        .collect();
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut child_us: HashMap<u64, f64> = HashMap::new();
    for span in spans.values() {
        by_name.entry(span.name.as_str()).or_default().push(span.us);
        if let Some(p) = span.parent {
            *child_us.entry(p).or_default() += span.us;
        }
    }
    // A client call's staged time: its span minus the mirrored library
    // calls beneath it, which the socket round trip does not contain.
    let mut mirrored: HashMap<u64, f64> = HashMap::new();
    for span in spans.values() {
        if !(span.name.starts_with("gitlite.") || span.name.starts_with("citekit.")) {
            continue;
        }
        let mut at = span.parent;
        while let Some(id) = at {
            let Some(up) = spans.get(&id) else { break };
            if up.parent.is_none() {
                *mirrored.entry(id).or_default() += span.us;
            }
            at = up.parent;
        }
    }
    let main = crate::main_classes(w);
    let main_names: Vec<&str> = main.iter().map(|&c| call_span(c)).collect();
    let staged_main: Vec<f64> = spans
        .iter()
        .filter(|(_, s)| s.parent.is_none() && main_names.contains(&s.name.as_str()))
        .map(|(id, s)| s.us - mirrored.get(id).copied().unwrap_or(0.0))
        .collect();
    let socket_main: Vec<f64> = main
        .iter()
        .flat_map(|c| tally.samples.get(c).into_iter().flatten().copied())
        .collect();
    // Self time: a span minus its direct children.
    let self_us = |prefix: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|(_, s)| s.name.starts_with(prefix))
            .map(|(id, s)| s.us - child_us.get(id).copied().unwrap_or(0.0))
            .collect()
    };
    let median = |name: &str| quantile(by_name.get(name).map_or(&[][..], |v| v), 0.5);

    let ops = tally.ops().max(1) as f64;
    let store = |s: &Counters| s.metrics.store.clone().unwrap_or_default();
    let (s0, s1) = (store(before), store(after));
    let t = |c: &Counters| c.metrics.transport.clone().unwrap_or_default();
    let (t0, t1) = (t(before), t(after));
    let per_op = |a: u64, b: u64| b.saturating_sub(a) as f64 / ops;

    let mut m = Metrics::default();
    let socket_p50 = quantile(&socket_main, 0.5);
    let staged_p50 = quantile(&staged_main, 0.5);
    m.put("transport.residual_us", socket_p50 - staged_p50, "us");
    m.put("staged.main_p50_us", staged_p50, "us");
    m.put("frame.encode_us", median("frame.encode"), "us");
    m.put("frame.decode_us", median("frame.decode"), "us");
    let raw = t1.obj_raw_bytes.saturating_sub(t0.obj_raw_bytes);
    let packed = t1.obj_deflate_bytes.saturating_sub(t0.obj_deflate_bytes);
    m.put(
        "transport.deflate_ratio",
        if packed > 0 {
            raw as f64 / packed as f64
        } else {
            1.0
        },
        "ratio",
    );
    m.put("api.req_encode_us", median("api.req_encode"), "us");
    m.put("api.req_parse_us", median("api.req_parse"), "us");
    m.put("api.resp_encode_us", median("api.resp_encode"), "us");
    m.put("api.resp_parse_us", median("api.resp_parse"), "us");
    m.put(
        "api.resp_bytes",
        traced.response_bytes as f64 / traced.responses.max(1) as f64,
        "B",
    );
    for method in METHODS {
        m.put(
            format!("dispatch.{method}_us"),
            median(&format!("dispatch.{method}")),
            "us",
        );
    }
    m.put("server.self_us", quantile(&self_us("dispatch."), 0.5), "us");
    m.put(
        "server.audit_events_per_op",
        per_op(before.audit, after.audit),
        "count/op",
    );
    m.put("citekit.open_us", median("citekit.open"), "us");
    m.put("citekit.file_parse_us", median("citekit.file_parse"), "us");
    m.put("citekit.cite_at_us", median("citekit.cite_at"), "us");
    m.put("citekit.credited_us", median("citekit.credited"), "us");
    m.put("gitlite.repo_clone_us", median("gitlite.repo_clone"), "us");
    m.put("gitlite.checkout_us", median("gitlite.checkout"), "us");
    m.put("gitlite.log_us", median("gitlite.log"), "us");
    m.put("gitlite.file_at_us", median("gitlite.file_at"), "us");
    let (hits, misses) = (
        s1.cache_hits.saturating_sub(s0.cache_hits),
        s1.cache_misses.saturating_sub(s0.cache_misses),
    );
    m.put(
        "gitlite.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.put(
        "gitlite.pack_reads",
        per_op(s0.pack_reads, s1.pack_reads),
        "count/op",
    );
    m.put(
        "gitlite.loose_reads",
        per_op(s0.loose_reads, s1.loose_reads),
        "count/op",
    );
    m.put(
        "gitlite.graph_walks",
        per_op(s0.graph_walks, s1.graph_walks),
        "count/op",
    );
    m.put(
        "gitlite.fallback_walks",
        per_op(s0.fallback_walks, s1.fallback_walks),
        "count/op",
    );
    m.put("gitlite.objects", after.store.objects as f64, "count");
    m.put(
        "gitlite.graph_commits",
        after.store.graph_commits.unwrap_or(0) as f64,
        "count",
    );
    m.put("client.negotiate_us", median("op.negotiate"), "us");
    m.put(
        "client.bundle_build_us",
        quantile(&self_us("call.push"), 0.5),
        "us",
    );
    m.put("repl.status_us", median("op.repl_status"), "us");
    m.put("repl.fetch_us", median("op.repl_fetch"), "us");
    m.put("repl.apply_us", quantile(&self_us("repl.sync"), 0.5), "us");
    m.put("repl.delta_bundles", tally.delta_bundles as f64, "count");
    m.put("repl.full_bundles", tally.full_bundles as f64, "count");
    m.put("cite.repeat_share", tally.repeat_share(), "ratio");
    m.put("trace.overhead_us", quantile(&overhead, 0.5), "us");
    Ok(m)
}
