//! Push negotiation end to end: the have/want exchange, the delta
//! bundle's object count (the acceptance bar — an incremental push of N
//! new commits ships O(N) objects, not the branch closure), pagination
//! semantics, and the failure modes (unanchored deltas, delta imports).

use gitlite::{path, MemStore, Object, ObjectId, ObjectStore, Signature};
use hub::api::RepoBundle;
use hub::{Hub, HubClient, HubError};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn sig(t: i64) -> Signature {
    Signature::new("Ann", "ann@x", t)
}

/// Hub + signed-in owner + hosted repo seeded with `commits` commits on
/// main, and a local clone at the same tip.
fn seeded(commits: usize) -> (Hub, hub::Token, String, gitlite::Repository) {
    seeded_in(Hub::new("https://h"), commits)
}

/// [`seeded`] on a caller-built hub.
fn seeded_in(hub: Hub, commits: usize) -> (Hub, hub::Token, String, gitlite::Repository) {
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    let repo_id = hub.create_repo(&token, "p").unwrap();
    let mut local = hub.clone_repo(&repo_id).unwrap();
    for i in 0..commits {
        local
            .worktree_mut()
            .write(&path("churn.txt"), format!("rev {i}\n").into_bytes())
            .unwrap();
        local.commit(sig(100 + i as i64), format!("c{i}")).unwrap();
    }
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    (hub, token, repo_id, local)
}

fn advance(local: &mut gitlite::Repository, n: usize, from: i64) {
    for i in 0..n {
        local
            .worktree_mut()
            .write(&path("churn.txt"), format!("new {i}\n").into_bytes())
            .unwrap();
        local.commit(sig(from + i as i64), format!("n{i}")).unwrap();
    }
}

#[test]
fn negotiate_partitions_haves_by_reachability() {
    let (hub, _, repo_id, mut local) = seeded(5);
    let known = local.branch_tip("main").unwrap();
    advance(&mut local, 1, 1000);
    let unknown = local.branch_tip("main").unwrap();
    let client = HubClient::in_process(&hub);
    let reply = client.negotiate(&repo_id, &[known, unknown]).unwrap();
    assert_eq!(reply.common, vec![known]);
    assert_eq!(reply.missing, vec![unknown]);
}

/// The server keeps its reachable set across requests; a force push
/// that drops commits must drop them from `common` too, and a later
/// fast-forward must add the new ones.
#[test]
fn negotiate_follows_the_refs_through_force_pushes() {
    let (hub, token, repo_id, mut local) = seeded(5);
    let client = HubClient::in_process(&hub);
    let base = local.clone();
    let old_tip = local.branch_tip("main").unwrap();
    advance(&mut local, 2, 1_000);
    let new_tip = local.branch_tip("main").unwrap();
    let ask = |haves: &[ObjectId]| client.negotiate(&repo_id, haves).unwrap();
    assert_eq!(ask(&[old_tip, new_tip]).common, vec![old_tip]);
    client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    assert_eq!(ask(&[old_tip, new_tip]).common, vec![old_tip, new_tip]);
    client
        .push(&token, &repo_id, "main", &base, "main", true)
        .unwrap();
    assert_eq!(ask(&[old_tip, new_tip]).missing, vec![new_tip]);
    client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    assert_eq!(ask(&[new_tip]).common, vec![new_tip]);
}

/// The acceptance bar: pushing N new commits onto a deep shared history
/// ships O(N) objects — commit + tree + changed blob each — while the
/// full bundle ships the entire closure.
#[test]
fn incremental_push_ships_o_of_n_objects() {
    const BASE: usize = 120;
    const NEW: usize = 10;
    let (hub, token, repo_id, mut local) = seeded(BASE);
    advance(&mut local, NEW, 10_000);
    let tip = local.branch_tip("main").unwrap();

    let full = RepoBundle::from_branch(&local, "main").unwrap();
    let client = HubClient::in_process(&hub);
    let reply = client
        .negotiate(&repo_id, &local.first_parent_chain(tip).unwrap())
        .unwrap();
    let common: HashSet<ObjectId> = reply.common.into_iter().collect();
    let delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();

    // Each new commit lands one commit, one root tree and one blob.
    assert!(delta.is_delta());
    assert_eq!(delta.objects.len(), NEW * 3, "delta is not O(N)");
    // The full closure carries the whole history.
    assert!(
        full.objects.len() > BASE,
        "full bundle unexpectedly small: {}",
        full.objects.len()
    );
    assert!(delta.objects.len() * 10 < full.objects.len());

    // And the delta actually lands: the negotiated client push succeeds
    // and the hosted branch serves the new tip.
    let pushed = client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    assert_eq!(pushed, tip);
    assert_eq!(hub.log(&repo_id, "main").unwrap().len(), BASE + NEW + 1);
}

#[test]
fn negotiated_push_round_trips_content() {
    let (hub, token, repo_id, mut local) = seeded(20);
    local
        .worktree_mut()
        .write(&path("src/new.rs"), &b"pub fn f() {}\n"[..])
        .unwrap();
    advance(&mut local, 3, 5_000);
    let client = HubClient::in_process(&hub);
    client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    assert_eq!(
        hub.read_file(&repo_id, "main", &path("src/new.rs"))
            .unwrap(),
        b"pub fn f() {}\n"
    );
}

#[test]
fn sync_skips_the_push_when_server_is_current() {
    let (hub, token, repo_id, mut local) = seeded(5);
    let client = HubClient::in_process(&hub);
    let tip = local.branch_tip("main").unwrap();
    let before = hub.audit_log().len();
    // Server already has the tip: no push request is issued at all.
    assert_eq!(
        client
            .sync(&token, &repo_id, "main", &local, "main")
            .unwrap(),
        tip
    );
    let after = hub.audit_log();
    assert!(
        !after[before..].iter().any(|e| e.action == "push"),
        "sync pushed despite an up-to-date server"
    );
    // Behind: sync pushes the delta.
    advance(&mut local, 2, 2_000);
    let new_tip = local.branch_tip("main").unwrap();
    assert_eq!(
        client
            .sync(&token, &repo_id, "main", &local, "main")
            .unwrap(),
        new_tip
    );
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, new_tip);
}

/// The tip being reachable from *some* branch is not "up to date": sync
/// must still advance the branch it was asked about.
#[test]
fn sync_pushes_when_tip_sits_on_another_branch() {
    let (hub, token, repo_id, mut local) = seeded(5);
    advance(&mut local, 2, 2_000);
    let tip = local.branch_tip("main").unwrap();
    let client = HubClient::in_process(&hub);
    // Land the tip on a side branch only: hosted "dev" has it, "main" lags.
    client
        .push(&token, &repo_id, "dev", &local, "main", false)
        .unwrap();
    assert_ne!(hub.log(&repo_id, "main").unwrap()[0].id, tip);
    // sync targets main — reachability via dev must not fool it.
    assert_eq!(
        client
            .sync(&token, &repo_id, "main", &local, "main")
            .unwrap(),
        tip
    );
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, tip);
    // And a branch the server has never seen is pushed into existence.
    assert_eq!(
        client
            .sync(&token, &repo_id, "feature", &local, "main")
            .unwrap(),
        tip
    );
    assert_eq!(hub.log(&repo_id, "feature").unwrap()[0].id, tip);
}

/// On pack-backed repositories whose commit-graph covers the tips (after
/// a maintenance sweep), negotiate answers from the graph — same
/// partition as the decode path.
#[test]
fn negotiate_answers_from_the_commit_graph_after_maintenance() {
    let dir = std::env::temp_dir().join(format!("gitcite-negotiate-graph-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hub = Hub::with_pack_storage("https://h", &dir).unwrap();
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    let repo_id = hub.create_repo(&token, "p").unwrap();
    let mut local = hub.clone_repo(&repo_id).unwrap();
    for i in 0..25 {
        local
            .worktree_mut()
            .write(&path("churn.txt"), format!("rev {i}\n").into_bytes())
            .unwrap();
        local.commit(sig(100 + i), format!("c{i}")).unwrap();
    }
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    // Maintenance packs the store and writes the commit-graph.
    hub.maintenance().unwrap();
    assert!(hub
        .store_stats(&repo_id)
        .unwrap()
        .graph_commits
        .is_some_and(|n| n >= 25));

    let shared_tip = local.branch_tip("main").unwrap();
    advance(&mut local, 2, 2_000);
    let chain = local
        .first_parent_chain(local.branch_tip("main").unwrap())
        .unwrap();
    let client = HubClient::in_process(&hub);
    let reply = client.negotiate(&repo_id, &chain).unwrap();
    assert_eq!(reply.missing.len(), 2, "the two new commits are missing");
    assert!(reply.common.contains(&shared_tip));
    assert_eq!(reply.common.len(), chain.len() - 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unanchored_delta_is_refused_before_touching_the_branch() {
    let (hub, token, repo_id, mut local) = seeded(5);
    let old_tip = hub.log(&repo_id, "main").unwrap()[0].id;
    advance(&mut local, 2, 2_000);
    // Fabricate a delta claiming a basis the server has never seen.
    let bogus = ObjectId::hash_bytes(b"never pushed");
    let mut common = HashSet::new();
    common.insert(local.branch_tip("main").unwrap());
    let mut delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();
    delta.basis = vec![bogus];
    let resp = hub.dispatch(hub::ApiRequest::Push {
        token: token.as_str().to_owned(),
        repo_id: repo_id.clone(),
        branch: "main".into(),
        force: false,
        bundle: delta,
    });
    assert!(matches!(
        resp.into_result(),
        Err(HubError::Git(gitlite::GitError::ObjectNotFound(id))) if id == bogus
    ));
    // The branch is untouched.
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, old_tip);
}

/// A refused delta leaves its loaded objects behind, so a commit can be
/// present but incomplete. A later delta anchored on that commit must be
/// refused too — "anchored" means reachable from a ref, not present —
/// and the client's fallback then lands the history whole.
#[test]
fn a_delta_anchored_on_an_unreachable_commit_is_refused() {
    let (hub, token, repo_id, mut local) = seeded(5);
    let old_tip = hub.log(&repo_id, "main").unwrap()[0].id;
    let push = |bundle: RepoBundle| {
        hub.dispatch(hub::ApiRequest::Push {
            token: token.as_str().to_owned(),
            repo_id: repo_id.clone(),
            branch: "main".into(),
            force: false,
            bundle,
        })
        .into_result()
    };
    // A delta missing its one new blob is refused, but its commit and
    // tree are already in the store.
    local
        .worktree_mut()
        .write(&path("hole.txt"), &b"never arrives\n"[..])
        .unwrap();
    let orphan = local.commit(sig(2_000), "add hole").unwrap();
    let blob = gitlite::Blob::new(&b"never arrives\n"[..]).id();
    let mut delta =
        RepoBundle::delta_from_branch(&local, "main", &HashSet::from([old_tip])).unwrap();
    delta.objects.retain(|(id, _)| *id != blob);
    assert!(matches!(
        push(delta),
        Err(HubError::Git(gitlite::GitError::ObjectNotFound(id))) if id == blob
    ));
    // A second delta, anchored on the orphan, deletes the file: without
    // the reachability check it would be accepted and the branch would
    // point at a commit whose parent's tree has a hole.
    local.worktree_mut().remove(&path("hole.txt")).unwrap();
    let tip = local.commit(sig(2_001), "drop hole").unwrap();
    let delta = RepoBundle::delta_from_branch(&local, "main", &HashSet::from([orphan])).unwrap();
    assert_eq!(delta.basis, vec![orphan]);
    assert!(matches!(
        push(delta),
        Err(HubError::Git(gitlite::GitError::ObjectNotFound(id))) if id == orphan
    ));
    assert_eq!(hub.log(&repo_id, "main").unwrap()[0].id, old_tip);
    hub.clone_repo(&repo_id).unwrap();
    // The client push negotiates around the orphan and lands it all.
    HubClient::in_process(&hub)
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    let clone = hub.clone_repo(&repo_id).unwrap();
    assert_eq!(clone.branch_tip("main").unwrap(), tip);
    assert_eq!(
        clone.file_at(orphan, &path("hole.txt")).unwrap(),
        b"never arrives\n"[..]
    );
}

/// Two directories that share a file swap places, in a push of two new
/// commits and in the follower fetch that replicates them: the sparse
/// walk must ship (or find held) every tree of both layouts.
#[test]
fn a_directory_swap_lands_on_push_and_replica_fetch() {
    let (hub, token, repo_id, mut local) = seeded(3);
    let follower_hub = Arc::new(Hub::new("https://follower"));
    let follower = hub::Follower::new(
        Arc::clone(&follower_hub),
        hub::InProcess::new(&hub),
        "primary:1",
        3600,
    );
    follower.sync_once().unwrap();
    let wt = local.worktree_mut();
    for (file, body) in [
        ("a/shared.txt", "shared"),
        ("a/x.txt", "x"),
        ("b/shared.txt", "shared"),
        ("b/y.txt", "y"),
    ] {
        wt.write(&path(file), body).unwrap();
    }
    local.commit(sig(3_000), "two dirs").unwrap();
    let wt = local.worktree_mut();
    wt.remove(&path("a/x.txt")).unwrap();
    wt.remove(&path("b/y.txt")).unwrap();
    wt.write(&path("a/y.txt"), "y").unwrap();
    wt.write(&path("b/x.txt"), "x").unwrap();
    let tip = local.commit(sig(3_001), "swap").unwrap();
    let client = HubClient::in_process(&hub);
    client
        .push_negotiated(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    let report = follower.sync_once().unwrap();
    assert_eq!(report.delta_bundles, 1);
    for served in [&hub, &*follower_hub] {
        let clone = served.clone_repo(&repo_id).unwrap();
        assert_eq!(clone.branch_tip("main").unwrap(), tip);
        assert_eq!(clone.snapshot(tip).unwrap(), local.snapshot(tip).unwrap());
    }
}

#[test]
fn short_delta_fails_connectivity_not_corruption() {
    let (hub, token, repo_id, mut local) = seeded(5);
    advance(&mut local, 3, 2_000);
    let chain = local
        .first_parent_chain(local.branch_tip("main").unwrap())
        .unwrap();
    let client = HubClient::in_process(&hub);
    let reply = client.negotiate(&repo_id, &chain).unwrap();
    let common: HashSet<ObjectId> = reply.common.into_iter().collect();
    let mut delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();
    // Drop one middle commit object: the new tip's history has a hole.
    let victim = chain[1];
    delta.objects.retain(|(id, _)| *id != victim);
    let resp = hub.dispatch(hub::ApiRequest::Push {
        token: token.as_str().to_owned(),
        repo_id: repo_id.clone(),
        branch: "main".into(),
        force: false,
        bundle: delta,
    });
    assert!(matches!(
        resp.into_result(),
        Err(HubError::Git(gitlite::GitError::ObjectNotFound(_)))
    ));
    // The branch still serves its complete old history.
    assert_eq!(hub.log(&repo_id, "main").unwrap().len(), 6);
}

#[test]
fn delta_bundles_cannot_import_or_materialize() {
    let (hub, token, _, mut local) = seeded(3);
    advance(&mut local, 1, 2_000);
    let mut common = HashSet::new();
    common.insert(
        local
            .first_parent_chain(local.branch_tip("main").unwrap())
            .unwrap()[1],
    );
    let delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();
    assert!(delta.is_delta());
    // Standalone materialization refuses.
    assert!(matches!(
        delta.into_repository(Box::new(gitlite::MemStore::new())),
        Err(gitlite::GitError::ObjectNotFound(_))
    ));
    // Import refuses with bad_request.
    let resp = hub.dispatch(hub::ApiRequest::ImportRepo {
        token: token.as_str().to_owned(),
        name: "q".into(),
        bundle: delta,
    });
    assert!(matches!(resp.into_result(), Err(HubError::BadRequest(_))));
}

// ----- pagination ----------------------------------------------------------

#[test]
fn log_pages_are_stable_while_the_branch_advances() {
    let (hub, token, repo_id, mut local) = seeded(30);
    let client = HubClient::in_process(&hub);
    let full = hub.log(&repo_id, "main").unwrap();

    let first = client.log_page(&repo_id, "main", None, Some(10)).unwrap();
    assert_eq!(first.items.len(), 10);
    assert_eq!(first.items, full[..10]);
    let cursor = first.next.clone().expect("more pages");

    // A writer advances the branch between pages...
    advance(&mut local, 2, 3_000);
    client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();

    // A fresh walk sees the new commits.
    let full_new = hub.log(&repo_id, "main").unwrap();
    let fresh = client.log_page(&repo_id, "main", None, Some(10)).unwrap();
    assert_eq!(fresh.items[0].id, local.branch_tip("main").unwrap());

    // ...and the continuation still serves the pinned walk, no shifted
    // or duplicated entries, while the fresh walk pages alongside it:
    // alternating cursors replace the repository's walk slot on every
    // call, and each walk still equals the log at its own tip.
    let mut walks = [(first.items, Some(cursor)), (fresh.items, fresh.next)];
    while walks.iter().any(|(_, cursor)| cursor.is_some()) {
        for (items, cursor) in &mut walks {
            if let Some(c) = cursor.take() {
                let page = client
                    .log_page(&repo_id, "main", Some(&c), Some(10))
                    .unwrap();
                items.extend(page.items);
                *cursor = page.next;
            }
        }
    }
    let [(old, _), (new, _)] = walks;
    assert_eq!(old, full);
    assert_eq!(new, full_new);
}

/// A store that counts object reads, so a test can see how much history
/// one request walked (the process-wide `gitlite::metrics` statics are
/// shared by tests running in parallel). `commit_ref` is left to its
/// provided form, which reads through `get`, so walks are counted however
/// the store is reached (boxed or not).
#[derive(Debug)]
struct CountingStore {
    inner: MemStore,
    reads: Arc<AtomicUsize>,
}

impl ObjectStore for CountingStore {
    fn get(&self, id: ObjectId) -> gitlite::Result<Arc<Object>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.get(id)
    }
    fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>) {
        self.inner.put_with_id(id, object)
    }
    fn contains(&self, id: ObjectId) -> bool {
        self.inner.contains(id)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn ids(&self) -> Vec<ObjectId> {
        self.inner.ids()
    }
    fn clone_box(&self) -> Box<dyn ObjectStore> {
        Box::new(CountingStore {
            inner: self.inner.clone(),
            reads: self.reads.clone(),
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A hub whose every repository store counts its object reads in `reads`.
fn counting_hub(reads: &Arc<AtomicUsize>) -> Hub {
    let counter = reads.clone();
    Hub::with_store_factory(
        "https://h",
        Box::new(move || {
            Box::new(CountingStore {
                inner: MemStore::new(),
                reads: counter.clone(),
            })
        }),
    )
}

#[test]
fn log_pages_stop_at_the_page_and_resume_the_walk() {
    let reads = Arc::new(AtomicUsize::new(0));
    let (hub, _, repo_id, _) = seeded_in(counting_hub(&reads), 499);
    let client = HubClient::in_process(&hub);
    let limit = 10;

    reads.store(0, Ordering::Relaxed);
    let first = client
        .log_page(&repo_id, "main", None, Some(limit as u32))
        .unwrap();
    let first_reads = reads.load(Ordering::Relaxed);
    assert_eq!(first.items.len(), limit);
    // The walk stops one commit past the page (plus the page's entries),
    // instead of decoding all 500 commits.
    assert!(first_reads <= 3 * limit, "first page read {first_reads}");

    reads.store(0, Ordering::Relaxed);
    let second = client
        .log_page(&repo_id, "main", first.next.as_deref(), Some(limit as u32))
        .unwrap();
    let second_reads = reads.load(Ordering::Relaxed);
    assert_eq!(second.items.len(), limit);
    // The next page at the same tip resumes the walk: about `limit`
    // more commits walked, and `limit` entries decoded.
    assert!(
        second_reads <= 2 * limit + 2,
        "second page read {second_reads}"
    );

    let full = hub.log(&repo_id, "main").unwrap();
    assert_eq!(full.len(), 500);
    assert_eq!(first.items, full[..limit]);
    assert_eq!(second.items, full[limit..2 * limit]);
}

#[test]
fn audit_and_repo_listings_paginate() {
    let hub = Hub::new("https://h");
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    for name in ["a", "b", "c", "d", "e"] {
        hub.create_repo(&token, name).unwrap();
    }
    let client = HubClient::in_process(&hub);

    // Repo listing: 2 + 2 + 1, ordered, no repeats.
    let mut names = Vec::new();
    let mut cursor = None;
    loop {
        let page = client.list_repos_page(cursor.as_deref(), Some(2)).unwrap();
        assert!(page.items.len() <= 2);
        names.extend(page.items);
        match page.next {
            Some(next) => cursor = Some(next),
            None => break,
        }
    }
    assert_eq!(names, hub.list_repos());

    // Audit pages concatenate to the full log.
    let full = hub.audit_log();
    let mut events = Vec::new();
    let mut cursor = None;
    loop {
        let page = client.audit_log_page(cursor.as_deref(), Some(3)).unwrap();
        events.extend(page.items);
        match page.next {
            Some(next) => cursor = Some(next),
            None => break,
        }
    }
    assert_eq!(events, full);
}

#[test]
fn page_limits_are_clamped_and_bad_cursors_refused() {
    let (hub, _, repo_id, _) = seeded(3);
    let client = HubClient::in_process(&hub);
    // limit 0 falls back to the default instead of an infinite loop.
    let page = client.log_page(&repo_id, "main", None, Some(0)).unwrap();
    assert_eq!(page.items.len(), 4);
    assert!(page.next.is_none());
    // Garbage cursors are a typed bad_request, not a panic.
    assert!(matches!(
        client.log_page(&repo_id, "main", Some("not-a-cursor"), None),
        Err(HubError::BadRequest(_))
    ));
    assert!(matches!(
        client.audit_log_page(Some("x"), None),
        Err(HubError::BadRequest(_))
    ));
    // An offset past the end of any history is an empty last page, even
    // where offset + limit would overflow.
    let tip = hub.log(&repo_id, "main").unwrap()[0].id;
    let page = client
        .log_page(
            &repo_id,
            "main",
            Some(&format!("{}:{}", tip.to_hex(), u64::MAX)),
            None,
        )
        .unwrap();
    assert!(page.items.is_empty());
    assert!(page.next.is_none());
}

/// A single-file push onto a repository of 500 files in nested
/// directories and 300 commits, and the follower catch-up after it, read
/// a number of objects on the order of the changed path: the commit, the
/// directories down to the file and their basis counterparts — not the
/// history (negotiate) or the tree (delta apply, replica fetch and
/// apply).
#[test]
fn a_single_file_push_and_its_catch_up_read_the_changed_path() {
    let primary_reads = Arc::new(AtomicUsize::new(0));
    let (hub, token, repo_id, mut local) = seeded_in(counting_hub(&primary_reads), 0);
    let file = |i: usize| path(&format!("d{}/s{}/f{}.txt", i % 10, i / 10 % 5, i / 50));
    for i in 0..500 {
        local
            .worktree_mut()
            .write(&file(i), format!("file {i}\n").into_bytes())
            .unwrap();
    }
    let edit = |local: &mut gitlite::Repository, n: usize| {
        local
            .worktree_mut()
            .write(&file(n * 37 % 500), format!("edit {n}\n").into_bytes())
            .unwrap();
        local
            .commit(sig(1_000 + n as i64), format!("e{n}"))
            .unwrap();
    };
    for n in 0..300 {
        edit(&mut local, n);
    }
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    let follower_reads = Arc::new(AtomicUsize::new(0));
    let follower_hub = Arc::new(counting_hub(&follower_reads));
    let follower = hub::Follower::new(
        Arc::clone(&follower_hub),
        hub::InProcess::new(&hub),
        "primary:1",
        3600,
    );
    follower.sync_once().unwrap();
    // Warm-up: the first negotiated push and catch-up may build each
    // hub's reachable set.
    let client = HubClient::in_process(&hub);
    edit(&mut local, 300);
    client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    follower.sync_once().unwrap();

    edit(&mut local, 301);
    primary_reads.store(0, Ordering::Relaxed);
    client
        .push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();
    let push_reads = primary_reads.swap(0, Ordering::Relaxed);
    follower_reads.store(0, Ordering::Relaxed);
    let report = follower.sync_once().unwrap();
    assert_eq!(report.delta_bundles, 1);
    let fetch_reads = primary_reads.load(Ordering::Relaxed);
    let apply_reads = follower_reads.load(Ordering::Relaxed);
    assert!(push_reads <= 60, "negotiate + push read {push_reads}");
    assert!(fetch_reads <= 60, "replica fetch read {fetch_reads}");
    assert!(apply_reads <= 60, "replica apply read {apply_reads}");
    let tip = local.branch_tip("main").unwrap();
    assert_eq!(follower_hub.log(&repo_id, "main").unwrap()[0].id, tip);
}
