//! Self-test of the generator and the oracle against an in-process hub:
//! `cargo test --manifest-path hubbench/Cargo.toml`.

use crate::drive::{self, Class, Replica, REPO_ID};
use crate::gen::{self, Workload, REPO_NAME, USER};
use gitlite::MemStore;
use hub::{Hub, HubClient, InProcess};
use std::sync::atomic::AtomicBool;
use std::sync::Barrier;

fn seeded_hub(model: &gen::Model) -> Hub {
    let hub = Hub::new("https://hub.local");
    hub.register_user(USER, "Bench User").unwrap();
    let token = hub.login(USER).unwrap();
    let id = HubClient::in_process(&hub)
        .import_repo(&token, REPO_NAME, model.cited.repo())
        .unwrap();
    assert_eq!(id, REPO_ID);
    hub
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    for w in [Workload::Browse, Workload::Contribute, Workload::Archive] {
        let digest = |seed| {
            let model = gen::model(w, seed);
            let reads = gen::visits(w, seed, &model, 0, 200);
            let edits = gen::contributions(w, seed, &model, 20);
            gen::digest(&model, &reads, &edits)
        };
        assert_eq!(digest(5), digest(5), "{w:?}");
        assert_ne!(digest(5), digest(6), "{w:?}");
    }
}

#[test]
fn workload_shapes_straddle_the_object_cache() {
    let half = gitlite::DEFAULT_CACHE_CAPACITY / 2;
    let browse = gen::model(Workload::Browse, 1);
    assert!(browse.cited.repo().odb().len() < half);
    let archive = gen::model(Workload::Archive, 1);
    assert!(archive.cited.repo().odb().len() >= 2 * gitlite::DEFAULT_CACHE_CAPACITY);
    assert!(archive.expected_log().len() >= 3000);
}

#[test]
fn incremental_commits_match_a_full_tree_write() {
    let mut model = gen::model(Workload::Contribute, 3);
    for edit in gen::contributions(Workload::Contribute, 3, &model, 8) {
        model.apply(&edit);
    }
    let repo = model.cited.repo();
    let tip_tree = repo.tree_of(model.tip()).unwrap();
    let full = gitlite::write_tree(&mut MemStore::new(), repo.worktree());
    assert_eq!(tip_tree, full);
}

#[test]
fn browse_answers_match_the_model() {
    let model = gen::model(Workload::Browse, 2);
    let hub = seeded_hub(&model);
    let reads = gen::visits(Workload::Browse, 2, &model, 0, 300);
    let client = HubClient::in_process(&hub);
    let tally = drive::visit(&client, &model, &reads, &Barrier::new(1));
    assert_eq!(tally.errors, Vec::<String>::new());
    assert_eq!((tally.attempted, tally.failed), (300, 0));
    assert!(tally.samples.contains_key(&Class::Cite));
    assert!(tally.repeat_share() > 0.0, "Zipf paths repeat");
}

#[test]
fn the_oracle_flags_wrong_answers() {
    let served = gen::model(Workload::Browse, 2);
    let hub = seeded_hub(&served);
    let other = gen::model(Workload::Browse, 9);
    let reads = gen::visits(Workload::Browse, 9, &other, 0, 100);
    let tally = drive::visit(
        &HubClient::in_process(&hub),
        &other,
        &reads,
        &Barrier::new(1),
    );
    assert!(tally.failed > 50, "only {} of 100 flagged", tally.failed);
}

#[test]
fn contribute_pushes_and_the_follower_catches_up() {
    let mut model = gen::model(Workload::Contribute, 4);
    let hub = seeded_hub(&model);
    let edits = gen::contributions(Workload::Contribute, 4, &model, 12);
    let mut shadow = gen::model(Workload::Contribute, 4);
    let tips: Vec<_> = edits.iter().map(|e| shadow.apply(e)).collect();
    let client = HubClient::in_process(&hub);
    let token = client.login(USER).unwrap();
    let start = Barrier::new(1);
    let pushed = drive::contribute(&client, &token, &mut model, &edits, &start);
    assert_eq!(pushed.errors, Vec::<String>::new());
    assert_eq!((pushed.ops(), pushed.failed), (36, 0));
    assert_eq!(model.tip(), *tips.last().unwrap());
    let replica = Replica::over(InProcess::new(&hub), "in-process").unwrap();
    let followed = drive::follow(&replica, &tips, &AtomicBool::new(true), &start);
    assert_eq!(followed.errors, Vec::<String>::new());
    assert_eq!(followed.failed, 0);
}

#[test]
fn archive_pages_clones_and_credits_match_the_model() {
    let model = gen::model(Workload::Archive, 5);
    let hub = seeded_hub(&model);
    let client = HubClient::in_process(&hub);
    let start = Barrier::new(1);
    let log = model.expected_log();
    let paged = drive::page_all(&client, &log, 1, &start);
    assert_eq!(paged.errors, Vec::<String>::new());
    assert_eq!(paged.ops() as usize, log.len().div_ceil(gen::PAGE as usize));
    let refs: Vec<_> = model
        .cited
        .repo()
        .branches()
        .map(|(b, t)| (b.to_owned(), t))
        .collect();
    let credited = model.cited.credited_authors();
    let cloned = drive::clone_loop(&client, &refs, &credited, 1, &start);
    assert_eq!(cloned.errors, Vec::<String>::new());
    assert_eq!((cloned.ops(), cloned.failed), (5, 0));
}
