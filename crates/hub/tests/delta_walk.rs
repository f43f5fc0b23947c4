//! The sparse delta walk behind negotiated pushes, checked over random
//! histories with merges, moves, copies, directory swaps and deletes: a
//! delta bundle applies on a receiver that holds exactly its basis
//! closure, ships only objects of the tip's closure, ships exactly the
//! difference when no object sits at two paths, and loses nothing the
//! receiver lacks — dropping any such object fails the push.

use gitlite::{write_tree, Commit, Object, ObjectId, Repository, Signature, WorkTree};
use hub::{ApiRequest, Hub, HubError, RepoBundle, Token};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::{BTreeMap, HashMap, HashSet};

/// path → content of one version.
type Files = BTreeMap<String, String>;

const DIRS: [&str; 5] = ["", "a", "b", "c/d", "c/e"];

fn random_path(rng: &mut TestRng) -> String {
    let dir = DIRS[rng.below(DIRS.len())];
    let name = format!("f{}.txt", rng.below(4));
    match dir {
        "" => name,
        d => format!("{d}/{name}"),
    }
}

/// One random edit of `files`; `fresh` makes every written content
/// unique, so only moves, copies and swaps put one object at two paths.
fn mutate(files: &mut Files, rng: &mut TestRng, fresh: &mut usize, moves: bool) {
    *fresh += 1;
    let existing: Vec<String> = files.keys().cloned().collect();
    let pick = |rng: &mut TestRng| existing[rng.below(existing.len())].clone();
    match rng.below(if moves { 6 } else { 3 }) {
        _ if existing.is_empty() => {
            files.insert(random_path(rng), format!("new {fresh}\n"));
        }
        0 | 1 => {
            files.insert(random_path(rng), format!("new {fresh}\n"));
        }
        2 => {
            files.remove(&pick(rng));
        }
        3 => {
            let from = pick(rng);
            let body = files.remove(&from).expect("picked an existing file");
            files.insert(random_path(rng), body);
        }
        4 => {
            let body = files[&pick(rng)].clone();
            files.insert(random_path(rng), body);
        }
        _ => {
            // Swap two directories (never the root) wholesale.
            let x = DIRS[1 + rng.below(DIRS.len() - 1)];
            let y = DIRS[1 + rng.below(DIRS.len() - 1)];
            let swapped = |p: &str| {
                for (from, to) in [(x, y), (y, x)] {
                    if let Some(rest) = p.strip_prefix(from).and_then(|r| r.strip_prefix('/')) {
                        if !rest.contains('/') {
                            return format!("{to}/{rest}");
                        }
                    }
                }
                p.to_owned()
            };
            *files = files
                .iter()
                .map(|(p, body)| (swapped(p), body.clone()))
                .collect();
        }
    }
}

/// A random history on `main`: each commit edits a copy of an earlier
/// one (usually the latest), and some merge a second parent in. Half the
/// seeds only write and delete, so the exact-set check runs often.
fn random_history(seed: u64) -> (Repository, Vec<ObjectId>) {
    let mut rng = TestRng::new(seed);
    let moves = seed.is_multiple_of(2);
    let mut repo = Repository::init("local");
    let mut fresh = 0;
    let mut versions: Vec<(ObjectId, Files)> = Vec::new();
    for n in 0..rng.in_range(2, 16) {
        let mut parents = Vec::new();
        let mut files = Files::new();
        if !versions.is_empty() {
            let first = match rng.chance(7, 10) {
                true => versions.len() - 1,
                false => rng.below(versions.len()),
            };
            parents.push(versions[first].0);
            files = versions[first].1.clone();
            if versions.len() > 1 && rng.chance(1, 4) {
                let (other, theirs) = &versions[rng.below(versions.len())];
                if !parents.contains(other) {
                    parents.push(*other);
                    for (p, body) in theirs {
                        files.entry(p.clone()).or_insert_with(|| body.clone());
                    }
                }
            }
        }
        for _ in 0..rng.in_range(1, 4) {
            mutate(&mut files, &mut rng, &mut fresh, moves);
        }
        let mut wt = WorkTree::new();
        for (p, body) in &files {
            wt.write(&gitlite::path(p), body.clone()).unwrap();
        }
        let tree = write_tree(repo.odb_mut(), &wt);
        let id = repo.odb_mut().put(Object::Commit(Commit {
            tree,
            parents,
            author: Signature::new("Ann", "ann@x", n as i64),
            message: format!("c{n}"),
        }));
        versions.push((id, files));
    }
    let ids: Vec<ObjectId> = versions.iter().map(|(id, _)| *id).collect();
    repo.set_branch("main", *ids.last().expect("at least two commits"))
        .unwrap();
    (repo, ids)
}

fn closure(repo: &Repository, roots: &[ObjectId]) -> HashSet<ObjectId> {
    repo.odb()
        .reachable_closure(roots)
        .unwrap()
        .into_iter()
        .collect()
}

/// The commits a depth-first walk from `tip` passes before it stops at
/// `common` ones.
fn walked(repo: &Repository, tip: ObjectId, common: &HashSet<ObjectId>) -> HashSet<ObjectId> {
    let mut seen = HashSet::new();
    let mut stack = vec![tip];
    while let Some(id) = stack.pop() {
        if !common.contains(&id) && seen.insert(id) {
            stack.extend(repo.odb().commit(id).unwrap().parents);
        }
    }
    seen
}

/// Every path each object of `tree` sits at, accumulated into `out`.
fn paths_of(
    repo: &Repository,
    tree: ObjectId,
    at: &str,
    out: &mut HashMap<ObjectId, HashSet<String>>,
) {
    out.entry(tree).or_default().insert(at.to_owned());
    let obj = repo.odb().tree_ref(tree).unwrap();
    for (name, e) in obj.as_tree().unwrap().iter() {
        let p = format!("{at}/{name}");
        match e.mode {
            gitlite::EntryMode::Dir => paths_of(repo, e.id, &p, out),
            gitlite::EntryMode::File => {
                out.entry(e.id).or_default().insert(p);
            }
        }
    }
}

/// Imports a repository holding exactly the closure of `basis`, one
/// branch per basis commit, and pushes `bundle` onto a new branch.
fn push_onto_basis(
    hub: &Hub,
    token: &Token,
    name: &str,
    local: &Repository,
    basis: &[ObjectId],
    bundle: RepoBundle,
) -> hub::Result<ObjectId> {
    let mut receiver = Repository::init(name);
    for id in local.odb().reachable_closure(basis).unwrap() {
        let bytes = local.odb().get(id).unwrap().canonical_bytes();
        receiver.odb_mut().put_raw(id, &bytes).unwrap();
    }
    for (i, &b) in basis.iter().enumerate() {
        receiver.set_branch(&format!("b{i}"), b).unwrap();
    }
    let repo_id = hub.import_repo(token, name, receiver).unwrap();
    let pushed = hub
        .dispatch(ApiRequest::Push {
            token: token.as_str().to_owned(),
            repo_id: repo_id.clone(),
            branch: "main".into(),
            force: true,
            bundle,
        })
        .into_result()
        .map(|_| local.branch_tip("main").unwrap())?;
    // The hosted branch serves a complete history.
    let clone = hub.clone_repo(&repo_id)?;
    assert_eq!(clone.branch_tip("main").unwrap(), pushed);
    Ok(pushed)
}

proptest! {
    #[test]
    fn delta_bundles_are_complete_and_exact_on_unique_paths(seed in any::<u64>()) {
        let (local, ids) = random_history(seed);
        let tip = *ids.last().unwrap();
        // The root always, and about a third of the rest bar the tip,
        // are "common".
        let mut rng = TestRng::new(seed ^ 0x5eed);
        let common: HashSet<ObjectId> = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || (*i + 1 < ids.len() && rng.chance(1, 3)))
            .map(|(_, id)| *id)
            .collect();
        let delta = RepoBundle::delta_from_branch(&local, "main", &common).unwrap();
        let basis = delta.basis.clone();
        prop_assert!(!basis.is_empty(), "seed {seed}: every path ends at the common root");
        let shipped: HashSet<ObjectId> = delta.objects.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(shipped.len(), delta.objects.len());

        // A subset of the tip's closure.
        let full = closure(&local, &[tip]);
        prop_assert!(shipped.is_subset(&full), "seed {seed}: shipped an object outside the closure");

        // When no object sits at two paths: exactly the exhaustive set —
        // the commits from the tip down to the common ones, and their
        // trees' closures less the basis trees' closures.
        let new_commits = walked(&local, tip, &common);
        let mut paths = HashMap::new();
        for &c in new_commits.iter().chain(&basis) {
            paths_of(&local, local.tree_of(c).unwrap(), "", &mut paths);
        }
        if paths.values().all(|p| p.len() == 1) {
            let basis_trees: Vec<ObjectId> =
                basis.iter().map(|&b| local.tree_of(b).unwrap()).collect();
            let held = closure(&local, &basis_trees);
            let new_trees: Vec<ObjectId> =
                new_commits.iter().map(|&c| local.tree_of(c).unwrap()).collect();
            let exact: HashSet<ObjectId> = closure(&local, &new_trees)
                .difference(&held)
                .copied()
                .chain(new_commits.iter().copied())
                .collect();
            prop_assert!(shipped == exact, "seed {seed}: shipped {shipped:?}, exact {exact:?}");
        }

        // Applies on a receiver holding exactly the basis closure...
        let hub = Hub::new("https://h");
        hub.register_user("ann", "Ann").unwrap();
        let token = hub.login("ann").unwrap();
        let pushed = push_onto_basis(&hub, &token, "whole", &local, &basis, delta.clone());
        prop_assert!(pushed.as_ref().ok() == Some(&tip), "seed {seed}: push gave {pushed:?}");

        // ...and fails with ObjectNotFound once anything it lacks is gone.
        let held = closure(&local, &basis);
        for (n, (victim, _)) in delta.objects.iter().enumerate() {
            if held.contains(victim) {
                continue;
            }
            let mut short = delta.clone();
            short.objects.retain(|(id, _)| id != victim);
            let result = push_onto_basis(&hub, &token, &format!("short{n}"), &local, &basis, short);
            prop_assert!(
                matches!(result, Err(HubError::Git(gitlite::GitError::ObjectNotFound(_)))),
                "seed {seed}: dropping {victim} gave {result:?}"
            );
        }
    }
}
