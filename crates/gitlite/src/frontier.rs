//! The objects past a frontier: what a sender ships, or a receiver
//! checks, so that a peer holding the closures of some *basis* commits
//! ends up holding the closures of some tips.
//!
//! [`DeltaWalk::new`] walks commits from the tips down to a caller-given
//! stop set; the stop commits it reaches are the walk's basis.
//! [`DeltaWalk::for_each_object`] then lists the walked commits and
//! their trees and blobs, skipping whatever the basis provably holds.
//! "Provably" is decided like Git's `pack.useSparse`: a path-parallel
//! walk over the basis trees and the new trees, which descends only into
//! directories whose ids differ, marks every entry of each basis tree it
//! visits as *held*. The cost is proportional to the changed paths, not
//! to the size of the basis trees.
//!
//! The listing may repeat an object the basis holds only at another path
//! (a moved or copied file), but never omits one the basis lacks: only
//! basis entries are ever marked held, and a held tree is skipped with
//! its whole subtree because a basis commit's closure is complete. New
//! trees are deliberately not pruned against other *new* trees path by
//! path: an object handed to a sibling path that the listing skips for
//! another reason would go missing.

use crate::error::Result;
use crate::hash::ObjectId;
use crate::object::{EntryMode, Object};
use crate::store::ObjectStore;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The commits from some tips down to a stop set, and the stop commits
/// reached (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct DeltaWalk {
    /// Walked commits in walk order, each with its decoded object.
    commits: Vec<(ObjectId, Arc<Object>)>,
    basis: Vec<ObjectId>,
}

impl DeltaWalk {
    /// Walks commits depth-first from `tips` (the last tip first),
    /// stopping at every commit for which `is_basis` holds. Each walked
    /// commit is fetched once; stop commits are not fetched at all.
    pub fn new<S: ObjectStore + ?Sized>(
        odb: &S,
        tips: &[ObjectId],
        mut is_basis: impl FnMut(&ObjectId) -> bool,
    ) -> Result<DeltaWalk> {
        let mut commits = Vec::new();
        let mut basis = Vec::new();
        let mut seen = HashSet::new();
        let mut stack = tips.to_vec();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if is_basis(&id) {
                basis.push(id);
                continue;
            }
            let obj = odb.commit_ref(id)?;
            stack.extend_from_slice(&obj.as_commit().expect("checked kind").parents);
            commits.push((id, obj));
        }
        Ok(DeltaWalk { commits, basis })
    }

    /// The walked commits (reachable from the tips, not past the stop
    /// set), in walk order.
    pub fn commits(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.commits.iter().map(|(id, _)| *id)
    }

    /// The stop commits the walk reached, in the order it reached them.
    pub fn basis(&self) -> &[ObjectId] {
        &self.basis
    }

    /// Visits every walked commit, each followed by the trees and blobs
    /// of its tree that neither the basis holds nor an earlier visit
    /// listed. Every listed tree and blob is fetched with
    /// [`ObjectStore::get`], so on a receiver a missing object fails the
    /// listing with `ObjectNotFound`. The basis commits' trees are read
    /// only along the paths where they differ from the new trees.
    pub fn for_each_object<S: ObjectStore + ?Sized>(
        &self,
        odb: &S,
        mut visit: impl FnMut(ObjectId, &Object),
    ) -> Result<()> {
        let mut basis_roots = Vec::with_capacity(self.basis.len());
        for &b in &self.basis {
            basis_roots.push(tree_of(odb, b)?);
        }
        let new_roots = self.commits.iter().map(|(_, c)| root_tree(c)).collect();
        let mut listed = held_entries(odb, basis_roots, new_roots)?;
        for (id, commit) in &self.commits {
            visit(*id, commit);
            let mut stack = vec![root_tree(commit)];
            while let Some(oid) = stack.pop() {
                if !listed.insert(oid) {
                    continue;
                }
                let obj = odb.get(oid)?;
                if let Object::Tree(t) = &*obj {
                    stack.extend(t.iter().map(|(_, e)| e.id));
                }
                visit(oid, &obj);
            }
        }
        Ok(())
    }
}

fn root_tree(commit: &Object) -> ObjectId {
    commit.as_commit().expect("checked kind").tree
}

/// A commit's root tree, from the commit-graph when it covers the commit.
fn tree_of<S: ObjectStore + ?Sized>(odb: &S, commit: ObjectId) -> Result<ObjectId> {
    if let Some(graph) = odb.commit_graph() {
        if let Some(pos) = graph.lookup(commit) {
            return Ok(graph.tree_of(pos));
        }
    }
    Ok(root_tree(&*odb.commit_ref(commit)?))
}

/// The ids the basis provably holds: the basis root trees, plus every
/// entry of each basis tree at a path where some new tree is not held
/// yet. Basis and new trees are walked path by path together, and the
/// walk descends into a directory name only when both sides have one
/// there.
fn held_entries<S: ObjectStore + ?Sized>(
    odb: &S,
    basis_roots: Vec<ObjectId>,
    new_roots: Vec<ObjectId>,
) -> Result<HashSet<ObjectId>> {
    let mut held: HashSet<ObjectId> = basis_roots.iter().copied().collect();
    let mut stack = vec![(basis_roots, new_roots)];
    while let Some((mut old, mut new)) = stack.pop() {
        new.sort_unstable();
        new.dedup();
        new.retain(|id| !held.contains(id));
        if new.is_empty() || old.is_empty() {
            continue;
        }
        old.sort_unstable();
        old.dedup();
        let mut old_dirs: HashMap<String, Vec<ObjectId>> = HashMap::new();
        for id in old {
            let obj = odb.tree_ref(id)?;
            for (name, e) in obj.as_tree().expect("checked kind").iter() {
                held.insert(e.id);
                if e.mode == EntryMode::Dir {
                    old_dirs.entry(name.to_owned()).or_default().push(e.id);
                }
            }
        }
        let mut new_dirs: BTreeMap<String, Vec<ObjectId>> = BTreeMap::new();
        for id in new {
            let obj = odb.tree_ref(id)?;
            for (name, e) in obj.as_tree().expect("checked kind").iter() {
                if e.mode == EntryMode::Dir && old_dirs.contains_key(name) {
                    new_dirs.entry(name.to_owned()).or_default().push(e.id);
                }
            }
        }
        for (name, new_children) in new_dirs {
            let old_children = old_dirs.remove(&name).expect("checked above");
            stack.push((old_children, new_children));
        }
    }
    Ok(held)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{path, Repository, Signature};

    fn sig(t: i64) -> Signature {
        Signature::new("a", "a@x", t)
    }

    /// The ids the walk from `repo`'s tip down to `stop` lists.
    fn listed(repo: &Repository, stop: ObjectId) -> Vec<ObjectId> {
        let tip = repo.branch_tip("main").unwrap();
        let walk = DeltaWalk::new(repo.odb(), &[tip], |id| *id == stop).unwrap();
        assert_eq!(walk.basis(), &[stop]);
        let mut out = Vec::new();
        walk.for_each_object(repo.odb(), |id, _| out.push(id))
            .unwrap();
        out
    }

    #[test]
    fn one_changed_file_lists_its_path_only() {
        let mut repo = Repository::init("r");
        for d in 0..5 {
            for f in 0..5 {
                repo.worktree_mut()
                    .write(&path(&format!("d{d}/sub/f{f}.txt")), format!("{d}{f}"))
                    .unwrap();
            }
        }
        let base = repo.commit(sig(1), "base").unwrap();
        repo.worktree_mut()
            .write(&path("d3/sub/f1.txt"), "changed")
            .unwrap();
        let tip = repo.commit(sig(2), "edit").unwrap();
        // Commit, root tree, d3, d3/sub and the blob.
        let ids = listed(&repo, base);
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[0], tip);
        let blob = crate::resolve_path(
            repo.odb(),
            repo.tree_of(tip).unwrap(),
            &path("d3/sub/f1.txt"),
        )
        .unwrap()
        .unwrap()
        .1;
        assert!(ids.contains(&blob));
    }

    #[test]
    fn a_directory_swap_lists_both_moved_trees() {
        // a/ and b/ share one file; the new commit swaps the directories.
        let mut repo = Repository::init("r");
        let wt = repo.worktree_mut();
        wt.write(&path("a/shared.txt"), "shared").unwrap();
        wt.write(&path("a/x.txt"), "x").unwrap();
        wt.write(&path("b/shared.txt"), "shared").unwrap();
        wt.write(&path("b/y.txt"), "y").unwrap();
        let base = repo.commit(sig(1), "base").unwrap();
        let wt = repo.worktree_mut();
        wt.remove(&path("a/x.txt")).unwrap();
        wt.remove(&path("b/y.txt")).unwrap();
        wt.write(&path("a/y.txt"), "y").unwrap();
        wt.write(&path("b/x.txt"), "x").unwrap();
        let tip = repo.commit(sig(2), "swap").unwrap();
        let ids: HashSet<ObjectId> = listed(&repo, base).into_iter().collect();
        // Every object of the new closure is either listed or in the
        // basis closure.
        let basis: HashSet<ObjectId> = repo
            .odb()
            .reachable_closure(&[base])
            .unwrap()
            .into_iter()
            .collect();
        for id in repo.odb().reachable_closure(&[tip]).unwrap() {
            assert!(ids.contains(&id) || basis.contains(&id), "{id} omitted");
        }
        // The swapped directories equal the old ones, so nothing but the
        // commit and its root tree is new.
        assert_eq!(ids.len(), 2);
    }
}
