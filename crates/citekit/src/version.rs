//! Citations of a committed version, read straight from the object store.
//!
//! Each version carries its own citation function in `citation.cite`
//! (paper §2–3), so citing a version needs only that commit's tree: no
//! worktree, no checkout and no [`crate::CitedRepo`]. This is how a hub
//! serves citations from the tips of its bare repositories, and what
//! [`crate::CitedRepo::cite_at`] and [`crate::CitedRepo::function_at`]
//! delegate to.

use crate::citation::Citation;
use crate::error::{CiteError, Result};
use crate::file::{self, citation_path};
use crate::function::CitationFunction;
use crate::time::format_iso8601;
use gitlite::{ObjectId, RepoPath, Repository};

/// The citation function stored in `version`. Fails with
/// [`CiteError::BadCitationFile`] when the version has no
/// `citation.cite` or the file is malformed.
pub fn function_at(repo: &Repository, version: ObjectId) -> Result<CitationFunction> {
    let text = repo.file_at(version, &citation_path()).map_err(|_| {
        CiteError::BadCitationFile(format!("version {} has no citation.cite", version.short()))
    })?;
    file::parse(&String::from_utf8_lossy(&text))
}

/// `Cite(V,P)(n)` for a committed version `V`. A citation resolved from
/// the root entry is stamped with `version`'s id and commit date;
/// explicitly attached citations are returned as stored.
///
/// A version without a citation function fails with
/// [`CiteError::BadCitationFile`] whatever `path` is; a path absent
/// from the version fails with [`CiteError::PathMissing`].
pub fn cite_at(repo: &Repository, version: ObjectId, path: &RepoPath) -> Result<Citation> {
    let commit = repo.commit_obj(version).map_err(CiteError::Git)?;
    let func = function_at(repo, version)?;
    if !repo.path_exists_at(version, path).map_err(CiteError::Git)? {
        return Err(CiteError::PathMissing(path.clone()));
    }
    let (at, citation) = func.resolve(path);
    if at.is_root() {
        Ok(citation.stamped(&version.short(), &format_iso8601(commit.author.timestamp)))
    } else {
        Ok(citation.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CitedRepo;
    use gitlite::{path, Signature};

    #[test]
    fn reads_a_bare_repository_at_any_tip() {
        let mut r = CitedRepo::init("P1", "Leshang", "https://hub/P1");
        r.write_file(&path("f.txt"), &b"f\n"[..]).unwrap();
        let v1 = r
            .commit(Signature::new("L", "l@x", 10), "V1")
            .unwrap()
            .commit;
        let own = Citation::builder("F", "Ada").author("Ada").build();
        r.add_cite(&path("f.txt"), own.clone()).unwrap();
        let v2 = r
            .commit(Signature::new("L", "l@x", 20), "V2")
            .unwrap()
            .commit;
        let bare = r.into_repository().into_bare();

        assert_eq!(function_at(&bare, v1).unwrap().len(), 1);
        assert_eq!(function_at(&bare, v2).unwrap().len(), 2);
        let root = cite_at(&bare, v1, &path("f.txt")).unwrap();
        assert_eq!(root.repo_name, "P1");
        assert_eq!(root.commit_id, v1.short());
        assert_eq!(cite_at(&bare, v2, &path("f.txt")).unwrap(), own);
        assert!(matches!(
            cite_at(&bare, v2, &path("nope.txt")),
            Err(CiteError::PathMissing(_))
        ));
    }

    #[test]
    fn a_version_without_citation_file_is_a_bad_citation_file() {
        let mut plain = Repository::init("legacy");
        plain
            .worktree_mut()
            .write(&path("a.txt"), &b"a\n"[..])
            .unwrap();
        let v = plain.commit(Signature::new("L", "l@x", 1), "V1").unwrap();
        for p in [path("a.txt"), path("missing.txt")] {
            assert!(matches!(
                cite_at(&plain, v, &p),
                Err(CiteError::BadCitationFile(_))
            ));
        }
        assert!(matches!(
            function_at(&plain, v),
            Err(CiteError::BadCitationFile(_))
        ));
    }
}
