//! Error type shared by all `gitlite` operations.

use crate::hash::ObjectId;
use crate::path::{PathError, RepoPath};
use std::fmt;

/// Anything that can go wrong inside the VCS substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GitError {
    /// An object id was referenced but is not in the object database.
    ObjectNotFound(ObjectId),
    /// An object existed but had the wrong kind (e.g. a blob where a tree
    /// was required).
    WrongKind {
        /// The offending id.
        id: ObjectId,
        /// Kind the caller needed.
        expected: &'static str,
        /// Kind actually stored.
        actual: &'static str,
    },
    /// Named branch does not exist.
    BranchNotFound(String),
    /// Branch already exists (on create).
    BranchExists(String),
    /// Invalid branch name (empty or containing whitespace/`/`).
    BadBranchName(String),
    /// A path failed validation.
    Path(PathError),
    /// A worktree path was required but absent.
    FileNotFound(RepoPath),
    /// A directory was given where a file was required (or vice versa).
    NotAFile(RepoPath),
    /// `commit` called with a worktree identical to HEAD.
    NothingToCommit,
    /// A push would lose commits on the destination branch.
    NonFastForward {
        /// Destination branch name.
        branch: String,
    },
    /// Merge produced conflicts the caller must resolve.
    MergeConflicts(usize),
    /// Merge requested between histories with no common ancestor.
    NoMergeBase,
    /// Repository has no commits yet where one was required.
    EmptyRepository,
    /// A worktree operation (such as `commit`) on a bare repository.
    BareRepository,
    /// On-disk store problems (message keeps the io::Error text; io::Error
    /// itself is not `Clone`/`PartialEq`).
    Io(String),
    /// A persisted object failed to decode.
    Corrupt(String),
}

impl fmt::Display for GitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GitError::ObjectNotFound(id) => write!(f, "object {} not found", id.short()),
            GitError::WrongKind {
                id,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "object {} is a {actual}, expected a {expected}",
                    id.short()
                )
            }
            GitError::BranchNotFound(b) => write!(f, "branch {b:?} not found"),
            GitError::BranchExists(b) => write!(f, "branch {b:?} already exists"),
            GitError::BadBranchName(b) => write!(f, "invalid branch name {b:?}"),
            GitError::Path(e) => write!(f, "{e}"),
            GitError::FileNotFound(p) => write!(f, "no such file in worktree: {p}"),
            GitError::NotAFile(p) => write!(f, "not a file: {p}"),
            GitError::NothingToCommit => write!(f, "nothing to commit"),
            GitError::NonFastForward { branch } => {
                write!(f, "push to {branch:?} rejected: not a fast-forward")
            }
            GitError::MergeConflicts(n) => write!(f, "merge produced {n} conflict(s)"),
            GitError::NoMergeBase => write!(f, "histories share no common ancestor"),
            GitError::EmptyRepository => write!(f, "repository has no commits"),
            GitError::BareRepository => write!(f, "repository is bare: it has no worktree"),
            GitError::Io(msg) => write!(f, "io error: {msg}"),
            GitError::Corrupt(msg) => write!(f, "corrupt object store: {msg}"),
        }
    }
}

impl std::error::Error for GitError {}

impl From<PathError> for GitError {
    fn from(e: PathError) -> Self {
        GitError::Path(e)
    }
}

impl From<std::io::Error> for GitError {
    fn from(e: std::io::Error) -> Self {
        GitError::Io(e.to_string())
    }
}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, GitError>;
