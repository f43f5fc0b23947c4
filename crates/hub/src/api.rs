//! The versioned wire protocol of the Cloud Platform API.
//!
//! The paper's Figure 1 places a "Cloud Platform API" between the browser
//! extension, the local tool and the hosting platform. This module is that
//! seam made concrete: every hub operation is a typed [`ApiRequest`], every
//! outcome a typed [`ApiResponse`], and both are sjson-encodable so any
//! transport that can move strings (in-process call, socket, HTTP body)
//! can carry the full platform surface. [`crate::Hub::dispatch`] routes
//! requests; [`crate::HubClient`] speaks the protocol from the client side
//! through a [`crate::Transport`].
//!
//! # Wire format
//!
//! A request is one JSON object:
//!
//! ```text
//! {"v": 1, "method": "add_cite", "params": {"token": "...", "repo_id":
//!  "alice/p", "branch": "main", "path": "src/lib.rs", "citation": {...}}}
//! ```
//!
//! A response is one JSON object carrying either a `result` or an `error`,
//! never both:
//!
//! ```text
//! {"v": 1, "result": {"type": "commit", "id": "<40-hex>"}}
//! {"v": 1, "error": {"code": "permission_denied", "message": "...",
//!  "detail": "bob"}}
//! ```
//!
//! Results are self-describing (`type` tag), so responses parse without
//! knowing which request produced them. Binary payloads (file contents,
//! object bytes in a [`RepoBundle`]) travel hex-encoded; object ids are
//! their 40-char hex form; repository paths are `/`-joined strings with
//! `""` meaning the root.
//!
//! # Versioning rules
//!
//! * `v` is the protocol major version. This build speaks every version
//!   from [`PROTOCOL_V1`] through [`PROTOCOL_VERSION`] (currently 3): a
//!   request outside that range is refused with a `protocol` error.
//! * Every envelope is stamped with the *lowest* version that can carry
//!   it ([`ApiRequest::version`] / [`ApiResponse::version`]), so a
//!   v1-era method still encodes byte-identically to the v1 wire form —
//!   the golden fixtures in `tests/wire_protocol.rs` pin this. Using a
//!   v2 construct (a v2-only method, or a delta [`RepoBundle`]) inside a
//!   `"v":1` envelope is a `protocol` error: a v1 peer would misread it.
//!   The same rule applies one version up: v3 constructs (`batch`,
//!   `objects_ext`) inside a `"v":1` or `"v":2` envelope are refused.
//! * Within a version, *adding* a method or a new optional param is
//!   compatible; renaming/removing methods, changing a param's type, or
//!   changing a result's shape requires bumping `v`.
//! * Unknown methods fail with `protocol`; unknown params are ignored
//!   (callers from a newer minor revision may send extras).
//!
//! # What protocol v2 adds
//!
//! * **Push negotiation** — `negotiate` sends the client's ref tips plus
//!   a sample of recent commit ids ("haves"); the server partitions them
//!   into `common` (reachable from its refs, computed via the
//!   commit-graph-accelerated ancestor walk) and `missing`. The client
//!   then ships a *delta* [`RepoBundle`] ([`RepoBundle::delta_from_branch`])
//!   carrying only the objects past the common frontier; the bundle's
//!   `basis` field names the commits the receiver must already have.
//! * **Paginated reads** — `log_page`, `audit_log_page` and
//!   `list_repos_page` take an opaque `cursor` plus a `limit` and return
//!   a typed [`Page`] (`items` + `next` cursor), so no read materializes
//!   an unbounded array. Cursors pin their position (a log cursor pins
//!   the tip it started from), so pages stay stable while writers
//!   advance the branch.
//! * A **line-framed TCP transport** rides on the same envelopes — see
//!   [`crate::transport`] for framing and per-connection auth scoping.
//!
//! # What protocol v3 adds
//!
//! v3 changes no method semantics; it changes how envelopes travel.
//!
//! * **Binary framing with an object side channel** — over the v3
//!   length-prefixed framing ([`crate::transport`]), a bundle-carrying
//!   envelope may externalize its object payloads: the `objects` array
//!   is replaced by `"objects_ext": n`, and the *n* `(id, bytes)` records
//!   travel beside the envelope as compressed raw-byte frames, in order.
//!   This ends the hex doubling of v1/v2 bundles (~2× wire bytes).
//!   [`ApiRequest::encode_ext`] / [`ApiRequest::parse_ext`] (and the
//!   [`ApiResponse`] counterparts) are the split/join points. The rules:
//!   an `objects_ext` envelope is only valid with a side channel, must be
//!   stamped `"v":3`, must consume the side channel exactly (no
//!   leftovers), and a bundle may not carry both `objects` and
//!   `objects_ext`. Plain [`ApiRequest::parse`] of an `objects_ext`
//!   envelope is a `protocol` error — the line framing has no side
//!   channel to draw from.
//! * **Batch envelopes** — `{"v":3,"method":"batch","params":
//!   {"requests":[<envelope>, ...]}}` carries several requests in one
//!   round trip; the response is `{"type":"batch","responses":
//!   [<envelope>, ...]}` in request order, items individually succeeding
//!   or failing. Batches cannot nest, and batch items always carry their
//!   objects inline (no `objects_ext` inside a batch). The extension
//!   popup's sign-in (`whoami` + `can_write` + citation lookup) rides in
//!   one batch.
//!
//! # Error codes
//!
//! Structured codes replace stringly errors. `detail` carries the variant
//! payload (a username, repository id, path, ...) verbatim, so clients can
//! reconstruct a typed [`HubError`] without parsing prose:
//!
//! | code                     | meaning                                       |
//! |--------------------------|-----------------------------------------------|
//! | `auth_failed`            | token missing, unknown or revoked             |
//! | `permission_denied`      | authenticated but not allowed                 |
//! | `user_not_found`         | unknown user (`detail` = username)            |
//! | `user_exists`            | username taken (`detail` = username)          |
//! | `repo_not_found`         | unknown repository (`detail` = repo id)       |
//! | `repo_exists`            | repository id taken (`detail` = repo id)      |
//! | `doi_not_found`          | unknown DOI (`detail` = doi)                  |
//! | `swhid_not_found`        | unknown SWHID (`detail` = swhid)              |
//! | `bad_request`            | malformed operation (bad name, branch, ...)   |
//! | `branch_not_found`       | VCS: no such branch (`detail` = branch)       |
//! | `branch_exists`          | VCS: branch taken (`detail` = branch)         |
//! | `non_fast_forward`       | VCS: push rejected (`detail` = branch)        |
//! | `file_not_found`         | VCS: no such file (`detail` = path)           |
//! | `object_not_found`       | VCS: missing object (`detail` = hex id)       |
//! | `nothing_to_commit`      | VCS: worktree identical to HEAD               |
//! | `merge_conflicts`        | VCS: conflicted merge (`detail` = count)      |
//! | `empty_repository`       | VCS: repository has no commits                |
//! | `git`                    | any other VCS failure                         |
//! | `already_cited`          | AddCite on a cited path (`detail` = path)     |
//! | `not_cited`              | Modify/DelCite on uncited path (`detail`)     |
//! | `root_citation_required` | DelCite on the root                           |
//! | `path_missing`           | cite op on absent path (`detail` = path)      |
//! | `reserved_path`          | cite op on `citation.cite` (`detail` = path)  |
//! | `unresolved_conflict`    | merge conflict refused (`detail` = path)      |
//! | `destination_exists`     | CopyCite target taken (`detail` = path)       |
//! | `source_missing`         | CopyCite source absent (`detail` = path)      |
//! | `bad_citation_file`      | citation.cite failed to parse (`detail` = why)|
//! | `cite`                   | any other citation-layer failure              |
//! | `token_expired`          | token lifetime elapsed; `refresh` it          |
//! | `rate_limited`           | token bucket or login lockout (`detail` = retry-after ticks) |
//! | `quota_exceeded`         | size quota refused the write (`detail` = why) |
//! | `server_busy`            | connection shed under overload (`detail` = retry-after secs) |
//! | `not_primary`            | follower hub refuses write/stale read (`detail` = primary addr) |
//! | `protocol`               | envelope/method/params malformed              |
//! | `transport_closed`       | connection dropped mid-request (client-side)  |
//!
//! `transport_closed` is synthesized by client transports when the peer
//! hangs up between request and response; a server never sends it.
//! `server_busy` is the one error a server sends *outside* dispatch: the
//! reactor answers the first request on a shed connection with it and
//! closes, so an overloaded server costs one frame per refused peer
//! instead of a stalled queue slot.
//!
//! Codes whose `detail` is structurally required (the path/id-carrying
//! ones) reconstruct to a `protocol` error when a peer omits it — a
//! typed error naming an invented payload would be worse than refusing.
//! The residual `git`/`cite` codes reconstruct as message-carrying
//! variants (`GitError::Io`, `CiteError::BadCitationFile`): the family
//! survives the wire, the exact variant does not.

use crate::audit::AuditEvent;
use crate::error::HubError;
use crate::heritage::{ArchiveReport, SwhKind};
use crate::perm::Role;
use crate::server::{LogEntry, User};
use crate::zenodo::Deposit;
use citekit::{Citation, MergeStrategy, Resolution};
use gitlite::{CacheStats, DeltaWalk, ObjectId, ObjectStore, RepoPath, Repository};
use sjson::{Object, Value};
use std::collections::HashSet;
use std::fmt;

/// Protocol major version 1: the original method surface, full-closure
/// bundles, unbounded reads.
pub const PROTOCOL_V1: i64 = 1;

/// Protocol major version 2: adds push negotiation (`negotiate` + delta
/// bundles) and paginated reads (`log_page`, `audit_log_page`,
/// `list_repos_page`).
pub const PROTOCOL_V2: i64 = 2;

/// Protocol major version 3: adds batch envelopes and the binary-framing
/// object side channel (`objects_ext`). See the module docs; the framing
/// itself lives in [`crate::transport`].
pub const PROTOCOL_V3: i64 = 3;

/// The newest protocol major version this build speaks. Envelopes are
/// stamped with the lowest version that can carry them, so bumping this
/// never changes the bytes of older methods.
pub const PROTOCOL_VERSION: i64 = PROTOCOL_V3;

/// Default page size applied when a paginated request omits `limit`.
pub const DEFAULT_PAGE_SIZE: usize = 100;

/// Hard ceiling on a page: larger `limit`s are clamped, keeping one
/// response bounded no matter what a client asks for.
pub const MAX_PAGE_SIZE: usize = 500;

/// Result alias for wire-level operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------

/// Stable machine-readable failure categories (see the module-level
/// error-code table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the table in the module docs is the documentation
pub enum ErrorCode {
    AuthFailed,
    PermissionDenied,
    UserNotFound,
    UserExists,
    RepoNotFound,
    RepoExists,
    DoiNotFound,
    SwhidNotFound,
    BadRequest,
    BranchNotFound,
    BranchExists,
    NonFastForward,
    FileNotFound,
    ObjectNotFound,
    NothingToCommit,
    MergeConflicts,
    EmptyRepository,
    Git,
    AlreadyCited,
    NotCited,
    RootCitationRequired,
    PathMissing,
    ReservedPath,
    UnresolvedConflict,
    DestinationExists,
    SourceMissing,
    BadCitationFile,
    Cite,
    TokenExpired,
    RateLimited,
    QuotaExceeded,
    ServerBusy,
    NotPrimary,
    Protocol,
    TransportClosed,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::AuthFailed => "auth_failed",
            ErrorCode::PermissionDenied => "permission_denied",
            ErrorCode::UserNotFound => "user_not_found",
            ErrorCode::UserExists => "user_exists",
            ErrorCode::RepoNotFound => "repo_not_found",
            ErrorCode::RepoExists => "repo_exists",
            ErrorCode::DoiNotFound => "doi_not_found",
            ErrorCode::SwhidNotFound => "swhid_not_found",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::BranchNotFound => "branch_not_found",
            ErrorCode::BranchExists => "branch_exists",
            ErrorCode::NonFastForward => "non_fast_forward",
            ErrorCode::FileNotFound => "file_not_found",
            ErrorCode::ObjectNotFound => "object_not_found",
            ErrorCode::NothingToCommit => "nothing_to_commit",
            ErrorCode::MergeConflicts => "merge_conflicts",
            ErrorCode::EmptyRepository => "empty_repository",
            ErrorCode::Git => "git",
            ErrorCode::AlreadyCited => "already_cited",
            ErrorCode::NotCited => "not_cited",
            ErrorCode::RootCitationRequired => "root_citation_required",
            ErrorCode::PathMissing => "path_missing",
            ErrorCode::ReservedPath => "reserved_path",
            ErrorCode::UnresolvedConflict => "unresolved_conflict",
            ErrorCode::DestinationExists => "destination_exists",
            ErrorCode::SourceMissing => "source_missing",
            ErrorCode::BadCitationFile => "bad_citation_file",
            ErrorCode::Cite => "cite",
            ErrorCode::TokenExpired => "token_expired",
            ErrorCode::RateLimited => "rate_limited",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::ServerBusy => "server_busy",
            ErrorCode::NotPrimary => "not_primary",
            ErrorCode::Protocol => "protocol",
            ErrorCode::TransportClosed => "transport_closed",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "auth_failed" => ErrorCode::AuthFailed,
            "permission_denied" => ErrorCode::PermissionDenied,
            "user_not_found" => ErrorCode::UserNotFound,
            "user_exists" => ErrorCode::UserExists,
            "repo_not_found" => ErrorCode::RepoNotFound,
            "repo_exists" => ErrorCode::RepoExists,
            "doi_not_found" => ErrorCode::DoiNotFound,
            "swhid_not_found" => ErrorCode::SwhidNotFound,
            "bad_request" => ErrorCode::BadRequest,
            "branch_not_found" => ErrorCode::BranchNotFound,
            "branch_exists" => ErrorCode::BranchExists,
            "non_fast_forward" => ErrorCode::NonFastForward,
            "file_not_found" => ErrorCode::FileNotFound,
            "object_not_found" => ErrorCode::ObjectNotFound,
            "nothing_to_commit" => ErrorCode::NothingToCommit,
            "merge_conflicts" => ErrorCode::MergeConflicts,
            "empty_repository" => ErrorCode::EmptyRepository,
            "git" => ErrorCode::Git,
            "already_cited" => ErrorCode::AlreadyCited,
            "not_cited" => ErrorCode::NotCited,
            "root_citation_required" => ErrorCode::RootCitationRequired,
            "path_missing" => ErrorCode::PathMissing,
            "reserved_path" => ErrorCode::ReservedPath,
            "unresolved_conflict" => ErrorCode::UnresolvedConflict,
            "destination_exists" => ErrorCode::DestinationExists,
            "source_missing" => ErrorCode::SourceMissing,
            "bad_citation_file" => ErrorCode::BadCitationFile,
            "cite" => ErrorCode::Cite,
            "token_expired" => ErrorCode::TokenExpired,
            "rate_limited" => ErrorCode::RateLimited,
            "quota_exceeded" => ErrorCode::QuotaExceeded,
            "server_busy" => ErrorCode::ServerBusy,
            "not_primary" => ErrorCode::NotPrimary,
            "protocol" => ErrorCode::Protocol,
            "transport_closed" => ErrorCode::TransportClosed,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failure as it travels on the wire: a stable code, a human-readable
/// message, and (when the originating error carried one) the raw variant
/// payload in `detail`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable description (the originating error's `Display`).
    pub message: String,
    /// The originating variant's payload, verbatim (username, repo id,
    /// path, ...), when it had one.
    pub detail: Option<String>,
}

impl WireError {
    /// Classifies a [`HubError`] into its wire form.
    pub fn from_hub(e: &HubError) -> WireError {
        let message = e.to_string();
        let (code, detail) = match e {
            HubError::AuthFailed => (ErrorCode::AuthFailed, None),
            HubError::PermissionDenied(s) => (ErrorCode::PermissionDenied, Some(s.clone())),
            HubError::UserNotFound(s) => (ErrorCode::UserNotFound, Some(s.clone())),
            HubError::UserExists(s) => (ErrorCode::UserExists, Some(s.clone())),
            HubError::RepoNotFound(s) => (ErrorCode::RepoNotFound, Some(s.clone())),
            HubError::RepoExists(s) => (ErrorCode::RepoExists, Some(s.clone())),
            HubError::DoiNotFound(s) => (ErrorCode::DoiNotFound, Some(s.clone())),
            HubError::SwhidNotFound(s) => (ErrorCode::SwhidNotFound, Some(s.clone())),
            HubError::BadRequest(s) => (ErrorCode::BadRequest, Some(s.clone())),
            HubError::TokenExpired => (ErrorCode::TokenExpired, None),
            HubError::RateLimited { retry_after } => {
                (ErrorCode::RateLimited, Some(retry_after.to_string()))
            }
            HubError::QuotaExceeded(s) => (ErrorCode::QuotaExceeded, Some(s.clone())),
            HubError::ServerBusy { retry_after } => {
                (ErrorCode::ServerBusy, Some(retry_after.to_string()))
            }
            HubError::NotPrimary { primary } => (ErrorCode::NotPrimary, Some(primary.clone())),
            HubError::Protocol(s) => (ErrorCode::Protocol, Some(s.clone())),
            HubError::TransportClosed(s) => (ErrorCode::TransportClosed, Some(s.clone())),
            HubError::Git(g) => classify_git(g),
            HubError::Cite(c) => match c {
                citekit::CiteError::Git(g) => classify_git(g),
                citekit::CiteError::AlreadyCited(p) => {
                    (ErrorCode::AlreadyCited, Some(p.to_string()))
                }
                citekit::CiteError::NotCited(p) => (ErrorCode::NotCited, Some(p.to_string())),
                citekit::CiteError::RootCitationRequired => (ErrorCode::RootCitationRequired, None),
                citekit::CiteError::PathMissing(p) => (ErrorCode::PathMissing, Some(p.to_string())),
                citekit::CiteError::ReservedPath(p) => {
                    (ErrorCode::ReservedPath, Some(p.to_string()))
                }
                citekit::CiteError::UnresolvedConflict(p) => {
                    (ErrorCode::UnresolvedConflict, Some(p.to_string()))
                }
                citekit::CiteError::DestinationExists(p) => {
                    (ErrorCode::DestinationExists, Some(p.to_string()))
                }
                citekit::CiteError::SourceMissing(p) => {
                    (ErrorCode::SourceMissing, Some(p.to_string()))
                }
                citekit::CiteError::BadCitationFile(msg) => {
                    (ErrorCode::BadCitationFile, Some(msg.clone()))
                }
                _ => (ErrorCode::Cite, None),
            },
        };
        WireError {
            code,
            message,
            detail,
        }
    }

    /// Reconstructs the closest typed [`HubError`]. Hub-level variants
    /// come back exactly (their payload rides in `detail`); the VCS and
    /// citation-layer variants a caller can act on have their own codes
    /// and reconstruct precisely, while the residual `git`/`cite` codes
    /// come back in the right family carrying the wire message. A
    /// path/id-carrying code whose `detail` is missing or unparseable
    /// becomes a `protocol` error — a typed error naming an invented
    /// payload would mislead.
    pub fn into_hub(self) -> HubError {
        let WireError {
            code,
            message,
            detail,
        } = self;
        let payload = |d: Option<String>| d.unwrap_or_else(|| message.clone());
        // Required structured details; `Err` is the honest protocol error.
        let path = |d: Option<String>| -> Result<RepoPath, HubError> {
            d.as_deref()
                .and_then(|s| RepoPath::parse(s).ok())
                .ok_or_else(|| {
                    HubError::Protocol(format!(
                        "error code {code} requires a path detail ({message})"
                    ))
                })
        };
        let cite = |r: Result<RepoPath, HubError>, make: fn(RepoPath) -> citekit::CiteError| match r
        {
            Ok(p) => HubError::Cite(make(p)),
            Err(e) => e,
        };
        match code {
            ErrorCode::AuthFailed => HubError::AuthFailed,
            ErrorCode::PermissionDenied => HubError::PermissionDenied(payload(detail)),
            ErrorCode::UserNotFound => HubError::UserNotFound(payload(detail)),
            ErrorCode::UserExists => HubError::UserExists(payload(detail)),
            ErrorCode::RepoNotFound => HubError::RepoNotFound(payload(detail)),
            ErrorCode::RepoExists => HubError::RepoExists(payload(detail)),
            ErrorCode::DoiNotFound => HubError::DoiNotFound(payload(detail)),
            ErrorCode::SwhidNotFound => HubError::SwhidNotFound(payload(detail)),
            ErrorCode::BadRequest => HubError::BadRequest(payload(detail)),
            ErrorCode::TokenExpired => HubError::TokenExpired,
            ErrorCode::RateLimited => match detail.as_deref().and_then(|d| d.parse().ok()) {
                Some(retry_after) => HubError::RateLimited { retry_after },
                None => HubError::Protocol(format!(
                    "error code rate_limited requires a retry-after detail ({message})"
                )),
            },
            ErrorCode::QuotaExceeded => HubError::QuotaExceeded(payload(detail)),
            ErrorCode::ServerBusy => match detail.as_deref().and_then(|d| d.parse().ok()) {
                Some(retry_after) => HubError::ServerBusy { retry_after },
                None => HubError::Protocol(format!(
                    "error code server_busy requires a retry-after detail ({message})"
                )),
            },
            ErrorCode::NotPrimary => match detail {
                Some(primary) => HubError::NotPrimary { primary },
                None => HubError::Protocol(format!(
                    "error code not_primary requires a primary-address detail ({message})"
                )),
            },
            ErrorCode::Protocol => HubError::Protocol(payload(detail)),
            ErrorCode::TransportClosed => HubError::TransportClosed(payload(detail)),
            ErrorCode::BranchNotFound => {
                HubError::Git(gitlite::GitError::BranchNotFound(payload(detail)))
            }
            ErrorCode::BranchExists => {
                HubError::Git(gitlite::GitError::BranchExists(payload(detail)))
            }
            ErrorCode::NonFastForward => HubError::Git(gitlite::GitError::NonFastForward {
                branch: payload(detail),
            }),
            ErrorCode::FileNotFound => match path(detail) {
                Ok(p) => HubError::Git(gitlite::GitError::FileNotFound(p)),
                Err(e) => e,
            },
            ErrorCode::ObjectNotFound => {
                match detail.as_deref().and_then(gitlite::ObjectId::from_hex) {
                    Some(id) => HubError::Git(gitlite::GitError::ObjectNotFound(id)),
                    None => HubError::Protocol(format!(
                        "error code object_not_found requires a hex id detail ({message})"
                    )),
                }
            }
            ErrorCode::NothingToCommit => HubError::Git(gitlite::GitError::NothingToCommit),
            ErrorCode::MergeConflicts => match detail.as_deref().and_then(|d| d.parse().ok()) {
                Some(n) => HubError::Git(gitlite::GitError::MergeConflicts(n)),
                None => HubError::Protocol(format!(
                    "error code merge_conflicts requires a count detail ({message})"
                )),
            },
            ErrorCode::EmptyRepository => HubError::Git(gitlite::GitError::EmptyRepository),
            ErrorCode::Git => HubError::Git(gitlite::GitError::Io(message)),
            ErrorCode::AlreadyCited => cite(path(detail), citekit::CiteError::AlreadyCited),
            ErrorCode::NotCited => cite(path(detail), citekit::CiteError::NotCited),
            ErrorCode::RootCitationRequired => {
                HubError::Cite(citekit::CiteError::RootCitationRequired)
            }
            ErrorCode::PathMissing => cite(path(detail), citekit::CiteError::PathMissing),
            ErrorCode::ReservedPath => cite(path(detail), citekit::CiteError::ReservedPath),
            ErrorCode::UnresolvedConflict => {
                cite(path(detail), citekit::CiteError::UnresolvedConflict)
            }
            ErrorCode::DestinationExists => {
                cite(path(detail), citekit::CiteError::DestinationExists)
            }
            ErrorCode::SourceMissing => cite(path(detail), citekit::CiteError::SourceMissing),
            ErrorCode::BadCitationFile => {
                HubError::Cite(citekit::CiteError::BadCitationFile(payload(detail)))
            }
            ErrorCode::Cite => HubError::Cite(citekit::CiteError::BadCitationFile(message)),
        }
    }

    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("code", self.code.as_str());
        o.insert("message", self.message.as_str());
        if let Some(d) = &self.detail {
            o.insert("detail", d.as_str());
        }
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<WireError> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("error must be an object"))?;
        let code_str = req_str(o, "code")?;
        let code = ErrorCode::parse(&code_str)
            .ok_or_else(|| proto(format!("unknown error code {code_str:?}")))?;
        Ok(WireError {
            code,
            message: req_str(o, "message")?,
            detail: opt_str(o, "detail")?,
        })
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

fn classify_git(g: &gitlite::GitError) -> (ErrorCode, Option<String>) {
    match g {
        gitlite::GitError::BranchNotFound(b) => (ErrorCode::BranchNotFound, Some(b.clone())),
        gitlite::GitError::BranchExists(b) => (ErrorCode::BranchExists, Some(b.clone())),
        gitlite::GitError::NonFastForward { branch } => {
            (ErrorCode::NonFastForward, Some(branch.clone()))
        }
        gitlite::GitError::FileNotFound(p) => (ErrorCode::FileNotFound, Some(p.to_string())),
        gitlite::GitError::ObjectNotFound(id) => (ErrorCode::ObjectNotFound, Some(id.to_hex())),
        gitlite::GitError::NothingToCommit => (ErrorCode::NothingToCommit, None),
        gitlite::GitError::MergeConflicts(n) => (ErrorCode::MergeConflicts, Some(n.to_string())),
        gitlite::GitError::EmptyRepository => (ErrorCode::EmptyRepository, None),
        _ => (ErrorCode::Git, None),
    }
}

fn proto(msg: impl Into<String>) -> WireError {
    WireError {
        code: ErrorCode::Protocol,
        message: msg.into(),
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Wire-level compound types
// ---------------------------------------------------------------------

/// A repository serialized for transfer: the payload of `clone_repo`
/// responses and `push` / `import_repo` requests. Object bytes are the
/// canonical content-addressed encoding, so the receiving side verifies
/// every object against its claimed id while loading (`put_raw`).
///
/// A bundle comes in two forms. A **full** bundle (`basis` empty) carries
/// the complete closure of its refs and can materialize a standalone
/// repository. A **delta** bundle (protocol v2) carries only the objects
/// past a negotiated frontier: `basis` names commits the receiver must
/// already hold reachable from its refs, and `objects` is what the refs
/// reach past them — the commits down to the basis with their trees and
/// blobs, less what the basis commits' trees hold at the same path. An
/// object the basis holds only at another path (a moved or copied file)
/// may be sent again; one the basis lacks is never left out (see
/// [`gitlite::frontier`]). Delta bundles can only be *applied* to a
/// repository whose refs reach the basis ([`crate::Hub`]'s push and
/// replication paths); materializing one standalone fails with
/// `ObjectNotFound`. On the wire the `basis` key is simply absent for
/// full bundles, so the v1 encoding is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct RepoBundle {
    /// Repository name.
    pub name: String,
    /// Branch the receiver should check out, when known.
    pub head: Option<String>,
    /// `(branch, tip)` pairs.
    pub refs: Vec<(String, ObjectId)>,
    /// `(id, canonical bytes)` for every transferred object.
    pub objects: Vec<(ObjectId, Vec<u8>)>,
    /// Commits the receiver must already have (with their full closures)
    /// for `objects` to be complete. Empty = full bundle.
    pub basis: Vec<ObjectId>,
}

impl RepoBundle {
    /// Bundles every branch of `repo` (the `clone` / `import` payload).
    pub fn from_repository(repo: &Repository) -> gitlite::Result<RepoBundle> {
        let refs: Vec<(String, ObjectId)> = repo
            .branches()
            .map(|(b, tip)| (b.to_owned(), tip))
            .collect();
        let roots: Vec<ObjectId> = refs.iter().map(|(_, tip)| *tip).collect();
        Self::bundle(repo, refs, &roots, repo.current_branch().map(str::to_owned))
    }

    /// Bundles a single branch of `repo` (the `push` payload).
    pub fn from_branch(repo: &Repository, branch: &str) -> gitlite::Result<RepoBundle> {
        let tip = repo.branch_tip(branch)?;
        Self::bundle(
            repo,
            vec![(branch.to_owned(), tip)],
            &[tip],
            Some(branch.to_owned()),
        )
    }

    fn bundle(
        repo: &Repository,
        refs: Vec<(String, ObjectId)>,
        roots: &[ObjectId],
        head: Option<String>,
    ) -> gitlite::Result<RepoBundle> {
        let mut objects = Vec::new();
        for id in repo.odb().reachable_closure(roots)? {
            objects.push((id, repo.odb().get(id)?.canonical_bytes()));
        }
        Ok(RepoBundle {
            name: repo.name().to_owned(),
            head,
            refs,
            objects,
            basis: Vec::new(),
        })
    }

    /// True for the negotiated delta form (protocol v2): the bundle is
    /// only complete relative to its `basis` commits.
    pub fn is_delta(&self) -> bool {
        !self.basis.is_empty()
    }

    /// Bundles one branch of `repo` *incrementally*: only the objects
    /// past the `common` frontier (commit ids the receiver confirmed
    /// having, e.g. a `negotiate` reply). The walk from the tip stops at
    /// the first common commit on every path; those stop commits become
    /// the bundle's `basis`, and what their closures hold is left out
    /// (a commit on the receiver is there with its complete closure).
    /// See [`gitlite::frontier`] for how "holds" is decided: an object
    /// the basis holds only at another path may be sent again. With an
    /// empty `common` this degrades to a full bundle — the same objects
    /// as [`RepoBundle::from_branch`].
    pub fn delta_from_branch(
        repo: &Repository,
        branch: &str,
        common: &HashSet<ObjectId>,
    ) -> gitlite::Result<RepoBundle> {
        let tip = repo.branch_tip(branch)?;
        let refs = vec![(branch.to_owned(), tip)];
        Self::delta(repo, refs, Some(branch.to_owned()), common)
    }

    /// Bundles *every* branch of `repo` incrementally past the `common`
    /// frontier — the replication fetch payload ([`crate::repl`]): the
    /// walk starts from all branch tips at once, stop commits become the
    /// shared `basis`, and `head`/`refs` mirror the whole repository so
    /// the receiver can force its refs to match. With an empty `common`
    /// this degrades to a full bundle (same objects as
    /// [`RepoBundle::from_repository`]), which is also how a follower
    /// bootstraps a repository it has never seen.
    pub fn delta_from_refs(
        repo: &Repository,
        common: &HashSet<ObjectId>,
    ) -> gitlite::Result<RepoBundle> {
        let refs: Vec<(String, ObjectId)> = repo
            .branches()
            .map(|(b, tip)| (b.to_owned(), tip))
            .collect();
        let head = repo.current_branch().map(str::to_owned);
        Self::delta(repo, refs, head, common)
    }

    fn delta(
        repo: &Repository,
        refs: Vec<(String, ObjectId)>,
        head: Option<String>,
        common: &HashSet<ObjectId>,
    ) -> gitlite::Result<RepoBundle> {
        let tips: Vec<ObjectId> = refs.iter().map(|(_, tip)| *tip).collect();
        let walk = DeltaWalk::new(repo.odb(), &tips, |id| common.contains(id))?;
        let mut objects = Vec::new();
        walk.for_each_object(repo.odb(), |id, obj| {
            objects.push((id, obj.canonical_bytes()))
        })?;
        Ok(RepoBundle {
            name: repo.name().to_owned(),
            head,
            refs,
            objects,
            basis: walk.basis().to_vec(),
        })
    }

    /// Materializes the bundle as a repository on `store`, verifying
    /// every object's bytes against its claimed id. Delta bundles cannot
    /// stand alone: their basis objects live only on the negotiating
    /// receiver, so this fails with `ObjectNotFound` instead of building
    /// a repository with holes in its history.
    pub fn into_repository(&self, store: Box<dyn ObjectStore>) -> gitlite::Result<Repository> {
        self.materialize(Repository::init_with(self.name.clone(), store))
    }

    /// [`RepoBundle::into_repository`] as a bare repository: the same
    /// checks, with HEAD set and no tree read into a worktree (how a hub
    /// hosts what it is sent).
    pub fn into_bare_repository(&self, store: Box<dyn ObjectStore>) -> gitlite::Result<Repository> {
        self.materialize(Repository::init_with(self.name.clone(), store).into_bare())
    }

    fn materialize(&self, mut repo: Repository) -> gitlite::Result<Repository> {
        if let Some(&b) = self.basis.first() {
            return Err(gitlite::GitError::ObjectNotFound(b));
        }
        for (id, bytes) in &self.objects {
            repo.odb_mut().put_raw(*id, bytes)?;
        }
        for (branch, tip) in &self.refs {
            repo.set_branch(branch, *tip)?;
        }
        let head = self
            .head
            .clone()
            .filter(|b| repo.has_branch(b))
            .or_else(|| self.refs.first().map(|(b, _)| b.clone()));
        if let Some(b) = head {
            repo.checkout_branch(&b)?;
        }
        Ok(repo)
    }

    /// The envelope keys every bundle form shares: `name`, `head`, `refs`.
    fn header_value(&self) -> Object {
        let mut o = Object::new();
        o.insert("name", self.name.as_str());
        if let Some(h) = &self.head {
            o.insert("head", h.as_str());
        }
        o.insert(
            "refs",
            Value::Array(
                self.refs
                    .iter()
                    .map(|(b, tip)| Value::Array(vec![Value::from(b.as_str()), id_value(*tip)]))
                    .collect(),
            ),
        );
        o
    }

    fn to_value(&self) -> Value {
        let mut o = self.header_value();
        o.insert(
            "objects",
            Value::Array(
                self.objects
                    .iter()
                    .map(|(id, bytes)| {
                        Value::Array(vec![id_value(*id), Value::from(hex_encode(bytes))])
                    })
                    .collect(),
            ),
        );
        // Absent for full bundles, so the v1 wire form is unchanged.
        if !self.basis.is_empty() {
            o.insert(
                "basis",
                Value::Array(self.basis.iter().map(|id| id_value(*id)).collect()),
            );
        }
        Value::Object(o)
    }

    /// Like `to_value` but externalizing the object payloads (protocol
    /// v3): the envelope carries `"objects_ext": n` and the `(id, bytes)`
    /// pairs are appended to `sink`, in order, to travel as raw bytes on
    /// the binary side channel instead of hex inside the envelope.
    fn to_value_ext(&self, sink: &mut Vec<(ObjectId, Vec<u8>)>) -> Value {
        let mut o = self.header_value();
        o.insert("objects_ext", self.objects.len() as i64);
        sink.extend(self.objects.iter().cloned());
        if !self.basis.is_empty() {
            o.insert(
                "basis",
                Value::Array(self.basis.iter().map(|id| id_value(*id)).collect()),
            );
        }
        Value::Object(o)
    }

    fn from_value_inner(v: &Value, sidecar: Option<&mut Sidecar>) -> WireResult<RepoBundle> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("bundle must be an object"))?;
        let mut refs = Vec::new();
        for pair in req_arr(o, "refs")? {
            let [b, tip] = two(pair, "ref")?;
            refs.push((str_of(b, "ref branch")?, parse_id(tip, "ref tip")?));
        }
        let objects = match o.get("objects_ext") {
            Some(count) => {
                if o.get("objects").is_some() {
                    return Err(proto("bundle cannot carry both objects and objects_ext"));
                }
                let n = count
                    .as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| proto("objects_ext must be a non-negative count"))?;
                let Some(sc) = sidecar else {
                    return Err(proto(
                        "objects_ext bundle requires the v3 binary side channel",
                    ));
                };
                sc.used = true;
                if sc.objects.len() < n {
                    return Err(proto(format!(
                        "objects_ext claims {n} objects, side channel carried {}",
                        sc.objects.len()
                    )));
                }
                sc.objects.drain(..n).collect()
            }
            None => {
                let mut objects = Vec::new();
                for pair in req_arr(o, "objects")? {
                    let [id, bytes] = two(pair, "object")?;
                    let bytes = hex_decode(
                        bytes
                            .as_str()
                            .ok_or_else(|| proto("object bytes must be hex"))?,
                    )
                    .ok_or_else(|| proto("object bytes must be hex"))?;
                    objects.push((parse_id(id, "object id")?, bytes));
                }
                objects
            }
        };
        let mut basis = Vec::new();
        if let Some(v) = o.get("basis") {
            for id in v
                .as_array()
                .ok_or_else(|| proto("basis must be an array"))?
            {
                basis.push(parse_id(id, "basis commit")?);
            }
        }
        Ok(RepoBundle {
            name: req_str(o, "name")?,
            head: opt_str(o, "head")?,
            refs,
            objects,
            basis,
        })
    }
}

/// Raw object payloads traveling beside a v3 envelope on the binary side
/// channel. Bundles that say `objects_ext` draw from this queue in order;
/// `used` records that the envelope referenced the side channel at all
/// (which requires a `"v":3` stamp, even for an empty one).
struct Sidecar {
    objects: std::collections::VecDeque<(ObjectId, Vec<u8>)>,
    used: bool,
}

/// Server's answer to a v2 `negotiate` request: the offered commit ids
/// partitioned by whether they are reachable from the repository's refs.
/// `common` commits (and their closures) need not be re-sent; `missing`
/// ones the server has never seen.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Negotiation {
    /// Offered ids the server already has reachable from its refs.
    pub common: Vec<ObjectId>,
    /// Offered ids the server lacks.
    pub missing: Vec<ObjectId>,
}

impl Negotiation {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert(
            "common",
            Value::Array(self.common.iter().map(|id| id_value(*id)).collect()),
        );
        o.insert(
            "missing",
            Value::Array(self.missing.iter().map(|id| id_value(*id)).collect()),
        );
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<Negotiation> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("negotiation must be an object"))?;
        let ids = |key: &str| -> WireResult<Vec<ObjectId>> {
            req_arr(o, key)?
                .iter()
                .map(|id| parse_id(id, "negotiation commit"))
                .collect()
        };
        Ok(Negotiation {
            common: ids("common")?,
            missing: ids("missing")?,
        })
    }
}

/// One page of a paginated read (protocol v2). `next` is an opaque
/// cursor to pass back for the following page; `None` means the listing
/// is exhausted. Cursors pin their position, so a page sequence stays
/// stable while writers append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page<T> {
    /// The items of this page, at most the requested (clamped) limit.
    pub items: Vec<T>,
    /// Cursor for the next page, absent on the last one.
    pub next: Option<String>,
}

/// Version-level outcome of a server-side merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The other branch is already contained in ours.
    AlreadyUpToDate,
    /// Our branch simply advanced to the given commit.
    FastForwarded(ObjectId),
    /// A merge commit was created.
    Merged(ObjectId),
}

/// Wire form of a server-side `MergeCite` report: the outcome plus how
/// each citation-key conflict was settled and which entries were dropped
/// because the Git merge deleted their paths.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeSummary {
    /// What happened at the version level.
    pub outcome: MergeOutcome,
    /// `(path, resolution taken)` per conflicted citation key.
    pub citation_conflicts: Vec<(RepoPath, Resolution)>,
    /// Citation entries dropped because their paths were deleted.
    pub dropped: Vec<RepoPath>,
}

fn resolution_to_value(r: &Resolution) -> Value {
    let mut o = Object::new();
    let kind = match r {
        Resolution::Ours => "ours",
        Resolution::Theirs => "theirs",
        Resolution::Drop => "drop",
        Resolution::Unresolved => "unresolved",
        Resolution::Custom(_) => "custom",
    };
    o.insert("kind", kind);
    if let Resolution::Custom(c) = r {
        o.insert("citation", c.to_value());
    }
    Value::Object(o)
}

fn resolution_from_value(v: &Value) -> WireResult<Resolution> {
    let o = v
        .as_object()
        .ok_or_else(|| proto("resolution must be an object"))?;
    Ok(match req_str(o, "kind")?.as_str() {
        "ours" => Resolution::Ours,
        "theirs" => Resolution::Theirs,
        "drop" => Resolution::Drop,
        "unresolved" => Resolution::Unresolved,
        "custom" => Resolution::Custom(parse_citation(
            o.get("citation")
                .ok_or_else(|| proto("custom resolution needs a citation"))?,
        )?),
        other => return Err(proto(format!("unknown resolution kind {other:?}"))),
    })
}

impl MergeSummary {
    fn to_value(&self) -> Value {
        let mut outcome = Object::new();
        match self.outcome {
            MergeOutcome::AlreadyUpToDate => {
                outcome.insert("kind", "already_up_to_date");
            }
            MergeOutcome::FastForwarded(id) => {
                outcome.insert("kind", "fast_forwarded");
                outcome.insert("commit", id.to_hex());
            }
            MergeOutcome::Merged(id) => {
                outcome.insert("kind", "merged");
                outcome.insert("commit", id.to_hex());
            }
        }
        let mut o = Object::new();
        o.insert("outcome", Value::Object(outcome));
        o.insert(
            "citation_conflicts",
            Value::Array(
                self.citation_conflicts
                    .iter()
                    .map(|(p, r)| Value::Array(vec![path_value(p), resolution_to_value(r)]))
                    .collect(),
            ),
        );
        o.insert(
            "dropped",
            Value::Array(self.dropped.iter().map(path_value).collect()),
        );
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<MergeSummary> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("merge summary must be an object"))?;
        let oc = req_obj(o, "outcome")?;
        let outcome = match req_str(oc, "kind")?.as_str() {
            "already_up_to_date" => MergeOutcome::AlreadyUpToDate,
            "fast_forwarded" => MergeOutcome::FastForwarded(parse_id(
                oc.get("commit").ok_or_else(|| proto("missing commit"))?,
                "merge commit",
            )?),
            "merged" => MergeOutcome::Merged(parse_id(
                oc.get("commit").ok_or_else(|| proto("missing commit"))?,
                "merge commit",
            )?),
            other => return Err(proto(format!("unknown merge outcome {other:?}"))),
        };
        let mut citation_conflicts = Vec::new();
        for pair in req_arr(o, "citation_conflicts")? {
            let [p, r] = two(pair, "citation conflict")?;
            citation_conflicts.push((parse_path_value(p)?, resolution_from_value(r)?));
        }
        let mut dropped = Vec::new();
        for p in req_arr(o, "dropped")? {
            dropped.push(parse_path_value(p)?);
        }
        Ok(MergeSummary {
            outcome,
            citation_conflicts,
            dropped,
        })
    }
}

/// Object-store statistics for one hosted repository — the wire surface
/// of [`gitlite::CacheStats`] plus the store's object count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Repository the stats describe.
    pub repo_id: String,
    /// Objects in the backing store.
    pub objects: u64,
    /// Cache counters, when the backend stack contains a read cache.
    pub cache: Option<CacheStats>,
    /// Commits indexed by the store's commit-graph, when the backend
    /// maintains one (pack-backed repositories after their first
    /// maintenance run). `None` on graph-less backends — both the field
    /// and its wire key are simply absent, so pre-graph peers parse
    /// unchanged.
    pub graph_commits: Option<u64>,
    /// Pack records stored as deltas rather than full bytes. `None`
    /// (key absent) on backends without delta packs — same absent-field
    /// rule as `graph_commits`, so pre-delta peers parse unchanged.
    pub delta_objects: Option<u64>,
    /// Commits whose graph record carries a changed-path Bloom filter.
    /// `None` (key absent) on graph-less backends.
    pub bloom_commits: Option<u64>,
}

impl StoreStats {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("repo_id", self.repo_id.as_str());
        o.insert("objects", self.objects as i64);
        if let Some(c) = &self.cache {
            let mut co = Object::new();
            co.insert("hits", c.hits as i64);
            co.insert("misses", c.misses as i64);
            co.insert("evictions", c.evictions as i64);
            co.insert("len", c.len as i64);
            co.insert("capacity", c.capacity as i64);
            o.insert("cache", Value::Object(co));
        }
        if let Some(n) = self.graph_commits {
            o.insert("graph_commits", n as i64);
        }
        if let Some(n) = self.delta_objects {
            o.insert("delta_objects", n as i64);
        }
        if let Some(n) = self.bloom_commits {
            o.insert("bloom_commits", n as i64);
        }
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<StoreStats> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("stats must be an object"))?;
        let cache = match o.get("cache") {
            None | Some(Value::Null) => None,
            Some(Value::Object(co)) => Some(CacheStats {
                hits: req_i64(co, "hits")? as u64,
                misses: req_i64(co, "misses")? as u64,
                evictions: req_i64(co, "evictions")? as u64,
                len: req_i64(co, "len")? as usize,
                capacity: req_i64(co, "capacity")? as usize,
            }),
            Some(_) => return Err(proto("cache must be an object")),
        };
        let opt_u64 = |key: &'static str| -> WireResult<Option<u64>> {
            match o.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => Ok(Some(
                    v.as_i64()
                        .ok_or_else(|| proto(format!("{key} must be a number")))?
                        as u64,
                )),
            }
        };
        Ok(StoreStats {
            repo_id: req_str(o, "repo_id")?,
            objects: req_i64(o, "objects")? as u64,
            cache,
            graph_commits: opt_u64("graph_commits")?,
            delta_objects: opt_u64("delta_objects")?,
            bloom_commits: opt_u64("bloom_commits")?,
        })
    }
}

/// What hub-side maintenance did to one hosted repository. A failed gc
/// is reported per-repository (`error`), never aborting the sweep —
/// one sick repository must not stop the rest from compacting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoMaintenance {
    /// Repository the pass visited.
    pub repo_id: String,
    /// Whether the repository's backend supports maintenance at all
    /// (in-memory stores do not).
    pub supported: bool,
    /// Objects written into the fresh pack.
    pub packed: u64,
    /// Unreachable objects discarded.
    pub dropped: u64,
    /// Why this repository's gc failed, when it did.
    pub error: Option<String>,
}

impl RepoMaintenance {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("repo_id", self.repo_id.as_str());
        o.insert("supported", self.supported);
        o.insert("packed", self.packed as i64);
        o.insert("dropped", self.dropped as i64);
        if let Some(e) = &self.error {
            o.insert("error", e.as_str());
        }
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<RepoMaintenance> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("maintenance entry must be an object"))?;
        Ok(RepoMaintenance {
            repo_id: req_str(o, "repo_id")?,
            supported: req_bool(o, "supported")?,
            packed: req_i64(o, "packed")? as u64,
            dropped: req_i64(o, "dropped")? as u64,
            error: opt_str(o, "error")?,
        })
    }
}

// ---------------------------------------------------------------------
// Server metrics (v3)
// ---------------------------------------------------------------------

/// A latency distribution on the wire: the sparse form of a
/// [`telemetry::HistogramSnapshot`] — only non-empty log2 buckets
/// travel, as `[bucket, count]` pairs, alongside the exact count, sum
/// and maximum. The `buckets` key is absent when the histogram is empty,
/// so an idle method costs four short fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_us: u64,
    /// Largest sample, microseconds (exact, not a bucket bound).
    pub max_us: u64,
    /// Non-empty `(bucket, count)` pairs, ascending by bucket.
    pub buckets: Vec<(u32, u64)>,
}

impl WireHistogram {
    /// The wire form of a snapshot.
    pub fn from_snapshot(s: &telemetry::HistogramSnapshot) -> WireHistogram {
        WireHistogram {
            count: s.count,
            sum_us: s.sum,
            max_us: s.max,
            buckets: s.sparse(),
        }
    }

    /// Rebuilds the dense snapshot, from which quantiles derive.
    pub fn to_snapshot(&self) -> telemetry::HistogramSnapshot {
        telemetry::HistogramSnapshot::from_sparse(
            &self.buckets,
            self.count,
            self.sum_us,
            self.max_us,
        )
    }

    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("count", self.count as i64);
        o.insert("sum_us", self.sum_us as i64);
        o.insert("max_us", self.max_us as i64);
        if !self.buckets.is_empty() {
            o.insert(
                "buckets",
                Value::Array(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| {
                            Value::Array(vec![Value::from(i as i64), Value::from(n as i64)])
                        })
                        .collect(),
                ),
            );
        }
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<WireHistogram> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("histogram must be an object"))?;
        let mut buckets = Vec::new();
        if let Some(arr) = o.get("buckets") {
            let arr = arr
                .as_array()
                .ok_or_else(|| proto("buckets must be an array"))?;
            for pair in arr {
                let [i, n] = two(pair, "bucket")?;
                let i = i
                    .as_i64()
                    .ok_or_else(|| proto("bucket index must be an integer"))?;
                let n = n
                    .as_i64()
                    .ok_or_else(|| proto("bucket count must be an integer"))?;
                buckets.push((i as u32, n as u64));
            }
        }
        Ok(WireHistogram {
            count: req_i64(o, "count")? as u64,
            sum_us: req_i64(o, "sum_us")? as u64,
            max_us: req_i64(o, "max_us")? as u64,
            buckets,
        })
    }
}

/// Per-method dispatch statistics: call count, latency distribution and
/// error tallies. The `errors` key is absent when the method has never
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodMetrics {
    /// Wire method name (`"log"`, `"push"`, ...).
    pub method: String,
    /// Total dispatches, successes and failures alike.
    pub calls: u64,
    /// `(error code, occurrences)` pairs, ascending by code.
    pub errors: Vec<(String, u64)>,
    /// Dispatch latency in microseconds. The server times a sample of
    /// calls (always including a method's first), so `latency.count` is
    /// the number of *timed* calls and may trail `calls`.
    pub latency: WireHistogram,
}

impl MethodMetrics {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("method", self.method.as_str());
        o.insert("calls", self.calls as i64);
        if !self.errors.is_empty() {
            o.insert(
                "errors",
                Value::Array(
                    self.errors
                        .iter()
                        .map(|(code, n)| {
                            Value::Array(vec![Value::from(code.as_str()), Value::from(*n as i64)])
                        })
                        .collect(),
                ),
            );
        }
        o.insert("latency", self.latency.to_value());
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<MethodMetrics> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("method metrics must be an object"))?;
        let mut errors = Vec::new();
        if let Some(arr) = o.get("errors") {
            let arr = arr
                .as_array()
                .ok_or_else(|| proto("errors must be an array"))?;
            for pair in arr {
                let [code, n] = two(pair, "error tally")?;
                let n = n
                    .as_i64()
                    .ok_or_else(|| proto("error count must be an integer"))?;
                errors.push((str_of(code, "error code")?, n as u64));
            }
        }
        Ok(MethodMetrics {
            method: req_str(o, "method")?,
            calls: req_i64(o, "calls")? as u64,
            errors,
            latency: WireHistogram::from_value(
                o.get("latency").ok_or_else(|| proto("missing latency"))?,
            )?,
        })
    }
}

/// Socket-layer gauges and counters, exported by the reactor. Absent
/// from a [`MetricsSnapshot`] (field and wire key both) when the hub is
/// embedded in-process and no transport ever attached.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransportMetrics {
    /// Connections currently open.
    pub open_connections: i64,
    /// Requests parked in the worker queue right now.
    pub queue_depth: i64,
    /// Workers executing a request right now.
    pub busy_workers: i64,
    /// Request bytes received over line framing (v1/v2).
    pub bytes_in_line: u64,
    /// Response bytes sent over line framing.
    pub bytes_out_line: u64,
    /// Request bytes received over v3 binary framing.
    pub bytes_in_binary: u64,
    /// Response bytes sent over v3 binary framing.
    pub bytes_out_binary: u64,
    /// Frames refused by the size/count caps before execution.
    pub frames_rejected: u64,
    /// Connections torn down abruptly — server shutdown under live
    /// peers, stall timeouts, write failures, or a peer hanging up with
    /// a request still in flight: the server-side tally of the
    /// `transport_closed` errors clients observe.
    pub transport_closed: u64,
    /// Uncompressed bytes of `objects_ext` payloads moved.
    pub obj_raw_bytes: u64,
    /// Their on-wire deflated size (ratio = deflate / raw).
    pub obj_deflate_bytes: u64,
}

impl TransportMetrics {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("open_connections", self.open_connections);
        o.insert("queue_depth", self.queue_depth);
        o.insert("busy_workers", self.busy_workers);
        o.insert("bytes_in_line", self.bytes_in_line as i64);
        o.insert("bytes_out_line", self.bytes_out_line as i64);
        o.insert("bytes_in_binary", self.bytes_in_binary as i64);
        o.insert("bytes_out_binary", self.bytes_out_binary as i64);
        o.insert("frames_rejected", self.frames_rejected as i64);
        o.insert("transport_closed", self.transport_closed as i64);
        o.insert("obj_raw_bytes", self.obj_raw_bytes as i64);
        o.insert("obj_deflate_bytes", self.obj_deflate_bytes as i64);
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<TransportMetrics> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("transport metrics must be an object"))?;
        Ok(TransportMetrics {
            open_connections: req_i64(o, "open_connections")?,
            queue_depth: req_i64(o, "queue_depth")?,
            busy_workers: req_i64(o, "busy_workers")?,
            bytes_in_line: req_i64(o, "bytes_in_line")? as u64,
            bytes_out_line: req_i64(o, "bytes_out_line")? as u64,
            bytes_in_binary: req_i64(o, "bytes_in_binary")? as u64,
            bytes_out_binary: req_i64(o, "bytes_out_binary")? as u64,
            frames_rejected: req_i64(o, "frames_rejected")? as u64,
            transport_closed: req_i64(o, "transport_closed")? as u64,
            obj_raw_bytes: req_i64(o, "obj_raw_bytes")? as u64,
            obj_deflate_bytes: req_i64(o, "obj_deflate_bytes")? as u64,
        })
    }
}

/// Storage-layer counters aggregated across every hosted repository:
/// read-cache totals plus the process-wide pack/loose and
/// graph/fallback tallies from [`gitlite::metrics`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreMetrics {
    /// Hosted repositories.
    pub repos: u64,
    /// Read-cache hits summed over all hosted stores.
    pub cache_hits: u64,
    /// Read-cache misses summed over all hosted stores.
    pub cache_misses: u64,
    /// Object reads served from packs.
    pub pack_reads: u64,
    /// Object reads served loose.
    pub loose_reads: u64,
    /// History walks answered by the commit-graph.
    pub graph_walks: u64,
    /// History walks that fell back to decoding commits.
    pub fallback_walks: u64,
    /// Delta links applied while resolving packed objects.
    pub delta_resolutions: u64,
    /// Bloom-filter "maybe changed" answers that were real changes.
    pub bloom_hits: u64,
    /// Bloom-filter definitive "unchanged" answers (diffs skipped).
    pub bloom_skips: u64,
    /// Bloom "maybe" answers the exact check refuted.
    pub bloom_false_positives: u64,
}

impl StoreMetrics {
    /// Cache hits over lookups, `None` before the first lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("repos", self.repos as i64);
        o.insert("cache_hits", self.cache_hits as i64);
        o.insert("cache_misses", self.cache_misses as i64);
        o.insert("pack_reads", self.pack_reads as i64);
        o.insert("loose_reads", self.loose_reads as i64);
        o.insert("graph_walks", self.graph_walks as i64);
        o.insert("fallback_walks", self.fallback_walks as i64);
        // Newer counters follow the absent-field rule: the key is only
        // emitted once the counter has fired, so pre-delta/Bloom peers
        // (and the pinned goldens) see byte-identical objects.
        for (key, v) in [
            ("delta_resolutions", self.delta_resolutions),
            ("bloom_hits", self.bloom_hits),
            ("bloom_skips", self.bloom_skips),
            ("bloom_false_positives", self.bloom_false_positives),
        ] {
            if v > 0 {
                o.insert(key, v as i64);
            }
        }
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<StoreMetrics> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("store metrics must be an object"))?;
        let opt_counter = |key: &'static str| -> WireResult<u64> {
            match o.get(key) {
                None | Some(Value::Null) => Ok(0),
                Some(v) => Ok(v
                    .as_i64()
                    .ok_or_else(|| proto(format!("{key} must be a number")))?
                    as u64),
            }
        };
        Ok(StoreMetrics {
            repos: req_i64(o, "repos")? as u64,
            cache_hits: req_i64(o, "cache_hits")? as u64,
            cache_misses: req_i64(o, "cache_misses")? as u64,
            pack_reads: req_i64(o, "pack_reads")? as u64,
            loose_reads: req_i64(o, "loose_reads")? as u64,
            graph_walks: req_i64(o, "graph_walks")? as u64,
            fallback_walks: req_i64(o, "fallback_walks")? as u64,
            delta_resolutions: opt_counter("delta_resolutions")?,
            bloom_hits: opt_counter("bloom_hits")?,
            bloom_skips: opt_counter("bloom_skips")?,
            bloom_false_positives: opt_counter("bloom_false_positives")?,
        })
    }
}

/// Abuse-resistance counters: how often the hub said *no* for reasons
/// other than the request being wrong. Every field follows the
/// absent-field rule (key emitted only once the counter has fired), and
/// the whole section is absent from a [`MetricsSnapshot`] until any
/// fires — pre-existing goldens never see it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LimitsMetrics {
    /// Failed authentications: bad/expired/revoked tokens, wrong or
    /// missing login secrets, logins refused by an active lockout.
    pub auth_failures: u64,
    /// Requests refused by a per-user or per-repo token bucket.
    pub rate_rejections: u64,
    /// Pushes/imports refused by a bundle or repository size quota.
    pub quota_rejections: u64,
    /// Connections answered with `server_busy` and closed at accept
    /// time (overload or per-IP cap).
    pub conns_shed: u64,
}

impl LimitsMetrics {
    /// True when nothing has ever been refused — the section stays off
    /// the wire.
    pub fn is_empty(&self) -> bool {
        self.auth_failures == 0
            && self.rate_rejections == 0
            && self.quota_rejections == 0
            && self.conns_shed == 0
    }

    fn to_value(&self) -> Value {
        let mut o = Object::new();
        for (key, v) in [
            ("auth_failures", self.auth_failures),
            ("rate_rejections", self.rate_rejections),
            ("quota_rejections", self.quota_rejections),
            ("conns_shed", self.conns_shed),
        ] {
            if v > 0 {
                o.insert(key, v as i64);
            }
        }
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<LimitsMetrics> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("limits metrics must be an object"))?;
        let opt_counter = |key: &'static str| -> WireResult<u64> {
            match o.get(key) {
                None | Some(Value::Null) => Ok(0),
                Some(v) => Ok(v
                    .as_i64()
                    .ok_or_else(|| proto(format!("{key} must be a number")))?
                    as u64),
            }
        };
        Ok(LimitsMetrics {
            auth_failures: opt_counter("auth_failures")?,
            rate_rejections: opt_counter("rate_rejections")?,
            quota_rejections: opt_counter("quota_rejections")?,
            conns_shed: opt_counter("conns_shed")?,
        })
    }
}

/// Replication health of a follower hub (see [`crate::repl`]): who the
/// primary is, how far behind the follower sits, and how rocky the link
/// has been. The whole section is absent from a [`MetricsSnapshot`]
/// (field and wire key both) on a hub that is not following anyone, so
/// pre-replication peers and the pinned goldens never see it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplMetrics {
    /// Wire address of the primary being followed.
    pub primary: String,
    /// Seconds since the last successful sync round (`-1` before the
    /// first one) — `gitcite_repl_lag_seconds`.
    pub lag_seconds: i64,
    /// Primary logical epoch observed by the last successful round.
    pub epoch: i64,
    /// Repositories whose frontier differed from the primary's at the
    /// start of the last round — `gitcite_repl_repos_behind`.
    pub repos_behind: u64,
    /// Per-repo cursor deltas behind that count: `(repo id, refs that
    /// were added/moved/deleted upstream)`.
    pub behind: Vec<(String, u64)>,
    /// Completed sync rounds.
    pub rounds: u64,
    /// Failed rounds followed by a backed-off reconnect.
    pub reconnects: u64,
}

impl ReplMetrics {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("primary", self.primary.as_str());
        o.insert("lag_seconds", self.lag_seconds);
        o.insert("epoch", self.epoch);
        o.insert("repos_behind", self.repos_behind as i64);
        if !self.behind.is_empty() {
            o.insert(
                "behind",
                Value::Array(
                    self.behind
                        .iter()
                        .map(|(repo, n)| {
                            Value::Array(vec![Value::from(repo.as_str()), Value::from(*n as i64)])
                        })
                        .collect(),
                ),
            );
        }
        o.insert("rounds", self.rounds as i64);
        o.insert("reconnects", self.reconnects as i64);
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<ReplMetrics> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("repl metrics must be an object"))?;
        let mut behind = Vec::new();
        if let Some(v) = o.get("behind") {
            for pair in v
                .as_array()
                .ok_or_else(|| proto("behind must be an array"))?
            {
                let [repo, n] = two(pair, "behind entry")?;
                let n = n
                    .as_i64()
                    .ok_or_else(|| proto("behind delta must be an integer"))?;
                behind.push((str_of(repo, "behind repo")?, n as u64));
            }
        }
        Ok(ReplMetrics {
            primary: req_str(o, "primary")?,
            lag_seconds: req_i64(o, "lag_seconds")?,
            epoch: req_i64(o, "epoch")?,
            repos_behind: req_i64(o, "repos_behind")? as u64,
            behind,
            rounds: req_i64(o, "rounds")? as u64,
            reconnects: req_i64(o, "reconnects")? as u64,
        })
    }
}

/// One repository's replication frontier in a [`ReplStatus`] reply: its
/// head and every `(branch, tip)` pair. A follower compares this against
/// its local copy to decide whether a fetch is needed — the per-repo
/// half of the replication cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplRepoStatus {
    /// Repository id (`owner/name`).
    pub repo_id: String,
    /// Currently checked-out branch, when any.
    pub head: Option<String>,
    /// `(branch, tip)` pairs in the server's canonical order.
    pub refs: Vec<(String, ObjectId)>,
}

impl ReplRepoStatus {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("repo_id", self.repo_id.as_str());
        if let Some(h) = &self.head {
            o.insert("head", h.as_str());
        }
        o.insert(
            "refs",
            Value::Array(
                self.refs
                    .iter()
                    .map(|(b, tip)| Value::Array(vec![Value::from(b.as_str()), id_value(*tip)]))
                    .collect(),
            ),
        );
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<ReplRepoStatus> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("repl repo status must be an object"))?;
        let mut refs = Vec::new();
        for pair in req_arr(o, "refs")? {
            let [b, tip] = two(pair, "ref")?;
            refs.push((str_of(b, "ref branch")?, parse_id(tip, "ref tip")?));
        }
        Ok(ReplRepoStatus {
            repo_id: req_str(o, "repo_id")?,
            head: opt_str(o, "head")?,
            refs,
        })
    }
}

/// The primary's answer to `repl_status` (see [`crate::repl`]): its
/// logical epoch, the audit log length (the follower's audit cursor
/// target), every repository's frontier, and the full deposit registry
/// (small records, replicated wholesale so followers resolve DOIs
/// faithfully).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplStatus {
    /// The primary's logical clock reading.
    pub epoch: i64,
    /// Number of audit events the primary holds (next sequence number).
    pub audit_seq: u64,
    /// Frontier of every hosted repository.
    pub repos: Vec<ReplRepoStatus>,
    /// The complete deposit registry.
    pub deposits: Vec<Deposit>,
}

impl ReplStatus {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("epoch", self.epoch);
        o.insert("audit_seq", self.audit_seq as i64);
        o.insert(
            "repos",
            Value::Array(self.repos.iter().map(|r| r.to_value()).collect()),
        );
        o.insert(
            "deposits",
            Value::Array(self.deposits.iter().map(deposit_value).collect()),
        );
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<ReplStatus> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("repl status must be an object"))?;
        let mut repos = Vec::new();
        for r in req_arr(o, "repos")? {
            repos.push(ReplRepoStatus::from_value(r)?);
        }
        let mut deposits = Vec::new();
        for d in req_arr(o, "deposits")? {
            deposits.push(parse_deposit(d)?);
        }
        Ok(ReplStatus {
            epoch: req_i64(o, "epoch")?,
            audit_seq: req_i64(o, "audit_seq")? as u64,
            repos,
            deposits,
        })
    }
}

/// The fleet's placement map as served over the wire (`placement`): the
/// participating hub addresses, plus — when the request named a
/// repository — the hub that homes it per rendezvous hashing
/// ([`crate::placement`]). An unconfigured follower answers with an
/// empty hub list and its primary's address, so clients can always
/// discover where writes go.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlacementInfo {
    /// The fleet's hub addresses (empty when placement is unconfigured).
    pub hubs: Vec<String>,
    /// The home hub for the queried repository, when one was named and
    /// a home is known.
    pub primary: Option<String>,
}

impl PlacementInfo {
    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert(
            "hubs",
            Value::Array(self.hubs.iter().map(|h| Value::from(h.as_str())).collect()),
        );
        if let Some(p) = &self.primary {
            o.insert("primary", p.as_str());
        }
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<PlacementInfo> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("placement must be an object"))?;
        let mut hubs = Vec::new();
        for h in req_arr(o, "hubs")? {
            hubs.push(str_of(h, "placement hub")?);
        }
        Ok(PlacementInfo {
            hubs,
            primary: opt_str(o, "primary")?,
        })
    }
}

/// The full answer to [`ApiRequest::ServerMetrics`]: one point-in-time
/// view of the hub's health, from the dispatch layer down to storage.
/// Optional sections omit their wire key entirely when absent, per the
/// protocol's absent-field rule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Per-method dispatch stats, ascending by method name. Only
    /// methods dispatched at least once appear.
    pub methods: Vec<MethodMetrics>,
    /// Socket-layer stats; `None` when no transport is attached.
    pub transport: Option<TransportMetrics>,
    /// Storage-layer stats; `None` when metrics are disabled.
    pub store: Option<StoreMetrics>,
    /// Abuse-resistance tallies; `None` until the hub refuses anything.
    pub limits: Option<LimitsMetrics>,
    /// Replication health; `None` unless this hub is a follower.
    pub repl: Option<ReplMetrics>,
}

impl MetricsSnapshot {
    /// The Prometheus text exposition of the snapshot (`gitcite_`-
    /// prefixed families; latency quantiles derived from the buckets).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.methods.is_empty() {
            out.push_str("# TYPE gitcite_method_calls_total counter\n");
            for m in &self.methods {
                let _ = writeln!(
                    out,
                    "gitcite_method_calls_total{{method=\"{}\"}} {}",
                    m.method, m.calls
                );
            }
            out.push_str("# TYPE gitcite_method_errors_total counter\n");
            for m in &self.methods {
                for (code, n) in &m.errors {
                    let _ = writeln!(
                        out,
                        "gitcite_method_errors_total{{method=\"{}\",code=\"{code}\"}} {n}",
                        m.method
                    );
                }
            }
            out.push_str("# TYPE gitcite_method_latency_us summary\n");
            for m in &self.methods {
                let snap = m.latency.to_snapshot();
                for (q, v) in [(0.5, snap.p50()), (0.9, snap.p90()), (0.99, snap.p99())] {
                    let _ = writeln!(
                        out,
                        "gitcite_method_latency_us{{method=\"{}\",quantile=\"{q}\"}} {v}",
                        m.method
                    );
                }
                let _ = writeln!(
                    out,
                    "gitcite_method_latency_us_sum{{method=\"{}\"}} {}",
                    m.method, snap.sum
                );
                let _ = writeln!(
                    out,
                    "gitcite_method_latency_us_count{{method=\"{}\"}} {}",
                    m.method, snap.count
                );
            }
        }
        if let Some(t) = &self.transport {
            for (name, v) in [
                ("open_connections", t.open_connections),
                ("queue_depth", t.queue_depth),
                ("busy_workers", t.busy_workers),
            ] {
                let _ = writeln!(out, "# TYPE gitcite_{name} gauge\ngitcite_{name} {v}");
            }
            for (name, v) in [
                ("bytes_in_line", t.bytes_in_line),
                ("bytes_out_line", t.bytes_out_line),
                ("bytes_in_binary", t.bytes_in_binary),
                ("bytes_out_binary", t.bytes_out_binary),
                ("frames_rejected", t.frames_rejected),
                ("transport_closed", t.transport_closed),
                ("obj_raw_bytes", t.obj_raw_bytes),
                ("obj_deflate_bytes", t.obj_deflate_bytes),
            ] {
                let _ = writeln!(
                    out,
                    "# TYPE gitcite_{name}_total counter\ngitcite_{name}_total {v}"
                );
            }
        }
        if let Some(s) = &self.store {
            let _ = writeln!(out, "# TYPE gitcite_repos gauge\ngitcite_repos {}", s.repos);
            for (name, v) in [
                ("store_cache_hits", s.cache_hits),
                ("store_cache_misses", s.cache_misses),
                ("store_pack_reads", s.pack_reads),
                ("store_loose_reads", s.loose_reads),
                ("store_graph_walks", s.graph_walks),
                ("store_fallback_walks", s.fallback_walks),
                ("store_delta_resolutions", s.delta_resolutions),
                ("store_bloom_hits", s.bloom_hits),
                ("store_bloom_skips", s.bloom_skips),
                ("store_bloom_false_positives", s.bloom_false_positives),
            ] {
                let _ = writeln!(
                    out,
                    "# TYPE gitcite_{name}_total counter\ngitcite_{name}_total {v}"
                );
            }
        }
        if let Some(l) = &self.limits {
            for (name, v) in [
                ("auth_failures", l.auth_failures),
                ("rate_rejections", l.rate_rejections),
                ("quota_rejections", l.quota_rejections),
                ("conns_shed", l.conns_shed),
            ] {
                let _ = writeln!(
                    out,
                    "# TYPE gitcite_{name}_total counter\ngitcite_{name}_total {v}"
                );
            }
        }
        if let Some(r) = &self.repl {
            for (name, v) in [
                ("repl_lag_seconds", r.lag_seconds),
                ("repl_epoch", r.epoch),
                ("repl_repos_behind", r.repos_behind as i64),
            ] {
                let _ = writeln!(out, "# TYPE gitcite_{name} gauge\ngitcite_{name} {v}");
            }
            for (name, v) in [("repl_rounds", r.rounds), ("repl_reconnects", r.reconnects)] {
                let _ = writeln!(
                    out,
                    "# TYPE gitcite_{name}_total counter\ngitcite_{name}_total {v}"
                );
            }
        }
        out
    }

    fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert(
            "methods",
            Value::Array(self.methods.iter().map(|m| m.to_value()).collect()),
        );
        if let Some(t) = &self.transport {
            o.insert("transport", t.to_value());
        }
        if let Some(s) = &self.store {
            o.insert("store", s.to_value());
        }
        if let Some(l) = &self.limits {
            o.insert("limits", l.to_value());
        }
        if let Some(r) = &self.repl {
            o.insert("repl", r.to_value());
        }
        Value::Object(o)
    }

    fn from_value(v: &Value) -> WireResult<MetricsSnapshot> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("metrics must be an object"))?;
        let mut methods = Vec::new();
        for m in req_arr(o, "methods")? {
            methods.push(MethodMetrics::from_value(m)?);
        }
        let transport = match o.get("transport") {
            None | Some(Value::Null) => None,
            Some(v) => Some(TransportMetrics::from_value(v)?),
        };
        let store = match o.get("store") {
            None | Some(Value::Null) => None,
            Some(v) => Some(StoreMetrics::from_value(v)?),
        };
        let limits = match o.get("limits") {
            None | Some(Value::Null) => None,
            Some(v) => Some(LimitsMetrics::from_value(v)?),
        };
        let repl = match o.get("repl") {
            None | Some(Value::Null) => None,
            Some(v) => Some(ReplMetrics::from_value(v)?),
        };
        Ok(MetricsSnapshot {
            methods,
            transport,
            store,
            limits,
            repl,
        })
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Every operation the platform exposes, as a typed request.
///
/// Tokens travel as their raw string form (the credential itself);
/// repositories travel as [`RepoBundle`]s.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings match the typed `Hub` methods
pub enum ApiRequest {
    // auth
    /// `secret` (v3, absent-field rule) enrolls a credential: the hub
    /// stores a salted hash and every future login must present the
    /// secret. Absent = open registration (the paper simulator's model).
    RegisterUser {
        username: String,
        display_name: String,
        secret: Option<String>,
    },
    /// `secret` (v3, absent-field rule) is required for users registered
    /// with one, verified constant-time against the stored salted hash.
    Login {
        username: String,
        secret: Option<String>,
    },
    /// v3: exchange a known (possibly expired) token for a fresh one with
    /// a new lifetime, revoking the old. The one call an expired token is
    /// still good for.
    Refresh {
        token: String,
    },
    Revoke {
        token: String,
    },
    Whoami {
        token: String,
    },
    // repositories
    CreateRepo {
        token: String,
        name: String,
    },
    ImportRepo {
        token: String,
        name: String,
        bundle: RepoBundle,
    },
    AddMember {
        token: String,
        repo_id: String,
        username: String,
        role: Role,
    },
    RoleOf {
        repo_id: String,
        username: String,
    },
    CanWrite {
        token: String,
        repo_id: String,
    },
    ListRepos,
    // public reads
    Branches {
        repo_id: String,
    },
    ListFiles {
        repo_id: String,
        branch: String,
    },
    ReadFile {
        repo_id: String,
        branch: String,
        path: RepoPath,
    },
    Log {
        repo_id: String,
        branch: String,
    },
    /// v2: one page of a branch's log. `cursor` is opaque (obtained from
    /// a previous page); `limit` is clamped to [`MAX_PAGE_SIZE`].
    LogPage {
        repo_id: String,
        branch: String,
        cursor: Option<String>,
        limit: Option<u32>,
    },
    CloneRepo {
        repo_id: String,
    },
    /// v2: have/want exchange ahead of an incremental push — ref tips
    /// plus a sample of recent commit ids the client holds.
    Negotiate {
        repo_id: String,
        haves: Vec<ObjectId>,
    },
    // citations
    GenerateCitation {
        repo_id: String,
        branch: String,
        path: RepoPath,
    },
    CitationEntry {
        repo_id: String,
        branch: String,
        path: RepoPath,
    },
    AddCite {
        token: String,
        repo_id: String,
        branch: String,
        path: RepoPath,
        citation: Citation,
    },
    ModifyCite {
        token: String,
        repo_id: String,
        branch: String,
        path: RepoPath,
        citation: Citation,
    },
    DelCite {
        token: String,
        repo_id: String,
        branch: String,
        path: RepoPath,
    },
    // sync
    Push {
        token: String,
        repo_id: String,
        branch: String,
        force: bool,
        bundle: RepoBundle,
    },
    Fork {
        token: String,
        src_repo_id: String,
        new_name: String,
    },
    MergeBranches {
        token: String,
        repo_id: String,
        branch: String,
        other_branch: String,
        strategy: MergeStrategy,
    },
    // archives
    Deposit {
        token: String,
        repo_id: String,
        branch: String,
        title: String,
    },
    ResolveDoi {
        doi: String,
    },
    Archive {
        repo_id: String,
    },
    ResolveSwhid {
        swhid: String,
    },
    ArchiveVisits {
        repo_id: String,
    },
    // credit
    CreditedAuthors {
        repo_id: String,
        branch: String,
    },
    FindReposCiting {
        author: String,
    },
    // operations
    AuditLog,
    /// v2: one page of the audit log (cursor = next sequence number).
    AuditLogPage {
        cursor: Option<String>,
        limit: Option<u32>,
    },
    /// v2: one page of the repository listing (cursor = last id seen).
    ListReposPage {
        cursor: Option<String>,
        limit: Option<u32>,
    },
    StoreStats {
        repo_id: String,
    },
    Maintenance,
    /// v3: one point-in-time health snapshot of the whole hub
    /// ([`MetricsSnapshot`]). Operator-scoped on sockets: the token must
    /// belong to an operator there; trusted in-process embedders may
    /// omit it.
    ServerMetrics {
        token: Option<String>,
    },
    AdvanceClock {
        ts: i64,
    },
    /// v3: several requests in one envelope, executed in order on the
    /// server, answered by [`ApiResponse::Batch`] in the same order (one
    /// round trip for flows like the popup's sign-in). Batches cannot
    /// nest, and batch items always carry their objects inline.
    Batch {
        requests: Vec<ApiRequest>,
    },
    // replication (see `crate::repl`; v3 additions within the version)
    /// v3: the primary's replication frontier — epoch, audit length,
    /// every repository's refs, the deposit registry
    /// ([`ApiResponse::ReplStatus`]). Public read: it reveals nothing a
    /// crawl of the public read surface would not.
    ReplStatus,
    /// v3: fetch one repository incrementally for replication. `haves`
    /// are the follower's local branch tips; the reply is a delta
    /// [`ApiResponse::Bundle`] past the negotiated frontier (full when
    /// nothing is shared).
    ReplFetch {
        repo_id: String,
        haves: Vec<ObjectId>,
    },
    /// v3: the fleet's placement map ([`ApiResponse::Placement`]);
    /// `repo_id` (absent-field rule) additionally asks which hub homes
    /// that repository.
    Placement {
        repo_id: Option<String>,
    },
}

fn strategy_str(s: MergeStrategy) -> &'static str {
    match s {
        MergeStrategy::Union => "union",
        MergeStrategy::Ours => "ours",
        MergeStrategy::Theirs => "theirs",
        MergeStrategy::ThreeWay => "three-way",
    }
}

fn strategy_parse(s: &str) -> WireResult<MergeStrategy> {
    Ok(match s {
        "union" => MergeStrategy::Union,
        "ours" => MergeStrategy::Ours,
        "theirs" => MergeStrategy::Theirs,
        "three-way" => MergeStrategy::ThreeWay,
        other => return Err(proto(format!("unknown merge strategy {other:?}"))),
    })
}

fn role_str(r: Role) -> &'static str {
    match r {
        Role::Reader => "reader",
        Role::Member => "member",
        Role::Owner => "owner",
    }
}

fn role_parse(s: &str) -> WireResult<Role> {
    Ok(match s {
        "reader" => Role::Reader,
        "member" => Role::Member,
        "owner" => Role::Owner,
        other => return Err(proto(format!("unknown role {other:?}"))),
    })
}

/// Every wire method name, indexed by [`ApiRequest::method_index`].
/// The hub keys its per-method dispatch stats by this index so the hot
/// path is one array access, not a map lookup.
pub const METHOD_NAMES: &[&str] = &[
    "register_user",
    "login",
    "revoke",
    "whoami",
    "create_repo",
    "import_repo",
    "add_member",
    "role_of",
    "can_write",
    "list_repos",
    "branches",
    "list_files",
    "read_file",
    "log",
    "log_page",
    "clone_repo",
    "negotiate",
    "generate_citation",
    "citation_entry",
    "add_cite",
    "modify_cite",
    "del_cite",
    "push",
    "fork",
    "merge_branches",
    "deposit",
    "resolve_doi",
    "archive",
    "resolve_swhid",
    "archive_visits",
    "credited_authors",
    "find_repos_citing",
    "audit_log",
    "audit_log_page",
    "list_repos_page",
    "store_stats",
    "maintenance",
    "server_metrics",
    "advance_clock",
    "batch",
    "refresh",
    "repl_status",
    "repl_fetch",
    "placement",
];

impl ApiRequest {
    /// This request's position in [`METHOD_NAMES`].
    pub fn method_index(&self) -> usize {
        match self {
            ApiRequest::RegisterUser { .. } => 0,
            ApiRequest::Login { .. } => 1,
            ApiRequest::Revoke { .. } => 2,
            ApiRequest::Whoami { .. } => 3,
            ApiRequest::CreateRepo { .. } => 4,
            ApiRequest::ImportRepo { .. } => 5,
            ApiRequest::AddMember { .. } => 6,
            ApiRequest::RoleOf { .. } => 7,
            ApiRequest::CanWrite { .. } => 8,
            ApiRequest::ListRepos => 9,
            ApiRequest::Branches { .. } => 10,
            ApiRequest::ListFiles { .. } => 11,
            ApiRequest::ReadFile { .. } => 12,
            ApiRequest::Log { .. } => 13,
            ApiRequest::LogPage { .. } => 14,
            ApiRequest::CloneRepo { .. } => 15,
            ApiRequest::Negotiate { .. } => 16,
            ApiRequest::GenerateCitation { .. } => 17,
            ApiRequest::CitationEntry { .. } => 18,
            ApiRequest::AddCite { .. } => 19,
            ApiRequest::ModifyCite { .. } => 20,
            ApiRequest::DelCite { .. } => 21,
            ApiRequest::Push { .. } => 22,
            ApiRequest::Fork { .. } => 23,
            ApiRequest::MergeBranches { .. } => 24,
            ApiRequest::Deposit { .. } => 25,
            ApiRequest::ResolveDoi { .. } => 26,
            ApiRequest::Archive { .. } => 27,
            ApiRequest::ResolveSwhid { .. } => 28,
            ApiRequest::ArchiveVisits { .. } => 29,
            ApiRequest::CreditedAuthors { .. } => 30,
            ApiRequest::FindReposCiting { .. } => 31,
            ApiRequest::AuditLog => 32,
            ApiRequest::AuditLogPage { .. } => 33,
            ApiRequest::ListReposPage { .. } => 34,
            ApiRequest::StoreStats { .. } => 35,
            ApiRequest::Maintenance => 36,
            ApiRequest::ServerMetrics { .. } => 37,
            ApiRequest::AdvanceClock { .. } => 38,
            ApiRequest::Batch { .. } => 39,
            ApiRequest::Refresh { .. } => 40,
            ApiRequest::ReplStatus => 41,
            ApiRequest::ReplFetch { .. } => 42,
            ApiRequest::Placement { .. } => 43,
        }
    }

    /// The wire method name.
    pub fn method(&self) -> &'static str {
        METHOD_NAMES[self.method_index()]
    }

    /// The lowest protocol major version that can carry this request —
    /// the `v` the envelope is stamped with. v1-era methods with v1-era
    /// payloads stay at [`PROTOCOL_V1`] (byte-identical encoding); the
    /// v2 methods, and a `push`/`import_repo` whose bundle is a delta,
    /// need [`PROTOCOL_V2`]; `batch` needs [`PROTOCOL_V3`]. (The other
    /// v3 construct, `objects_ext`, is introduced by [`Self::encode_ext`]
    /// at encode time, which stamps v3 itself.)
    pub fn version(&self) -> i64 {
        match self {
            ApiRequest::Batch { .. }
            | ApiRequest::ServerMetrics { .. }
            | ApiRequest::Refresh { .. }
            | ApiRequest::ReplStatus
            | ApiRequest::ReplFetch { .. }
            | ApiRequest::Placement { .. } => PROTOCOL_V3,
            // A secret silently dropped by an old server would register
            // an unprotected account, so a secret-bearing register/login
            // is a v3 construct: v1/v2 peers refuse it instead.
            ApiRequest::RegisterUser {
                secret: Some(_), ..
            }
            | ApiRequest::Login {
                secret: Some(_), ..
            } => PROTOCOL_V3,
            ApiRequest::Negotiate { .. }
            | ApiRequest::LogPage { .. }
            | ApiRequest::AuditLogPage { .. }
            | ApiRequest::ListReposPage { .. } => PROTOCOL_V2,
            ApiRequest::Push { bundle, .. } | ApiRequest::ImportRepo { bundle, .. }
                if bundle.is_delta() =>
            {
                PROTOCOL_V2
            }
            _ => PROTOCOL_V1,
        }
    }

    /// The auth token this request carries, if the method is
    /// authenticated. Transports use this for per-connection token
    /// scoping without knowing anything about individual methods.
    pub fn token(&self) -> Option<&str> {
        match self {
            ApiRequest::Refresh { token }
            | ApiRequest::Revoke { token }
            | ApiRequest::Whoami { token }
            | ApiRequest::CreateRepo { token, .. }
            | ApiRequest::ImportRepo { token, .. }
            | ApiRequest::AddMember { token, .. }
            | ApiRequest::CanWrite { token, .. }
            | ApiRequest::AddCite { token, .. }
            | ApiRequest::ModifyCite { token, .. }
            | ApiRequest::DelCite { token, .. }
            | ApiRequest::Push { token, .. }
            | ApiRequest::Fork { token, .. }
            | ApiRequest::MergeBranches { token, .. }
            | ApiRequest::Deposit { token, .. } => Some(token),
            ApiRequest::ServerMetrics { token } => token.as_deref(),
            _ => None,
        }
    }

    /// True when re-sending this request after an ambiguous failure (the
    /// connection died before a response arrived) cannot change server
    /// state beyond what the first attempt did. The client's automatic
    /// retry loop only ever fires for these; everything that mints,
    /// mutates or commits is resubmitted deliberately by the caller.
    pub fn is_idempotent(&self) -> bool {
        match self {
            ApiRequest::Whoami { .. }
            | ApiRequest::RoleOf { .. }
            | ApiRequest::CanWrite { .. }
            | ApiRequest::ListRepos
            | ApiRequest::Branches { .. }
            | ApiRequest::ListFiles { .. }
            | ApiRequest::ReadFile { .. }
            | ApiRequest::Log { .. }
            | ApiRequest::LogPage { .. }
            | ApiRequest::CloneRepo { .. }
            | ApiRequest::Negotiate { .. }
            | ApiRequest::GenerateCitation { .. }
            | ApiRequest::CitationEntry { .. }
            | ApiRequest::ResolveDoi { .. }
            | ApiRequest::ResolveSwhid { .. }
            | ApiRequest::ArchiveVisits { .. }
            | ApiRequest::CreditedAuthors { .. }
            | ApiRequest::FindReposCiting { .. }
            | ApiRequest::AuditLog
            | ApiRequest::AuditLogPage { .. }
            | ApiRequest::ListReposPage { .. }
            | ApiRequest::StoreStats { .. }
            | ApiRequest::ServerMetrics { .. }
            | ApiRequest::ReplStatus
            | ApiRequest::ReplFetch { .. }
            | ApiRequest::Placement { .. } => true,
            // Everything else either writes (push, cite ops, deposit,
            // archive — it bumps visit counts), mints or revokes
            // credentials, or wraps other requests (batch: any item
            // could be a write).
            _ => false,
        }
    }

    /// The repository this request operates on, when it names one — the
    /// key the hub's per-repo rate limiter charges. `import_repo` /
    /// `create_repo` / `fork` target a repository that does not exist
    /// yet, so they charge only the per-user bucket.
    pub fn target_repo(&self) -> Option<&str> {
        match self {
            ApiRequest::AddMember { repo_id, .. }
            | ApiRequest::CanWrite { repo_id, .. }
            | ApiRequest::RoleOf { repo_id, .. }
            | ApiRequest::Branches { repo_id }
            | ApiRequest::ListFiles { repo_id, .. }
            | ApiRequest::ReadFile { repo_id, .. }
            | ApiRequest::Log { repo_id, .. }
            | ApiRequest::LogPage { repo_id, .. }
            | ApiRequest::CloneRepo { repo_id }
            | ApiRequest::Negotiate { repo_id, .. }
            | ApiRequest::GenerateCitation { repo_id, .. }
            | ApiRequest::CitationEntry { repo_id, .. }
            | ApiRequest::AddCite { repo_id, .. }
            | ApiRequest::ModifyCite { repo_id, .. }
            | ApiRequest::DelCite { repo_id, .. }
            | ApiRequest::Push { repo_id, .. }
            | ApiRequest::MergeBranches { repo_id, .. }
            | ApiRequest::Deposit { repo_id, .. }
            | ApiRequest::Archive { repo_id }
            | ApiRequest::ArchiveVisits { repo_id }
            | ApiRequest::CreditedAuthors { repo_id, .. }
            | ApiRequest::ReplFetch { repo_id, .. }
            | ApiRequest::StoreStats { repo_id } => Some(repo_id),
            ApiRequest::Fork { src_repo_id, .. } => Some(src_repo_id),
            _ => None,
        }
    }

    fn params_value(&self) -> Value {
        let mut p = Object::new();
        match self {
            ApiRequest::RegisterUser {
                username,
                display_name,
                secret,
            } => {
                p.insert("username", username.as_str());
                p.insert("display_name", display_name.as_str());
                if let Some(s) = secret {
                    p.insert("secret", s.as_str());
                }
            }
            ApiRequest::Login { username, secret } => {
                p.insert("username", username.as_str());
                if let Some(s) = secret {
                    p.insert("secret", s.as_str());
                }
            }
            ApiRequest::Refresh { token }
            | ApiRequest::Revoke { token }
            | ApiRequest::Whoami { token } => {
                p.insert("token", token.as_str());
            }
            ApiRequest::CreateRepo { token, name } => {
                p.insert("token", token.as_str());
                p.insert("name", name.as_str());
            }
            ApiRequest::ImportRepo {
                token,
                name,
                bundle,
            } => {
                p.insert("token", token.as_str());
                p.insert("name", name.as_str());
                p.insert("bundle", bundle.to_value());
            }
            ApiRequest::AddMember {
                token,
                repo_id,
                username,
                role,
            } => {
                p.insert("token", token.as_str());
                p.insert("repo_id", repo_id.as_str());
                p.insert("username", username.as_str());
                p.insert("role", role_str(*role));
            }
            ApiRequest::RoleOf { repo_id, username } => {
                p.insert("repo_id", repo_id.as_str());
                p.insert("username", username.as_str());
            }
            ApiRequest::CanWrite { token, repo_id } => {
                p.insert("token", token.as_str());
                p.insert("repo_id", repo_id.as_str());
            }
            ApiRequest::ListRepos | ApiRequest::AuditLog | ApiRequest::Maintenance => {}
            ApiRequest::ServerMetrics { token } => {
                if let Some(t) = token {
                    p.insert("token", t.as_str());
                }
            }
            ApiRequest::LogPage {
                repo_id,
                branch,
                cursor,
                limit,
            } => {
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
                insert_page_params(&mut p, cursor, limit);
            }
            ApiRequest::AuditLogPage { cursor, limit }
            | ApiRequest::ListReposPage { cursor, limit } => {
                insert_page_params(&mut p, cursor, limit);
            }
            ApiRequest::Negotiate { repo_id, haves } => {
                p.insert("repo_id", repo_id.as_str());
                p.insert(
                    "haves",
                    Value::Array(haves.iter().map(|id| id_value(*id)).collect()),
                );
            }
            ApiRequest::Branches { repo_id }
            | ApiRequest::CloneRepo { repo_id }
            | ApiRequest::Archive { repo_id }
            | ApiRequest::ArchiveVisits { repo_id }
            | ApiRequest::StoreStats { repo_id } => {
                p.insert("repo_id", repo_id.as_str());
            }
            ApiRequest::ListFiles { repo_id, branch }
            | ApiRequest::Log { repo_id, branch }
            | ApiRequest::CreditedAuthors { repo_id, branch } => {
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
            }
            ApiRequest::ReadFile {
                repo_id,
                branch,
                path,
            }
            | ApiRequest::GenerateCitation {
                repo_id,
                branch,
                path,
            }
            | ApiRequest::CitationEntry {
                repo_id,
                branch,
                path,
            } => {
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
                p.insert("path", path_value(path));
            }
            ApiRequest::AddCite {
                token,
                repo_id,
                branch,
                path,
                citation,
            }
            | ApiRequest::ModifyCite {
                token,
                repo_id,
                branch,
                path,
                citation,
            } => {
                p.insert("token", token.as_str());
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
                p.insert("path", path_value(path));
                p.insert("citation", citation.to_value());
            }
            ApiRequest::DelCite {
                token,
                repo_id,
                branch,
                path,
            } => {
                p.insert("token", token.as_str());
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
                p.insert("path", path_value(path));
            }
            ApiRequest::Push {
                token,
                repo_id,
                branch,
                force,
                bundle,
            } => {
                p.insert("token", token.as_str());
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
                p.insert("force", *force);
                p.insert("bundle", bundle.to_value());
            }
            ApiRequest::Fork {
                token,
                src_repo_id,
                new_name,
            } => {
                p.insert("token", token.as_str());
                p.insert("src_repo_id", src_repo_id.as_str());
                p.insert("new_name", new_name.as_str());
            }
            ApiRequest::MergeBranches {
                token,
                repo_id,
                branch,
                other_branch,
                strategy,
            } => {
                p.insert("token", token.as_str());
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
                p.insert("other_branch", other_branch.as_str());
                p.insert("strategy", strategy_str(*strategy));
            }
            ApiRequest::Deposit {
                token,
                repo_id,
                branch,
                title,
            } => {
                p.insert("token", token.as_str());
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
                p.insert("title", title.as_str());
            }
            ApiRequest::ResolveDoi { doi } => {
                p.insert("doi", doi.as_str());
            }
            ApiRequest::ResolveSwhid { swhid } => {
                p.insert("swhid", swhid.as_str());
            }
            ApiRequest::FindReposCiting { author } => {
                p.insert("author", author.as_str());
            }
            ApiRequest::AdvanceClock { ts } => {
                p.insert("ts", *ts);
            }
            ApiRequest::Batch { requests } => {
                p.insert(
                    "requests",
                    Value::Array(requests.iter().map(|r| r.envelope_value()).collect()),
                );
            }
            ApiRequest::ReplStatus => {}
            ApiRequest::ReplFetch { repo_id, haves } => {
                p.insert("repo_id", repo_id.as_str());
                p.insert(
                    "haves",
                    Value::Array(haves.iter().map(|id| id_value(*id)).collect()),
                );
            }
            ApiRequest::Placement { repo_id } => {
                if let Some(r) = repo_id {
                    p.insert("repo_id", r.as_str());
                }
            }
        }
        Value::Object(p)
    }

    /// The full envelope as a value, stamped with the lowest protocol
    /// version that can carry it (see [`ApiRequest::version`]).
    fn envelope_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("v", self.version());
        o.insert("method", self.method());
        o.insert("params", self.params_value());
        Value::Object(o)
    }

    /// Serializes to the one-line wire envelope, stamped with the lowest
    /// protocol version that can carry it (see [`ApiRequest::version`]).
    pub fn encode(&self) -> String {
        self.envelope_value().to_string_compact()
    }

    /// Serializes for the v3 binary framing: bundle object payloads are
    /// externalized into the returned side-channel vector and the
    /// envelope says `"objects_ext": n` (stamped `"v":3`). A request
    /// without a bundle returns an empty side channel and exactly the
    /// [`ApiRequest::encode`] bytes.
    pub fn encode_ext(&self) -> (String, Vec<(ObjectId, Vec<u8>)>) {
        let mut sink = Vec::new();
        let (v, params) = match self {
            ApiRequest::ImportRepo {
                token,
                name,
                bundle,
            } => {
                let mut p = Object::new();
                p.insert("token", token.as_str());
                p.insert("name", name.as_str());
                p.insert("bundle", bundle.to_value_ext(&mut sink));
                (PROTOCOL_V3, Value::Object(p))
            }
            ApiRequest::Push {
                token,
                repo_id,
                branch,
                force,
                bundle,
            } => {
                let mut p = Object::new();
                p.insert("token", token.as_str());
                p.insert("repo_id", repo_id.as_str());
                p.insert("branch", branch.as_str());
                p.insert("force", *force);
                p.insert("bundle", bundle.to_value_ext(&mut sink));
                (PROTOCOL_V3, Value::Object(p))
            }
            other => (other.version(), other.params_value()),
        };
        let mut o = Object::new();
        o.insert("v", v);
        o.insert("method", self.method());
        o.insert("params", params);
        (Value::Object(o).to_string_compact(), sink)
    }

    /// Parses a wire envelope.
    pub fn parse(text: &str) -> WireResult<ApiRequest> {
        let v = sjson::parse(text).map_err(|e| proto(format!("unparseable request: {e}")))?;
        Self::from_value(&v)
    }

    /// Parses a v3 envelope together with its side-channel objects.
    /// Bundles that say `objects_ext` draw from `objects` in order; a
    /// side channel with leftover objects, or an `objects_ext` reference
    /// from a pre-v3 envelope, is a protocol error.
    pub fn parse_ext(text: &str, objects: Vec<(ObjectId, Vec<u8>)>) -> WireResult<ApiRequest> {
        let v = sjson::parse(text).map_err(|e| proto(format!("unparseable request: {e}")))?;
        let mut sc = Sidecar {
            objects: objects.into(),
            used: false,
        };
        let req = Self::from_value_inner(&v, Some(&mut sc))?;
        if !sc.objects.is_empty() {
            return Err(proto(format!(
                "side channel carried {} unconsumed objects",
                sc.objects.len()
            )));
        }
        Ok(req)
    }

    /// Reads a request out of an already-parsed envelope value.
    pub fn from_value(v: &Value) -> WireResult<ApiRequest> {
        Self::from_value_inner(v, None)
    }

    fn from_value_inner(v: &Value, mut sidecar: Option<&mut Sidecar>) -> WireResult<ApiRequest> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("request must be an object"))?;
        let envelope_v = check_version(o)?;
        let method = req_str(o, "method")?;
        let empty = Object::new();
        let p = match o.get("params") {
            None | Some(Value::Null) => &empty,
            Some(Value::Object(p)) => p,
            Some(_) => return Err(proto("params must be an object")),
        };
        let req = match method.as_str() {
            "register_user" => ApiRequest::RegisterUser {
                username: req_str(p, "username")?,
                display_name: req_str(p, "display_name")?,
                secret: opt_str(p, "secret")?,
            },
            "login" => ApiRequest::Login {
                username: req_str(p, "username")?,
                secret: opt_str(p, "secret")?,
            },
            "refresh" => ApiRequest::Refresh {
                token: req_str(p, "token")?,
            },
            "revoke" => ApiRequest::Revoke {
                token: req_str(p, "token")?,
            },
            "whoami" => ApiRequest::Whoami {
                token: req_str(p, "token")?,
            },
            "create_repo" => ApiRequest::CreateRepo {
                token: req_str(p, "token")?,
                name: req_str(p, "name")?,
            },
            "import_repo" => ApiRequest::ImportRepo {
                token: req_str(p, "token")?,
                name: req_str(p, "name")?,
                bundle: RepoBundle::from_value_inner(
                    p.get("bundle").ok_or_else(|| proto("missing bundle"))?,
                    sidecar.as_deref_mut(),
                )?,
            },
            "add_member" => ApiRequest::AddMember {
                token: req_str(p, "token")?,
                repo_id: req_str(p, "repo_id")?,
                username: req_str(p, "username")?,
                role: role_parse(&req_str(p, "role")?)?,
            },
            "role_of" => ApiRequest::RoleOf {
                repo_id: req_str(p, "repo_id")?,
                username: req_str(p, "username")?,
            },
            "can_write" => ApiRequest::CanWrite {
                token: req_str(p, "token")?,
                repo_id: req_str(p, "repo_id")?,
            },
            "list_repos" => ApiRequest::ListRepos,
            "branches" => ApiRequest::Branches {
                repo_id: req_str(p, "repo_id")?,
            },
            "list_files" => ApiRequest::ListFiles {
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
            },
            "read_file" => ApiRequest::ReadFile {
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                path: req_path(p)?,
            },
            "log" => ApiRequest::Log {
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
            },
            "log_page" => {
                let (cursor, limit) = parse_page_params(p)?;
                ApiRequest::LogPage {
                    repo_id: req_str(p, "repo_id")?,
                    branch: req_str(p, "branch")?,
                    cursor,
                    limit,
                }
            }
            "clone_repo" => ApiRequest::CloneRepo {
                repo_id: req_str(p, "repo_id")?,
            },
            "negotiate" => {
                let mut haves = Vec::new();
                for id in req_arr(p, "haves")? {
                    haves.push(parse_id(id, "have")?);
                }
                ApiRequest::Negotiate {
                    repo_id: req_str(p, "repo_id")?,
                    haves,
                }
            }
            "generate_citation" => ApiRequest::GenerateCitation {
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                path: req_path(p)?,
            },
            "citation_entry" => ApiRequest::CitationEntry {
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                path: req_path(p)?,
            },
            "add_cite" => ApiRequest::AddCite {
                token: req_str(p, "token")?,
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                path: req_path(p)?,
                citation: parse_citation(
                    p.get("citation").ok_or_else(|| proto("missing citation"))?,
                )?,
            },
            "modify_cite" => ApiRequest::ModifyCite {
                token: req_str(p, "token")?,
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                path: req_path(p)?,
                citation: parse_citation(
                    p.get("citation").ok_or_else(|| proto("missing citation"))?,
                )?,
            },
            "del_cite" => ApiRequest::DelCite {
                token: req_str(p, "token")?,
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                path: req_path(p)?,
            },
            "push" => ApiRequest::Push {
                token: req_str(p, "token")?,
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                force: req_bool(p, "force")?,
                bundle: RepoBundle::from_value_inner(
                    p.get("bundle").ok_or_else(|| proto("missing bundle"))?,
                    sidecar.as_deref_mut(),
                )?,
            },
            "fork" => ApiRequest::Fork {
                token: req_str(p, "token")?,
                src_repo_id: req_str(p, "src_repo_id")?,
                new_name: req_str(p, "new_name")?,
            },
            "merge_branches" => ApiRequest::MergeBranches {
                token: req_str(p, "token")?,
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                other_branch: req_str(p, "other_branch")?,
                strategy: strategy_parse(&req_str(p, "strategy")?)?,
            },
            "deposit" => ApiRequest::Deposit {
                token: req_str(p, "token")?,
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
                title: req_str(p, "title")?,
            },
            "resolve_doi" => ApiRequest::ResolveDoi {
                doi: req_str(p, "doi")?,
            },
            "archive" => ApiRequest::Archive {
                repo_id: req_str(p, "repo_id")?,
            },
            "resolve_swhid" => ApiRequest::ResolveSwhid {
                swhid: req_str(p, "swhid")?,
            },
            "archive_visits" => ApiRequest::ArchiveVisits {
                repo_id: req_str(p, "repo_id")?,
            },
            "credited_authors" => ApiRequest::CreditedAuthors {
                repo_id: req_str(p, "repo_id")?,
                branch: req_str(p, "branch")?,
            },
            "find_repos_citing" => ApiRequest::FindReposCiting {
                author: req_str(p, "author")?,
            },
            "audit_log" => ApiRequest::AuditLog,
            "audit_log_page" => {
                let (cursor, limit) = parse_page_params(p)?;
                ApiRequest::AuditLogPage { cursor, limit }
            }
            "list_repos_page" => {
                let (cursor, limit) = parse_page_params(p)?;
                ApiRequest::ListReposPage { cursor, limit }
            }
            "store_stats" => ApiRequest::StoreStats {
                repo_id: req_str(p, "repo_id")?,
            },
            "maintenance" => ApiRequest::Maintenance,
            "server_metrics" => ApiRequest::ServerMetrics {
                token: opt_str(p, "token")?,
            },
            "advance_clock" => ApiRequest::AdvanceClock {
                ts: req_i64(p, "ts")?,
            },
            "batch" => {
                let mut requests = Vec::new();
                for item in req_arr(p, "requests")? {
                    // Batch items get no sidecar: objects stay inline.
                    let inner = ApiRequest::from_value(item)?;
                    if matches!(inner, ApiRequest::Batch { .. }) {
                        return Err(proto("batch requests cannot nest"));
                    }
                    requests.push(inner);
                }
                ApiRequest::Batch { requests }
            }
            "repl_status" => ApiRequest::ReplStatus,
            "repl_fetch" => {
                let mut haves = Vec::new();
                for id in req_arr(p, "haves")? {
                    haves.push(parse_id(id, "have")?);
                }
                ApiRequest::ReplFetch {
                    repo_id: req_str(p, "repo_id")?,
                    haves,
                }
            }
            "placement" => ApiRequest::Placement {
                repo_id: opt_str(p, "repo_id")?,
            },
            other => return Err(proto(format!("unknown method {other:?}"))),
        };
        // A v2-only construct inside a v1 envelope would be misread by a
        // v1 peer; refuse instead of guessing.
        if req.version() > envelope_v {
            return Err(proto(format!(
                "method {:?} with this payload requires protocol v{} (envelope says v{envelope_v})",
                req.method(),
                req.version(),
            )));
        }
        if sidecar.as_deref().is_some_and(|s| s.used) && envelope_v < PROTOCOL_V3 {
            return Err(proto(format!(
                "objects_ext requires protocol v{PROTOCOL_V3} (envelope says v{envelope_v})"
            )));
        }
        Ok(req)
    }
}

fn insert_page_params(p: &mut Object, cursor: &Option<String>, limit: &Option<u32>) {
    if let Some(c) = cursor {
        p.insert("cursor", c.as_str());
    }
    if let Some(n) = limit {
        p.insert("limit", *n as i64);
    }
}

fn parse_page_params(p: &Object) -> WireResult<(Option<String>, Option<u32>)> {
    let cursor = opt_str(p, "cursor")?;
    let limit = match p.get("limit") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_i64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| proto("limit must be a non-negative integer"))?,
        ),
    };
    Ok((cursor, limit))
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Every result shape the platform returns. Self-describing on the wire
/// (each carries a `type` tag), so responses parse independently of the
/// request that produced them.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // shapes mirror the typed `Hub` method returns
pub enum ApiResponse {
    Unit,
    Token(String),
    User(User),
    /// A repository id, username or similar identifier.
    Id(String),
    Names(Vec<String>),
    Paths(Vec<RepoPath>),
    FileData(Vec<u8>),
    Log(Vec<LogEntry>),
    /// v2: one page of a branch's log.
    LogPage(Page<LogEntry>),
    /// v2: one page of the audit log.
    AuditPage(Page<AuditEvent>),
    /// v2: one page of a name listing (repository ids).
    NamesPage(Page<String>),
    /// v2: the server's answer to a have/want exchange.
    Negotiation(Negotiation),
    Citation(Citation),
    CitationOpt(Option<Citation>),
    Commit(ObjectId),
    Bool(bool),
    RoleOpt(Option<Role>),
    Merge(MergeSummary),
    Deposit(Deposit),
    Archive(ArchiveReport),
    Swhid(SwhKind, ObjectId),
    Count(u64),
    /// `(name, citing paths)` pairs — credited authors of one repository,
    /// or repositories citing one author.
    Credits(Vec<(String, Vec<RepoPath>)>),
    Audit(Vec<AuditEvent>),
    Stats(StoreStats),
    Maintenance(Vec<RepoMaintenance>),
    /// v3: the hub-wide health snapshot.
    Metrics(MetricsSnapshot),
    Bundle(RepoBundle),
    /// v3: the responses to a [`ApiRequest::Batch`], in request order.
    /// Items may individually be errors — one failed sub-request does not
    /// poison its siblings.
    Batch(Vec<ApiResponse>),
    /// v3: the primary's replication frontier ([`ApiRequest::ReplStatus`]).
    ReplStatus(ReplStatus),
    /// v3: the fleet placement map ([`ApiRequest::Placement`]).
    Placement(PlacementInfo),
    Error(WireError),
}

impl ApiResponse {
    /// Wraps a failed operation.
    pub fn from_error(e: &HubError) -> ApiResponse {
        ApiResponse::Error(WireError::from_hub(e))
    }

    /// The wire discriminant: the `type` tag a result serializes under
    /// (`"error"` for the error variant). Single source for the
    /// serializer and for shape-mismatch diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ApiResponse::Unit => "unit",
            ApiResponse::Token(_) => "token",
            ApiResponse::User(_) => "user",
            ApiResponse::Id(_) => "id",
            ApiResponse::Names(_) => "names",
            ApiResponse::Paths(_) => "paths",
            ApiResponse::FileData(_) => "file",
            ApiResponse::Log(_) => "log",
            ApiResponse::LogPage(_) => "log_page",
            ApiResponse::AuditPage(_) => "audit_page",
            ApiResponse::NamesPage(_) => "names_page",
            ApiResponse::Negotiation(_) => "negotiation",
            ApiResponse::Citation(_) => "citation",
            ApiResponse::CitationOpt(_) => "citation_opt",
            ApiResponse::Commit(_) => "commit",
            ApiResponse::Bool(_) => "bool",
            ApiResponse::RoleOpt(_) => "role",
            ApiResponse::Merge(_) => "merge",
            ApiResponse::Deposit(_) => "deposit",
            ApiResponse::Archive(_) => "archive",
            ApiResponse::Swhid(..) => "swhid",
            ApiResponse::Count(_) => "count",
            ApiResponse::Credits(_) => "credits",
            ApiResponse::Audit(_) => "audit",
            ApiResponse::Stats(_) => "stats",
            ApiResponse::Maintenance(_) => "maintenance",
            ApiResponse::Metrics(_) => "metrics",
            ApiResponse::Bundle(_) => "bundle",
            ApiResponse::Batch(_) => "batch",
            ApiResponse::ReplStatus(_) => "repl_status",
            ApiResponse::Placement(_) => "placement",
            ApiResponse::Error(_) => "error",
        }
    }

    /// Splits success from failure, reconstructing a typed [`HubError`]
    /// for the failure side.
    pub fn into_result(self) -> Result<ApiResponse, HubError> {
        match self {
            ApiResponse::Error(e) => Err(e.into_hub()),
            ok => Ok(ok),
        }
    }

    fn result_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("type", self.kind());
        match self {
            ApiResponse::Unit => {}
            ApiResponse::Token(t) => {
                o.insert("token", t.as_str());
            }
            ApiResponse::User(u) => {
                o.insert("username", u.username.as_str());
                o.insert("display_name", u.display_name.as_str());
                o.insert("email", u.email.as_str());
            }
            ApiResponse::Id(id) => {
                o.insert("id", id.as_str());
            }
            ApiResponse::Names(ns) => {
                o.insert(
                    "names",
                    Value::Array(ns.iter().map(|n| Value::from(n.as_str())).collect()),
                );
            }
            ApiResponse::Paths(ps) => {
                o.insert("paths", Value::Array(ps.iter().map(path_value).collect()));
            }
            ApiResponse::FileData(bytes) => {
                o.insert("data", hex_encode(bytes));
            }
            ApiResponse::Log(entries) => {
                o.insert(
                    "entries",
                    Value::Array(entries.iter().map(log_entry_value).collect()),
                );
            }
            ApiResponse::LogPage(page) => {
                o.insert(
                    "entries",
                    Value::Array(page.items.iter().map(log_entry_value).collect()),
                );
                if let Some(next) = &page.next {
                    o.insert("next", next.as_str());
                }
            }
            ApiResponse::AuditPage(page) => {
                o.insert(
                    "events",
                    Value::Array(page.items.iter().map(audit_event_value).collect()),
                );
                if let Some(next) = &page.next {
                    o.insert("next", next.as_str());
                }
            }
            ApiResponse::NamesPage(page) => {
                o.insert(
                    "names",
                    Value::Array(page.items.iter().map(|n| Value::from(n.as_str())).collect()),
                );
                if let Some(next) = &page.next {
                    o.insert("next", next.as_str());
                }
            }
            ApiResponse::Negotiation(n) => {
                o.insert("negotiation", n.to_value());
            }
            ApiResponse::Citation(c) => {
                o.insert("citation", c.to_value());
            }
            ApiResponse::CitationOpt(c) => {
                match c {
                    Some(c) => o.insert("citation", c.to_value()),
                    None => o.insert("citation", Value::Null),
                };
            }
            ApiResponse::Commit(id) => {
                o.insert("id", id.to_hex());
            }
            ApiResponse::Bool(b) => {
                o.insert("value", *b);
            }
            ApiResponse::RoleOpt(r) => {
                match r {
                    Some(r) => o.insert("role", role_str(*r)),
                    None => o.insert("role", Value::Null),
                };
            }
            ApiResponse::Merge(m) => {
                o.insert("report", m.to_value());
            }
            ApiResponse::Deposit(d) => {
                o.insert("doi", d.doi.as_str());
                o.insert("repo_id", d.repo_id.as_str());
                o.insert("version", d.version.to_hex());
                o.insert("tree", d.tree.to_hex());
                o.insert("title", d.title.as_str());
                o.insert(
                    "creators",
                    Value::Array(d.creators.iter().map(|c| Value::from(c.as_str())).collect()),
                );
                o.insert("deposited_at", d.deposited_at);
            }
            ApiResponse::Archive(a) => {
                o.insert("origin", a.origin.as_str());
                o.insert(
                    "heads",
                    Value::Array(a.heads.iter().map(|h| Value::from(h.as_str())).collect()),
                );
                o.insert(
                    "new_objects",
                    Value::Array(vec![
                        Value::from(a.new_objects.0 as i64),
                        Value::from(a.new_objects.1 as i64),
                        Value::from(a.new_objects.2 as i64),
                    ]),
                );
            }
            ApiResponse::Swhid(kind, id) => {
                o.insert(
                    "kind",
                    match kind {
                        SwhKind::Content => "cnt",
                        SwhKind::Directory => "dir",
                        SwhKind::Revision => "rev",
                    },
                );
                o.insert("id", id.to_hex());
            }
            ApiResponse::Count(n) => {
                o.insert("count", *n as i64);
            }
            ApiResponse::Credits(cs) => {
                o.insert(
                    "credits",
                    Value::Array(
                        cs.iter()
                            .map(|(name, paths)| {
                                Value::Array(vec![
                                    Value::from(name.as_str()),
                                    Value::Array(paths.iter().map(path_value).collect()),
                                ])
                            })
                            .collect(),
                    ),
                );
            }
            ApiResponse::Audit(events) => {
                o.insert(
                    "events",
                    Value::Array(events.iter().map(audit_event_value).collect()),
                );
            }
            ApiResponse::Stats(s) => {
                o.insert("stats", s.to_value());
            }
            ApiResponse::Maintenance(entries) => {
                o.insert(
                    "repos",
                    Value::Array(entries.iter().map(|e| e.to_value()).collect()),
                );
            }
            ApiResponse::Metrics(m) => {
                o.insert("metrics", m.to_value());
            }
            ApiResponse::Bundle(b) => {
                o.insert("bundle", b.to_value());
            }
            ApiResponse::Batch(responses) => {
                o.insert(
                    "responses",
                    Value::Array(responses.iter().map(|r| r.envelope_value()).collect()),
                );
            }
            ApiResponse::ReplStatus(s) => {
                o.insert("status", s.to_value());
            }
            ApiResponse::Placement(p) => {
                o.insert("placement", p.to_value());
            }
            ApiResponse::Error(_) => unreachable!("errors are encoded by encode()"),
        }
        Value::Object(o)
    }

    /// The lowest protocol major version that can carry this response —
    /// v3 for batch responses, v2 for the page/negotiation shapes and
    /// delta bundles, v1 for everything else (including errors, which
    /// every peer must parse).
    pub fn version(&self) -> i64 {
        match self {
            ApiResponse::Batch(_)
            | ApiResponse::Metrics(_)
            | ApiResponse::ReplStatus(_)
            | ApiResponse::Placement(_) => PROTOCOL_V3,
            ApiResponse::LogPage(_)
            | ApiResponse::AuditPage(_)
            | ApiResponse::NamesPage(_)
            | ApiResponse::Negotiation(_) => PROTOCOL_V2,
            ApiResponse::Bundle(b) if b.is_delta() => PROTOCOL_V2,
            _ => PROTOCOL_V1,
        }
    }

    /// The full envelope (`v` + `result`-or-`error`) as a value — the
    /// unit that nests inside a batch response's `responses` array.
    fn envelope_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("v", self.version());
        match self {
            ApiResponse::Error(e) => o.insert("error", e.to_value()),
            ok => o.insert("result", ok.result_value()),
        };
        Value::Object(o)
    }

    /// Serializes to the one-line wire envelope, stamped with the lowest
    /// protocol version that can carry it.
    pub fn encode(&self) -> String {
        self.envelope_value().to_string_compact()
    }

    /// v3 serialization: like [`ApiResponse::encode`] but bundle object
    /// payloads leave the envelope and come back as raw `(id, bytes)`
    /// pairs for the binary side channel; the envelope carries an
    /// `objects_ext` count in their place and is stamped v3. Responses
    /// without an externalizable payload encode exactly as
    /// [`ApiResponse::encode`] with an empty side channel.
    pub fn encode_ext(&self) -> (String, Vec<(ObjectId, Vec<u8>)>) {
        match self {
            ApiResponse::Bundle(b) => {
                let mut sink = Vec::new();
                let mut r = Object::new();
                r.insert("type", self.kind());
                r.insert("bundle", b.to_value_ext(&mut sink));
                let mut o = Object::new();
                o.insert("v", PROTOCOL_V3);
                o.insert("result", Value::Object(r));
                (Value::Object(o).to_string_compact(), sink)
            }
            other => (other.encode(), Vec::new()),
        }
    }

    /// Parses a wire envelope.
    pub fn parse(text: &str) -> WireResult<ApiResponse> {
        let v = sjson::parse(text).map_err(|e| proto(format!("unparseable response: {e}")))?;
        Self::from_value(&v)
    }

    /// v3 parse: like [`ApiResponse::parse`] but resolves `objects_ext`
    /// counts against `objects` received on the binary side channel.
    /// Every side-channel object must be consumed.
    pub fn parse_ext(text: &str, objects: Vec<(ObjectId, Vec<u8>)>) -> WireResult<ApiResponse> {
        let v = sjson::parse(text).map_err(|e| proto(format!("unparseable response: {e}")))?;
        let mut sc = Sidecar {
            objects: objects.into(),
            used: false,
        };
        let resp = Self::from_value_inner(&v, Some(&mut sc))?;
        if !sc.objects.is_empty() {
            return Err(proto(format!(
                "side channel carried {} unconsumed objects",
                sc.objects.len()
            )));
        }
        Ok(resp)
    }

    /// Reads a response out of an already-parsed envelope value.
    pub fn from_value(v: &Value) -> WireResult<ApiResponse> {
        Self::from_value_inner(v, None)
    }

    fn from_value_inner(v: &Value, mut sidecar: Option<&mut Sidecar>) -> WireResult<ApiResponse> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("response must be an object"))?;
        let envelope_v = check_version(o)?;
        if let Some(err) = o.get("error") {
            return Ok(ApiResponse::Error(WireError::from_value(err)?));
        }
        let r = req_obj(o, "result")?;
        let resp = match req_str(r, "type")?.as_str() {
            "unit" => ApiResponse::Unit,
            "token" => ApiResponse::Token(req_str(r, "token")?),
            "user" => ApiResponse::User(User {
                username: req_str(r, "username")?,
                display_name: req_str(r, "display_name")?,
                email: req_str(r, "email")?,
            }),
            "id" => ApiResponse::Id(req_str(r, "id")?),
            "names" => {
                let mut names = Vec::new();
                for n in req_arr(r, "names")? {
                    names.push(str_of(n, "name")?);
                }
                ApiResponse::Names(names)
            }
            "paths" => {
                let mut paths = Vec::new();
                for p in req_arr(r, "paths")? {
                    paths.push(parse_path_value(p)?);
                }
                ApiResponse::Paths(paths)
            }
            "file" => ApiResponse::FileData(
                hex_decode(&req_str(r, "data")?).ok_or_else(|| proto("file data must be hex"))?,
            ),
            "log" => {
                let mut entries = Vec::new();
                for e in req_arr(r, "entries")? {
                    entries.push(parse_log_entry(e)?);
                }
                ApiResponse::Log(entries)
            }
            "log_page" => {
                let mut items = Vec::new();
                for e in req_arr(r, "entries")? {
                    items.push(parse_log_entry(e)?);
                }
                ApiResponse::LogPage(Page {
                    items,
                    next: opt_str(r, "next")?,
                })
            }
            "audit_page" => {
                let mut items = Vec::new();
                for e in req_arr(r, "events")? {
                    items.push(parse_audit_event(e)?);
                }
                ApiResponse::AuditPage(Page {
                    items,
                    next: opt_str(r, "next")?,
                })
            }
            "names_page" => {
                let mut items = Vec::new();
                for n in req_arr(r, "names")? {
                    items.push(str_of(n, "name")?);
                }
                ApiResponse::NamesPage(Page {
                    items,
                    next: opt_str(r, "next")?,
                })
            }
            "negotiation" => ApiResponse::Negotiation(Negotiation::from_value(
                r.get("negotiation")
                    .ok_or_else(|| proto("missing negotiation"))?,
            )?),
            "citation" => ApiResponse::Citation(parse_citation(
                r.get("citation").ok_or_else(|| proto("missing citation"))?,
            )?),
            "citation_opt" => match r.get("citation") {
                None | Some(Value::Null) => ApiResponse::CitationOpt(None),
                Some(v) => ApiResponse::CitationOpt(Some(parse_citation(v)?)),
            },
            "commit" => ApiResponse::Commit(parse_id(
                r.get("id").ok_or_else(|| proto("missing commit id"))?,
                "commit id",
            )?),
            "bool" => ApiResponse::Bool(req_bool(r, "value")?),
            "role" => match r.get("role") {
                None | Some(Value::Null) => ApiResponse::RoleOpt(None),
                Some(v) => ApiResponse::RoleOpt(Some(role_parse(
                    v.as_str().ok_or_else(|| proto("role must be a string"))?,
                )?)),
            },
            "merge" => ApiResponse::Merge(MergeSummary::from_value(
                r.get("report")
                    .ok_or_else(|| proto("missing merge report"))?,
            )?),
            "deposit" => {
                let mut creators = Vec::new();
                for c in req_arr(r, "creators")? {
                    creators.push(str_of(c, "creator")?);
                }
                ApiResponse::Deposit(Deposit {
                    doi: req_str(r, "doi")?,
                    repo_id: req_str(r, "repo_id")?,
                    version: parse_id(
                        r.get("version").ok_or_else(|| proto("missing version"))?,
                        "deposit version",
                    )?,
                    tree: parse_id(
                        r.get("tree").ok_or_else(|| proto("missing tree"))?,
                        "deposit tree",
                    )?,
                    title: req_str(r, "title")?,
                    creators,
                    deposited_at: req_i64(r, "deposited_at")?,
                })
            }
            "archive" => {
                let mut heads = Vec::new();
                for h in req_arr(r, "heads")? {
                    heads.push(str_of(h, "head")?);
                }
                let counts = req_arr(r, "new_objects")?;
                if counts.len() != 3 {
                    return Err(proto("new_objects must have three counts"));
                }
                let n = |v: &Value| -> WireResult<usize> {
                    v.as_i64()
                        .map(|n| n as usize)
                        .ok_or_else(|| proto("new_objects entries must be integers"))
                };
                ApiResponse::Archive(ArchiveReport {
                    origin: req_str(r, "origin")?,
                    heads,
                    new_objects: (n(&counts[0])?, n(&counts[1])?, n(&counts[2])?),
                })
            }
            "swhid" => {
                let kind = match req_str(r, "kind")?.as_str() {
                    "cnt" => SwhKind::Content,
                    "dir" => SwhKind::Directory,
                    "rev" => SwhKind::Revision,
                    other => return Err(proto(format!("unknown swhid kind {other:?}"))),
                };
                ApiResponse::Swhid(
                    kind,
                    parse_id(
                        r.get("id").ok_or_else(|| proto("missing swhid id"))?,
                        "swhid id",
                    )?,
                )
            }
            "count" => ApiResponse::Count(req_i64(r, "count")? as u64),
            "credits" => {
                let mut credits = Vec::new();
                for pair in req_arr(r, "credits")? {
                    let [name, paths] = two(pair, "credit")?;
                    let paths = paths
                        .as_array()
                        .ok_or_else(|| proto("credit paths must be an array"))?;
                    let mut ps = Vec::new();
                    for p in paths {
                        ps.push(parse_path_value(p)?);
                    }
                    credits.push((str_of(name, "credited name")?, ps));
                }
                ApiResponse::Credits(credits)
            }
            "audit" => {
                let mut events = Vec::new();
                for e in req_arr(r, "events")? {
                    events.push(parse_audit_event(e)?);
                }
                ApiResponse::Audit(events)
            }
            "stats" => ApiResponse::Stats(StoreStats::from_value(
                r.get("stats").ok_or_else(|| proto("missing stats"))?,
            )?),
            "maintenance" => {
                let mut repos = Vec::new();
                for e in req_arr(r, "repos")? {
                    repos.push(RepoMaintenance::from_value(e)?);
                }
                ApiResponse::Maintenance(repos)
            }
            "metrics" => ApiResponse::Metrics(MetricsSnapshot::from_value(
                r.get("metrics").ok_or_else(|| proto("missing metrics"))?,
            )?),
            "bundle" => ApiResponse::Bundle(RepoBundle::from_value_inner(
                r.get("bundle").ok_or_else(|| proto("missing bundle"))?,
                sidecar.as_deref_mut(),
            )?),
            "batch" => {
                let mut responses = Vec::new();
                for item in req_arr(r, "responses")? {
                    // Batch items get no sidecar: objects stay inline.
                    let inner = ApiResponse::from_value(item)?;
                    if matches!(inner, ApiResponse::Batch(_)) {
                        return Err(proto("batch responses cannot nest"));
                    }
                    responses.push(inner);
                }
                ApiResponse::Batch(responses)
            }
            "repl_status" => ApiResponse::ReplStatus(ReplStatus::from_value(
                r.get("status")
                    .ok_or_else(|| proto("missing replication status"))?,
            )?),
            "placement" => ApiResponse::Placement(PlacementInfo::from_value(
                r.get("placement")
                    .ok_or_else(|| proto("missing placement"))?,
            )?),
            other => return Err(proto(format!("unknown result type {other:?}"))),
        };
        if resp.version() > envelope_v {
            return Err(proto(format!(
                "result type {:?} requires protocol v{} (envelope says v{envelope_v})",
                resp.kind(),
                resp.version(),
            )));
        }
        if sidecar.as_deref().is_some_and(|s| s.used) && envelope_v < PROTOCOL_V3 {
            return Err(proto(format!(
                "objects_ext requires protocol v{PROTOCOL_V3} (envelope says v{envelope_v})"
            )));
        }
        Ok(resp)
    }
}

/// A [`Deposit`] as a standalone wire object — same keys as the inline
/// `deposit` result arm, nested so replication status can carry a list.
fn deposit_value(d: &Deposit) -> Value {
    let mut o = Object::new();
    o.insert("doi", d.doi.as_str());
    o.insert("repo_id", d.repo_id.as_str());
    o.insert("version", d.version.to_hex());
    o.insert("tree", d.tree.to_hex());
    o.insert("title", d.title.as_str());
    o.insert(
        "creators",
        Value::Array(d.creators.iter().map(|c| Value::from(c.as_str())).collect()),
    );
    o.insert("deposited_at", d.deposited_at);
    Value::Object(o)
}

fn parse_deposit(v: &Value) -> WireResult<Deposit> {
    let o = v
        .as_object()
        .ok_or_else(|| proto("deposit must be an object"))?;
    let mut creators = Vec::new();
    for c in req_arr(o, "creators")? {
        creators.push(str_of(c, "creator")?);
    }
    Ok(Deposit {
        doi: req_str(o, "doi")?,
        repo_id: req_str(o, "repo_id")?,
        version: parse_id(
            o.get("version").ok_or_else(|| proto("missing version"))?,
            "deposit version",
        )?,
        tree: parse_id(
            o.get("tree").ok_or_else(|| proto("missing tree"))?,
            "deposit tree",
        )?,
        title: req_str(o, "title")?,
        creators,
        deposited_at: req_i64(o, "deposited_at")?,
    })
}

fn log_entry_value(e: &LogEntry) -> Value {
    let mut eo = Object::new();
    eo.insert("id", e.id.to_hex());
    eo.insert("author", e.author.as_str());
    eo.insert("timestamp", e.timestamp);
    eo.insert("message", e.message.as_str());
    Value::Object(eo)
}

fn parse_log_entry(e: &Value) -> WireResult<LogEntry> {
    let eo = e
        .as_object()
        .ok_or_else(|| proto("log entry must be an object"))?;
    Ok(LogEntry {
        id: parse_id(
            eo.get("id").ok_or_else(|| proto("missing log id"))?,
            "log id",
        )?,
        author: req_str(eo, "author")?,
        timestamp: req_i64(eo, "timestamp")?,
        message: req_str(eo, "message")?,
    })
}

fn audit_event_value(e: &AuditEvent) -> Value {
    let mut eo = Object::new();
    eo.insert("seq", e.seq as i64);
    eo.insert("timestamp", e.timestamp);
    match &e.actor {
        Some(a) => eo.insert("actor", Value::from(a.as_str())),
        None => eo.insert("actor", Value::Null),
    };
    eo.insert("action", e.action.as_str());
    eo.insert("target", e.target.as_str());
    eo.insert("ok", e.ok);
    Value::Object(eo)
}

fn parse_audit_event(e: &Value) -> WireResult<AuditEvent> {
    let eo = e
        .as_object()
        .ok_or_else(|| proto("audit event must be an object"))?;
    Ok(AuditEvent {
        seq: req_i64(eo, "seq")? as u64,
        timestamp: req_i64(eo, "timestamp")?,
        actor: opt_str(eo, "actor")?,
        action: req_str(eo, "action")?,
        target: req_str(eo, "target")?,
        ok: req_bool(eo, "ok")?,
    })
}

// ---------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------

fn check_version(o: &Object) -> WireResult<i64> {
    let v = req_i64(o, "v")?;
    if !(PROTOCOL_V1..=PROTOCOL_VERSION).contains(&v) {
        return Err(proto(format!(
            "unsupported protocol version {v} (this peer speaks {PROTOCOL_V1} through {PROTOCOL_VERSION})"
        )));
    }
    Ok(v)
}

fn req_str(o: &Object, key: &str) -> WireResult<String> {
    o.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| proto(format!("missing or non-string field {key:?}")))
}

fn opt_str(o: &Object, key: &str) -> WireResult<Option<String>> {
    match o.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(proto(format!("field {key:?} must be a string or null"))),
    }
}

fn req_i64(o: &Object, key: &str) -> WireResult<i64> {
    o.get(key)
        .and_then(Value::as_i64)
        .ok_or_else(|| proto(format!("missing or non-integer field {key:?}")))
}

fn req_bool(o: &Object, key: &str) -> WireResult<bool> {
    o.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| proto(format!("missing or non-boolean field {key:?}")))
}

fn req_arr<'a>(o: &'a Object, key: &str) -> WireResult<&'a [Value]> {
    o.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| proto(format!("missing or non-array field {key:?}")))
}

fn req_obj<'a>(o: &'a Object, key: &str) -> WireResult<&'a Object> {
    o.get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| proto(format!("missing or non-object field {key:?}")))
}

fn str_of(v: &Value, what: &str) -> WireResult<String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| proto(format!("{what} must be a string")))
}

fn two<'a>(v: &'a Value, what: &str) -> WireResult<[&'a Value; 2]> {
    match v.as_array() {
        Some([a, b]) => Ok([a, b]),
        _ => Err(proto(format!("{what} must be a two-element array"))),
    }
}

fn path_value(p: &RepoPath) -> Value {
    Value::from(p.to_string())
}

fn parse_path_value(v: &Value) -> WireResult<RepoPath> {
    let s = v.as_str().ok_or_else(|| proto("path must be a string"))?;
    RepoPath::parse(s).map_err(|e| proto(format!("bad path {s:?}: {e}")))
}

fn req_path(o: &Object) -> WireResult<RepoPath> {
    parse_path_value(
        o.get("path")
            .ok_or_else(|| proto("missing field \"path\""))?,
    )
}

fn id_value(id: ObjectId) -> Value {
    Value::from(id.to_hex())
}

fn parse_id(v: &Value, what: &str) -> WireResult<ObjectId> {
    let s = v
        .as_str()
        .ok_or_else(|| proto(format!("{what} must be a hex string")))?;
    ObjectId::from_hex(s).ok_or_else(|| proto(format!("{what} is not a 40-char hex id")))
}

fn parse_citation(v: &Value) -> WireResult<Citation> {
    Citation::from_value(v).map_err(|e| proto(format!("bad citation: {e}")))
}

const HEX: &[u8; 16] = b"0123456789abcdef";

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert_eq!(hex_decode("0g"), None);
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }

    #[test]
    fn request_envelope_round_trip() {
        let req = ApiRequest::AddCite {
            token: "ghp_x".into(),
            repo_id: "a/p".into(),
            branch: "main".into(),
            path: RepoPath::parse("src/lib.rs").unwrap(),
            citation: Citation::builder("p", "A").author("A").build(),
        };
        let text = req.encode();
        assert!(text.contains("\"v\":1"));
        assert!(text.contains("\"method\":\"add_cite\""));
        assert_eq!(ApiRequest::parse(&text).unwrap(), req);
    }

    #[test]
    fn response_envelope_round_trip() {
        let resp = ApiResponse::Commit(ObjectId::hash_bytes(b"x"));
        let text = resp.encode();
        assert_eq!(ApiResponse::parse(&text).unwrap(), resp);
    }

    #[test]
    fn wrong_version_is_refused() {
        let text = r#"{"v": 4, "method": "list_repos", "params": {}}"#;
        let err = ApiRequest::parse(text).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("version"));
    }

    #[test]
    fn v1_methods_ride_in_v2_envelopes_but_not_vice_versa() {
        // A v2 peer may stamp v2 on an old method; it still parses.
        let text = r#"{"v": 2, "method": "list_repos", "params": {}}"#;
        assert_eq!(ApiRequest::parse(text).unwrap(), ApiRequest::ListRepos);
        // A v2-only method inside a v1 envelope is refused.
        let text = r#"{"v": 1, "method": "negotiate", "params": {"repo_id": "a/p", "haves": []}}"#;
        let err = ApiRequest::parse(text).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("requires protocol v2"));
    }

    #[test]
    fn delta_bundles_force_v2_envelopes() {
        let full = RepoBundle {
            name: "p".into(),
            head: None,
            refs: vec![],
            objects: vec![],
            basis: vec![],
        };
        let delta = RepoBundle {
            basis: vec![ObjectId::hash_bytes(b"base")],
            ..full.clone()
        };
        let req = |bundle: RepoBundle| ApiRequest::Push {
            token: "t".into(),
            repo_id: "a/p".into(),
            branch: "main".into(),
            force: false,
            bundle,
        };
        assert!(req(full).encode().contains("\"v\":1"));
        let delta_req = req(delta);
        let text = delta_req.encode();
        assert!(text.contains("\"v\":2"));
        assert_eq!(ApiRequest::parse(&text).unwrap(), delta_req);
        // The same bytes downgraded to a v1 envelope must be refused.
        let downgraded = text.replacen("\"v\":2", "\"v\":1", 1);
        assert_eq!(
            ApiRequest::parse(&downgraded).unwrap_err().code,
            ErrorCode::Protocol
        );
    }

    #[test]
    fn page_responses_round_trip_and_stamp_v2() {
        let page = ApiResponse::NamesPage(Page {
            items: vec!["a/p".into(), "b/q".into()],
            next: Some("b/q".into()),
        });
        let text = page.encode();
        assert!(text.contains("\"v\":2"));
        assert_eq!(ApiResponse::parse(&text).unwrap(), page);
        let last = ApiResponse::NamesPage(Page {
            items: vec![],
            next: None,
        });
        assert_eq!(ApiResponse::parse(&last.encode()).unwrap(), last);
    }

    #[test]
    fn unknown_method_is_refused() {
        let text = r#"{"v": 1, "method": "frobnicate", "params": {}}"#;
        let err = ApiRequest::parse(text).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
    }

    #[test]
    fn unknown_params_are_ignored() {
        let text = r#"{"v": 1, "method": "login", "params": {"username": "a", "extra": 1}}"#;
        assert_eq!(
            ApiRequest::parse(text).unwrap(),
            ApiRequest::Login {
                username: "a".into(),
                secret: None
            }
        );
    }

    #[test]
    fn error_codes_reconstruct_hub_errors() {
        let original = HubError::PermissionDenied("bob lacks Write".into());
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::PermissionDenied);
        assert_eq!(wire.into_hub(), original);

        let original = HubError::Cite(citekit::CiteError::AlreadyCited(
            RepoPath::parse("src/lib.rs").unwrap(),
        ));
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::AlreadyCited);
        assert_eq!(wire.into_hub(), original);

        let original = HubError::Git(gitlite::GitError::NonFastForward {
            branch: "main".into(),
        });
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::NonFastForward);
        assert_eq!(wire.into_hub(), original);

        // The common read failure keeps its exact variant in-process.
        let original = HubError::Git(gitlite::GitError::FileNotFound(
            RepoPath::parse("src/lib.rs").unwrap(),
        ));
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::FileNotFound);
        assert_eq!(wire.into_hub(), original);

        let original = HubError::Git(gitlite::GitError::NothingToCommit);
        assert_eq!(WireError::from_hub(&original).into_hub(), original);

        let original = HubError::Cite(citekit::CiteError::BadCitationFile("bad json".into()));
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::BadCitationFile);
        assert_eq!(wire.into_hub(), original);
    }

    #[test]
    fn missing_required_detail_reconstructs_as_protocol_error() {
        // A peer that strips the structured payload gets an honest
        // protocol error, not a typed error naming an invented path.
        let wire = WireError {
            code: ErrorCode::AlreadyCited,
            message: "already cited".into(),
            detail: None,
        };
        assert!(matches!(wire.into_hub(), HubError::Protocol(_)));
        let wire = WireError {
            code: ErrorCode::ObjectNotFound,
            message: "object gone".into(),
            detail: Some("not-hex".into()),
        };
        assert!(matches!(wire.into_hub(), HubError::Protocol(_)));
    }

    #[test]
    fn error_envelope_round_trip() {
        let resp = ApiResponse::from_error(&HubError::RepoNotFound("a/p".into()));
        let text = resp.encode();
        assert!(text.contains("\"error\""));
        assert!(!text.contains("\"result\""));
        let back = ApiResponse::parse(&text).unwrap();
        assert_eq!(back, resp);
        assert!(matches!(
            back.into_result(),
            Err(HubError::RepoNotFound(r)) if r == "a/p"
        ));
    }

    // -- protocol v3 ---------------------------------------------------

    fn push_with_objects() -> ApiRequest {
        let payload = b"blob 13\0fn main() {}\n".to_vec();
        ApiRequest::Push {
            token: "t".into(),
            repo_id: "a/p".into(),
            branch: "main".into(),
            force: false,
            bundle: RepoBundle {
                name: "p".into(),
                head: None,
                refs: vec![("main".into(), ObjectId::hash_bytes(b"c"))],
                objects: vec![(ObjectId::hash_bytes(&payload), payload)],
                basis: vec![],
            },
        }
    }

    #[test]
    fn batch_request_round_trips_and_stamps_v3() {
        let req = ApiRequest::Batch {
            requests: vec![
                ApiRequest::Whoami { token: "t".into() },
                ApiRequest::ListRepos,
            ],
        };
        let text = req.encode();
        assert!(text.starts_with("{\"v\":3,"), "{text}");
        assert!(text.contains("\"method\":\"batch\""));
        assert_eq!(ApiRequest::parse(&text).unwrap(), req);
        // Downgraded to v2, the same envelope must be refused.
        let downgraded = text.replacen("\"v\":3", "\"v\":2", 1);
        assert_eq!(
            ApiRequest::parse(&downgraded).unwrap_err().code,
            ErrorCode::Protocol
        );
    }

    #[test]
    fn batch_response_round_trips_and_stamps_v3() {
        let resp = ApiResponse::Batch(vec![
            ApiResponse::Bool(true),
            ApiResponse::from_error(&HubError::AuthFailed),
        ]);
        let text = resp.encode();
        assert!(text.starts_with("{\"v\":3,"), "{text}");
        assert_eq!(ApiResponse::parse(&text).unwrap(), resp);
    }

    #[test]
    fn nested_batches_are_refused() {
        let req = ApiRequest::Batch {
            requests: vec![ApiRequest::Batch { requests: vec![] }],
        };
        let err = ApiRequest::parse(&req.encode()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("nest"), "{}", err.message);

        let resp = ApiResponse::Batch(vec![ApiResponse::Batch(vec![])]);
        let err = ApiResponse::parse(&resp.encode()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("nest"), "{}", err.message);
    }

    #[test]
    fn encode_ext_externalizes_objects_and_round_trips() {
        let req = push_with_objects();
        let (text, objects) = req.encode_ext();
        assert!(text.starts_with("{\"v\":3,"), "{text}");
        assert!(text.contains("\"objects_ext\":1"), "{text}");
        assert!(!text.contains("\"objects\":["), "{text}");
        assert_eq!(objects.len(), 1);
        assert_eq!(ApiRequest::parse_ext(&text, objects).unwrap(), req);
    }

    #[test]
    fn encode_ext_shrinks_the_envelope() {
        let req = push_with_objects();
        let inline = req.encode();
        let (text, _) = req.encode_ext();
        assert!(
            text.len() < inline.len(),
            "ext envelope ({}) not smaller than inline ({})",
            text.len(),
            inline.len()
        );
    }

    #[test]
    fn response_encode_ext_externalizes_bundles() {
        let bundle = match push_with_objects() {
            ApiRequest::Push { bundle, .. } => bundle,
            _ => unreachable!(),
        };
        let resp = ApiResponse::Bundle(bundle);
        let (text, objects) = resp.encode_ext();
        assert!(text.starts_with("{\"v\":3,"), "{text}");
        assert!(text.contains("\"objects_ext\":1"), "{text}");
        assert_eq!(objects.len(), 1);
        assert_eq!(ApiResponse::parse_ext(&text, objects).unwrap(), resp);
        // Responses with nothing to externalize keep their plain encoding.
        let plain = ApiResponse::Bool(true);
        let (text, objects) = plain.encode_ext();
        assert_eq!(text, plain.encode());
        assert!(objects.is_empty());
    }

    #[test]
    fn objects_ext_without_side_channel_is_refused() {
        let (text, _objects) = push_with_objects().encode_ext();
        // Plain parse has no side channel to satisfy the count.
        let err = ApiRequest::parse(&text).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("side channel"), "{}", err.message);
    }

    #[test]
    fn objects_ext_in_v2_envelope_is_refused() {
        let (text, objects) = push_with_objects().encode_ext();
        let downgraded = text.replacen("\"v\":3", "\"v\":2", 1);
        let err = ApiRequest::parse_ext(&downgraded, objects).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("v3"), "{}", err.message);
    }

    #[test]
    fn leftover_side_channel_objects_are_refused() {
        let (text, mut objects) = push_with_objects().encode_ext();
        objects.push((ObjectId::hash_bytes(b"extra"), b"extra".to_vec()));
        let err = ApiRequest::parse_ext(&text, objects).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("unconsumed"), "{}", err.message);
    }

    #[test]
    fn short_side_channel_is_refused() {
        let (text, _objects) = push_with_objects().encode_ext();
        let err = ApiRequest::parse_ext(&text, Vec::new()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("carried"), "{}", err.message);
    }

    #[test]
    fn objects_and_objects_ext_together_are_refused() {
        let (text, objects) = push_with_objects().encode_ext();
        let spliced = text.replacen("\"objects_ext\":1", "\"objects\":[],\"objects_ext\":1", 1);
        let err = ApiRequest::parse_ext(&spliced, objects).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("both"), "{}", err.message);
    }

    #[test]
    fn transport_closed_code_round_trips() {
        let original = HubError::TransportClosed("read reset by peer".into());
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::TransportClosed);
        assert_eq!(wire.code.as_str(), "transport_closed");
        assert_eq!(ErrorCode::parse("transport_closed"), Some(wire.code));
        assert_eq!(wire.into_hub(), original);
    }
}
