//! Deterministic workload inputs. Everything the benchmark sends — the
//! repository it seeds, each connection's operation sequence, and the
//! commits the contributor pushes — is derived from the `--seed`
//! argument here, so one seed always yields byte-identical inputs. The
//! served program only ever sees these generated inputs.
//!
//! The same module is the correctness oracle's model: the local
//! [`CitedRepo`] each workload is generated from answers what the hub
//! must answer (citations via `CitationFunction::resolve`, file bytes,
//! the log, the credited authors).

use citekit::{citation_path, format_iso8601, Citation, CitedRepo};
use gitlite::{Blob, Commit, EntryMode, Object, ObjectId, RepoPath, Signature, Tree, TreeEntry};
use hub::LogEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// Branch every workload serves.
pub const BRANCH: &str = "main";
/// Name of the seeded repository (hosted as `bench/corpus`).
pub const REPO_NAME: &str = "corpus";
/// Account that owns the seeded repository.
pub const USER: &str = "bench";
/// Page size of the popup's history pane.
pub const PAGE: u32 = 25;

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Extension visitors reading a cited repository that fits the cache.
    Browse,
    /// A contributor pushing cited commits while a follower replicates.
    Contribute,
    /// Whole-history reads of a repository larger than the cache.
    Archive,
}

/// Size of a workload's seeded repository.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Files in the initial tree.
    pub files: usize,
    /// Commits on `main`, the initial one included.
    pub commits: usize,
}

impl Workload {
    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "browse" => Some(Workload::Browse),
            "contribute" => Some(Workload::Contribute),
            "archive" => Some(Workload::Archive),
            _ => None,
        }
    }

    /// The workload's name as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Contribute => "contribute",
            Workload::Archive => "archive",
        }
    }

    /// Repository size. `browse` and `contribute` stay well under half
    /// of gitlite's `DEFAULT_CACHE_CAPACITY` (8,192 objects); `archive`
    /// holds more than twice it.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Browse | Workload::Contribute => Shape {
                files: 1000,
                commits: 300,
            },
            Workload::Archive => Shape {
                files: 400,
                commits: 3000,
            },
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Browse => 0x6272_6f77_7365,
            Workload::Contribute => 0x636f_6e74_7269,
            Workload::Archive => 0x6172_6368_6976,
        }
    }
}

/// The generator's RNG for one workload, seed and purpose.
fn rng(workload: Workload, seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ workload.salt() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The local model of a served repository.
pub struct Model {
    /// The repository, checked out at the tip of [`BRANCH`].
    pub cited: CitedRepo,
    /// Every file path, in generation order.
    pub paths: Vec<RepoPath>,
    /// The tip's directory trees, so a commit re-hashes only the
    /// directories on the changed paths.
    trees: HashMap<RepoPath, Tree>,
}

impl Model {
    /// Tip of [`BRANCH`].
    pub fn tip(&self) -> ObjectId {
        self.cited
            .repo()
            .branch_tip(BRANCH)
            .expect("model has main")
    }

    /// What `generate_citation` must answer for `path` at the tip:
    /// closest-ancestor resolution of the local citation function, with
    /// the root citation stamped by the cited version.
    pub fn expected_citation(&self, path: &RepoPath) -> Citation {
        let tip = self.tip();
        let (at, citation) = self.cited.function().resolve(path);
        if at.is_root() {
            let ts = self
                .cited
                .repo()
                .commit_obj(tip)
                .expect("tip commit")
                .author
                .timestamp;
            citation.stamped(&tip.short(), &format_iso8601(ts))
        } else {
            citation.clone()
        }
    }

    /// What `citation_entry` must answer for `path`.
    pub fn expected_entry(&self, path: &RepoPath) -> Option<Citation> {
        self.cited.function().get(path).cloned()
    }

    /// The full log of [`BRANCH`], newest first, as the hub reports it.
    pub fn expected_log(&self) -> Vec<LogEntry> {
        let repo = self.cited.repo();
        repo.log(self.tip())
            .expect("model log")
            .into_iter()
            .map(|id| {
                let c = repo.commit_obj(id).expect("model commit");
                LogEntry {
                    id,
                    author: c.author.name.clone(),
                    timestamp: c.author.timestamp,
                    message: c.message.clone(),
                }
            })
            .collect()
    }

    /// Applies one generated edit and commits it; returns the new tip.
    ///
    /// The edit goes through [`CitedRepo`] (file write, `add_cite` /
    /// `modify_cite`, which keep the worktree and `citation.cite` in
    /// sync); the commit then hashes only the changed blobs and the
    /// trees above them. No edit renames or deletes, so this is the
    /// commit `CitedRepo::commit` would make, without re-hashing the
    /// whole worktree.
    pub fn apply(&mut self, edit: &Edit) -> ObjectId {
        self.cited
            .write_file(&edit.path, edit.content.clone())
            .expect("edit targets a generated path");
        let mut changed = vec![edit.path.clone()];
        if let Some((target, citation)) = &edit.cite {
            if self.cited.function().contains(target) {
                self.cited
                    .modify_cite(target, citation.clone())
                    .expect("modify a cited node");
            } else {
                self.cited
                    .add_cite(target, citation.clone())
                    .expect("cite an existing node");
            }
            changed.push(citation_path());
        }
        self.commit(&changed, edit.author.clone(), edit.message.clone())
    }

    fn commit(&mut self, changed: &[RepoPath], author: Signature, message: String) -> ObjectId {
        let repo = self.cited.repo_mut();
        let parent = repo.branch_tip(BRANCH).expect("model has main");
        let mut dirty = BTreeSet::new();
        for path in changed {
            let data = repo.worktree().read(path).expect("changed path").clone();
            let id = repo.odb_mut().put(Object::Blob(Blob::new(data)));
            let dir = path.parent().expect("files are never the root");
            let name = path.file_name().expect("files are named");
            let entry = TreeEntry {
                mode: EntryMode::File,
                id,
            };
            self.trees
                .entry(dir.clone())
                .or_default()
                .insert(name, entry);
            dirty.insert((usize::MAX - dir.depth(), dir));
        }
        // Deepest directories first, so each parent sees its children's
        // new ids.
        let root = loop {
            let (_, dir) = dirty.pop_first().expect("the root is always dirty");
            let tree = self.trees[&dir].clone();
            let id = repo.odb_mut().put(Object::Tree(tree));
            let Some(parent_dir) = dir.parent() else {
                break id;
            };
            let name = dir.file_name().expect("non-root directories are named");
            let entry = TreeEntry {
                mode: EntryMode::Dir,
                id,
            };
            self.trees
                .entry(parent_dir.clone())
                .or_default()
                .insert(name, entry);
            dirty.insert((usize::MAX - parent_dir.depth(), parent_dir));
        };
        let id = repo.odb_mut().put(Object::Commit(Commit {
            tree: root,
            parents: vec![parent],
            author,
            message,
        }));
        repo.set_branch(BRANCH, id).expect("commit just stored");
        id
    }
}

/// Loads every directory tree under `dir` (whose tree is `id`) into `out`.
fn load_trees(cited: &CitedRepo, dir: RepoPath, id: ObjectId, out: &mut HashMap<RepoPath, Tree>) {
    let tree = cited.repo().odb().tree(id).expect("model tree");
    for (name, entry) in tree.iter() {
        if entry.mode == EntryMode::Dir {
            load_trees(cited, dir.child(name), entry.id, out);
        }
    }
    out.insert(dir, tree);
}

/// One generated commit: a file rewrite, optionally with a citation
/// added to (or modified on) some node.
#[derive(Clone, Debug)]
pub struct Edit {
    /// The file rewritten.
    pub path: RepoPath,
    /// Its new contents.
    pub content: Vec<u8>,
    /// A node to cite, and the citation.
    pub cite: Option<(RepoPath, Citation)>,
    /// Commit author and logical timestamp.
    pub author: Signature,
    /// Commit message.
    pub message: String,
}

const AUTHORS: [&str; 6] = ["Ada", "Grace", "Leshang", "Susan", "Yi", "Zoe"];
/// Base of the generated commit timestamps (2019-01-01T00:00:00Z).
const EPOCH: i64 = 1_546_300_800;

fn citation(rng: &mut StdRng, tag: usize) -> Citation {
    let a = AUTHORS[rng.gen_range(0..AUTHORS.len())];
    let b = AUTHORS[rng.gen_range(0..AUTHORS.len())];
    Citation::builder(
        format!("lib{tag}"),
        format!("owner{}", rng.gen_range(0..50)),
    )
    .url(format!("https://hub.local/lib{tag}"))
    .author(a)
    .author(b)
    .build()
}

fn contents(rng: &mut StdRng, label: &str) -> Vec<u8> {
    let lines = 2 + rng.gen_range(0..8);
    let mut out = format!("// {label}\n");
    for _ in 0..lines {
        let n = rng.next_u64();
        out.push_str(&format!("let v{:x} = {};\n", n >> 40, n % 1_000_003));
    }
    out.into_bytes()
}

fn file_path(i: usize) -> RepoPath {
    RepoPath::parse(&format!(
        "d{}/s{}/t{}/f{i}.rs",
        i % 4,
        (i / 4) % 4,
        (i / 16) % 4
    ))
    .expect("generated paths are valid")
}

/// Generates edit number `n` of a history: rewrites one file, and every
/// `cite_every`-th edit also cites that file or its directory.
fn edit(rng: &mut StdRng, paths: &[RepoPath], n: usize, cite_every: usize) -> Edit {
    let path = paths[rng.gen_range(0..paths.len())].clone();
    let content = contents(rng, &format!("rev {n}"));
    let cite = n.is_multiple_of(cite_every).then(|| {
        let target = if rng.gen_bool(0.7) {
            path.clone()
        } else {
            path.parent().expect("files sit in directories")
        };
        (target, citation(rng, n))
    });
    Edit {
        path,
        content,
        cite,
        author: Signature::new(
            AUTHORS[n % AUTHORS.len()],
            format!("{}@hub.local", AUTHORS[n % AUTHORS.len()]),
            EPOCH + 60 * n as i64,
        ),
        message: format!("edit {n}"),
    }
}

/// Builds the workload's seeded repository: an initial tree of
/// `shape.files` files with about 10% of them (or their directories)
/// cited, then `shape.commits - 1` single-file commits, every 8th of
/// which also changes a citation.
pub fn model(workload: Workload, seed: u64) -> Model {
    let shape = workload.shape();
    let mut rng = rng(workload, seed, 1);
    let mut cited = CitedRepo::init(REPO_NAME, "Bench Owner", "https://hub.local/bench/corpus");
    let paths: Vec<RepoPath> = (0..shape.files).map(file_path).collect();
    for (i, p) in paths.iter().enumerate() {
        cited
            .write_file(p, contents(&mut rng, &format!("file {i}")))
            .expect("fresh path");
    }
    for i in 0..shape.files / 10 {
        let p = &paths[rng.gen_range(0..paths.len())];
        let target = if rng.gen_bool(0.7) {
            p.clone()
        } else {
            p.parent().expect("files sit in directories")
        };
        if !cited.function().contains(&target) {
            cited
                .add_cite(&target, citation(&mut rng, 100_000 + i))
                .expect("cite a fresh node");
        }
    }
    cited
        .commit(
            Signature::new("Bench Owner", "owner@hub.local", EPOCH),
            "initial tree",
        )
        .expect("initial commit");
    let mut trees = HashMap::new();
    let root = cited
        .repo()
        .tree_of(cited.repo().head_commit().expect("initial commit"));
    load_trees(
        &cited,
        RepoPath::root(),
        root.expect("initial tree"),
        &mut trees,
    );
    let mut model = Model {
        cited,
        paths,
        trees,
    };
    for n in 1..shape.commits {
        let e = edit(&mut rng, &model.paths, n, 8);
        model.apply(&e);
    }
    model
}

/// The commits `contribute`'s connection A pushes, one per iteration;
/// every 4th also adds or modifies a citation on the file it rewrites
/// (or on its directory).
pub fn contributions(workload: Workload, seed: u64, model: &Model, count: usize) -> Vec<Edit> {
    let mut rng = rng(workload, seed, 2);
    let base = workload.shape().commits;
    (0..count)
        .map(|i| edit(&mut rng, &model.paths, base + i, 4))
        .collect()
}

/// One request a `browse` visitor sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Read {
    /// `generate_citation` for a file.
    Cite(RepoPath),
    /// `citation_entry` for a file.
    Entry(RepoPath),
    /// `read_file`.
    File(RepoPath),
    /// The first `log_page` (limit [`PAGE`]).
    LogFirst,
    /// `branches`.
    Branches,
}

/// A Zipf(1) sampler over `n` ranks: rank `k` (0-based) is drawn with
/// probability proportional to `1 / (k + 1)`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / (k + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` visitor requests for one `browse` connection: 40%
/// `generate_citation`, 20% `citation_entry`, 25% `read_file`, 10% a
/// first log page and 5% `branches`, with paths Zipf-skewed over a
/// seed-shuffled popularity order shared by both connections.
pub fn visits(workload: Workload, seed: u64, model: &Model, conn: u64, count: usize) -> Vec<Read> {
    let mut order_rng = rng(workload, seed, 3);
    let mut order: Vec<usize> = (0..model.paths.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, order_rng.gen_range(0..i + 1));
    }
    let zipf = Zipf::new(order.len());
    let mut rng = rng(workload, seed, 10 + conn);
    (0..count)
        .map(|_| {
            let roll = rng.gen_range(0..100);
            let path = model.paths[order[zipf.sample(&mut rng)]].clone();
            match roll {
                0..=39 => Read::Cite(path),
                40..=59 => Read::Entry(path),
                60..=84 => Read::File(path),
                85..=94 => Read::LogFirst,
                _ => Read::Branches,
            }
        })
        .collect()
}

/// A stable 64-bit digest (FNV-1a) of everything a workload's inputs
/// consist of, for the determinism self-test.
pub fn digest(model: &Model, reads: &[Read], edits: &[Edit]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&model.tip().0);
    for r in reads {
        eat(format!("{r:?}").as_bytes());
    }
    for e in edits {
        eat(format!("{e:?}").as_bytes());
    }
    h
}
