//! `hubbench`: the socket-level benchmark of a served GitCite hub.
//!
//! ```text
//! hubbench --gitcite <path to gitcite> --workload browse|contribute|archive
//!          --seed <n> --seconds <s> --trace 0|1 [--work <dir>]
//! ```
//!
//! One run generates the workload's inputs from the seed, starts the
//! release `gitcite hub serve` as a child process, seeds it over the v3
//! wire, drives the workload's fixed operation sequence from two client
//! connections, checks every answer, and prints every metric by name
//! with its unit. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`): with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! staged, traced in-process replay of the same sequence. See
//! `README.md` beside this crate for what each workload is for.

mod drive;
mod gen;
#[cfg(test)]
mod selftest;
mod server;
mod staged;

use drive::{Class, Inputs, Replica, Tally, REPO_ID};
use gen::{Workload, REPO_NAME, USER};
use gitlite::Repository;
use hub::{HubClient, MetricsSnapshot, StoreStats};
use server::Served;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run, before and after the window; `setup_s` is
/// their median. Set-up time is mostly loose-object writes; taking the
/// samples on both sides of the window keeps a slow spell of the machine
/// at one end of the run from setting the figure alone.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 5;

struct Args {
    gitcite: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_owned(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = get("workload")?;
    let args = Args {
        gitcite: PathBuf::from(get("gitcite")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        work: PathBuf::from(flags.get("work").map_or(".hubbench", String::as_str)),
    };
    if !args.gitcite.is_file() {
        return Err(format!("no gitcite binary at {}", args.gitcite.display()));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hubbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = args.work.join(format!("run-{}", std::process::id()));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&args.work); // only if no other run uses it
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("hubbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One served hub, seeded, plus the `contribute` follower.
struct Setup {
    served: Served,
    replica: Option<Replica>,
}

/// Starts a hub and seeds it over the wire: register and log in the
/// owner, import `seed` (the generated repository) as one full bundle,
/// and on `contribute` bootstrap the follower. Returns the setup, its
/// time, and the seeded server's peak resident set in MB.
fn setup(
    args: &Args,
    dir: &Path,
    k: usize,
    seed: &Repository,
) -> Result<(Setup, f64, f64), String> {
    let began = Instant::now();
    let served = Served::start(&args.gitcite, dir.join(format!("hub-{k}")))?;
    let client = HubClient::connect(&served.addr).map_err(|e| format!("connect: {e}"))?;
    let err = |e: hub::HubError| e.to_string();
    client.register_user(USER, "Bench User").map_err(err)?;
    let token = client.login(USER).map_err(err)?;
    let id = client.import_repo(&token, REPO_NAME, seed).map_err(err)?;
    if id != REPO_ID {
        return Err(format!("import answered repo id {id:?}"));
    }
    let replica = match args.workload {
        Workload::Contribute => Some(Replica::bootstrap(&served.addr)?),
        _ => None,
    };
    let secs = began.elapsed().as_secs_f64();
    let rss_mb = served.peak_rss_mb();
    Ok((Setup { served, replica }, secs, rss_mb))
}

/// The operator's view of the served hub: `server_metrics`, the seeded
/// repository's `store_stats`, and the audit length from `repl_status`.
struct Counters {
    metrics: MetricsSnapshot,
    store: StoreStats,
    audit: u64,
}

fn counters(addr: &str) -> Result<Counters, String> {
    let client = HubClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let err = |e: hub::HubError| e.to_string();
    let token = client.login("operator").map_err(err)?;
    Ok(Counters {
        metrics: client.server_metrics(Some(&token)).map_err(err)?,
        store: client.store_stats(REPO_ID).map_err(err)?,
        audit: client.repl_status().map_err(err)?.audit_seq,
    })
}

/// The `q`-quantile (0..=1) of `samples`, interpolated between order
/// statistics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn print(&self, title: &str) {
        println!("{title}");
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>14.3} {unit}");
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let mut inputs = Inputs::new(w, args.seed, args.seconds);
    // The window moves `contribute`'s model on with every push; the
    // set-ups after it seed the same repository as those before.
    let seed = inputs.model.cited.repo().clone();
    let mut setups = Vec::new();
    let mut seeded_rss = Vec::new();
    let mut kept = None;
    for k in 0..if args.trace { 1 } else { SETUPS_BEFORE } {
        // Only the last hub serves the window; earlier ones stop first.
        drop(kept.take());
        let (setup, secs, rss_mb) = setup(args, dir, k, &seed)?;
        setups.push(secs);
        seeded_rss.push(rss_mb);
        kept = Some(setup);
    }
    let Setup { served, replica } = kept.expect("at least one set-up");
    let before = counters(&served.addr)?;
    let (tally, window_s) = drive::window(w, &served.addr, &mut inputs, replica.as_ref())?;
    let after = counters(&served.addr)?;
    let rss_mb = served.peak_rss_mb();
    let disk_mb = server::dir_mb(&served.data_dir);
    drop(replica);
    drop(served);
    if !args.trace {
        for k in 0..SETUPS_AFTER {
            let (_, secs, rss_mb) = setup(args, dir, SETUPS_BEFORE + k, &seed)?;
            setups.push(secs);
            seeded_rss.push(rss_mb);
        }
    }

    let listed: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("hubbench: set-up times (s): {}", listed.join(" "));
    for e in &tally.errors {
        eprintln!("hubbench: failed: {e}");
    }
    let samples = |classes: &[Class]| -> Vec<f64> {
        classes
            .iter()
            .flat_map(|c| tally.samples.get(c).into_iter().flatten().copied())
            .collect()
    };
    let ops = tally.ops().max(1) as f64;
    let (tm0, tm1) = (
        before.metrics.transport.clone().unwrap_or_default(),
        after.metrics.transport.clone().unwrap_or_default(),
    );
    let wire = (tm1.bytes_in_binary + tm1.bytes_out_binary)
        .saturating_sub(tm0.bytes_in_binary + tm0.bytes_out_binary) as f64;

    let mut e2e = Metrics::default();
    e2e.put("setup_s", quantile(&setups, 0.5), "s");
    e2e.put(
        "main_p50_us",
        quantile(&samples(main_classes(w)), 0.5),
        "us",
    );
    e2e.put("seeded_rss_mb", quantile(&seeded_rss, 0.5), "MB");
    e2e.put("disk_mb", disk_mb, "MB");
    e2e.put("wire_bytes_per_op", wire / ops, "B/op");

    println!(
        "hubbench workload={} seed={} inputs={:016x} seconds={} window_s={window_s:.3} nproc={} data_fs={} attempted={} failed={}",
        w.name(),
        args.seed,
        inputs.digest(),
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        server::fs_type(&args.work),
        tally.attempted,
        tally.failed,
    );
    let mut shown = named(w, &tally, &e2e, setups.len(), window_s);
    shown.put("server_rss_mb", rss_mb, "MB");
    shown.print("named end-to-end metrics:");

    let metrics = if args.trace {
        let layers = staged::layers(w, args.seed, &inputs, dir, &tally, &before, &after)?;
        layers.print("per-layer metrics (traced replay):");
        layers
    } else {
        e2e.print("end-to-end metrics:");
        e2e
    };
    if let Some((name, ..)) = metrics.0.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} has no samples"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    ))
}

/// The workload's principal request, whose median is `main_p50_us`: the
/// non-citation reads on `browse`, the push on `contribute`, the cursor
/// page on `archive`.
pub fn main_classes(w: Workload) -> &'static [Class] {
    match w {
        Workload::Browse => &[Class::File, Class::LogFirst, Class::Branches],
        Workload::Contribute => &[Class::Push],
        Workload::Archive => &[Class::Page],
    }
}

/// Every end-to-end figure of the workload by name (`cite_p99_us`,
/// `push_p50_ms`, ...), with sample counts: the JSON's metrics and the
/// ones too unsteady on a shared machine to hold to a bound.
fn named(w: Workload, tally: &Tally, e2e: &Metrics, setups: usize, window_s: f64) -> Metrics {
    let get = |name: &str| e2e.0.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1);
    let of = |classes: &[Class]| -> Vec<f64> {
        classes
            .iter()
            .flat_map(|c| tally.samples.get(c).into_iter().flatten().copied())
            .collect()
    };
    let mut m = Metrics::default();
    m.put(format!("setup_s (n={setups})"), get("setup_s"), "s");
    m.put("ops_per_s", tally.steady_rate(), "ops/s");
    m.put(
        format!("window_ops_per_s (n={})", tally.ops()),
        tally.ops() as f64 / window_s,
        "ops/s",
    );
    m.put(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    let mut lat = |name: &str, classes: &[Class], q: f64, scale: f64, unit: &'static str| {
        let s = of(classes);
        m.put(
            format!("{name} (n={})", s.len()),
            quantile(&s, q) / scale,
            unit,
        );
    };
    let reads = [Class::File, Class::LogFirst, Class::Branches];
    match w {
        Workload::Browse => {
            lat("cite_p50_us", &[Class::Cite, Class::Entry], 0.5, 1.0, "us");
            lat("cite_p99_us", &[Class::Cite, Class::Entry], 0.99, 1.0, "us");
            lat("generate_citation_p50_us", &[Class::Cite], 0.5, 1.0, "us");
            lat("citation_entry_p50_us", &[Class::Entry], 0.5, 1.0, "us");
            lat("read_p50_us", &reads, 0.5, 1.0, "us");
            lat("read_p99_us", &reads, 0.99, 1.0, "us");
        }
        Workload::Contribute => {
            lat("cite_p50_us", &[Class::Cite, Class::Entry], 0.5, 1.0, "us");
            lat("generate_citation_p50_us", &[Class::Cite], 0.5, 1.0, "us");
            lat("push_p50_ms", &[Class::Push], 0.5, 1e3, "ms");
            lat("push_p90_ms", &[Class::Push], 0.9, 1e3, "ms");
            lat("catchup_p50_ms", &[Class::Catchup], 0.5, 1e3, "ms");
        }
        Workload::Archive => {
            lat("page_p50_us", &[Class::Page], 0.5, 1.0, "us");
            lat("page_p99_us", &[Class::Page], 0.99, 1.0, "us");
            lat("clone_p50_ms", &[Class::Clone], 0.5, 1e3, "ms");
            lat("credited_p50_us", &[Class::Credited], 0.5, 1.0, "us");
        }
    }
    for name in ["seeded_rss_mb", "disk_mb", "wire_bytes_per_op"] {
        let unit = e2e.0.iter().find(|x| x.0 == name).map_or("", |x| x.2);
        m.put(name, get(name), unit);
    }
    m
}
