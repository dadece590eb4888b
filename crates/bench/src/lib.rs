//! # zero-bench
//!
//! One harness for the in-tree ablation benches. The bins under `src/bin/`
//! are tables of cases; everything a bench needs besides its table lives
//! here, once: the timer ([`best_of`]), the `--smoke` / `--out` /
//! `--check-against` flags and the `results/BENCH_<name>.json` path
//! ([`Harness`]), [`percentile`], the row printer ([`print_row`]) and the
//! comparison against a committed file ([`Harness::check`]).
//!
//! **The contract.** What a run computes is compared *exactly*: inside the
//! bin (losses of a lossless pair bit-equal, GEMMs bit-equal to
//! `matmul::reference`, served tokens equal to the incremental decoder) or
//! against the committed file with [`equal`] (schedule counts, traffic and
//! tier bytes). How long it took is compared *loosely*: [`not_slower`]
//! fails only at [`LOOSE`]× the committed value, which catches a fall onto
//! a scalar path or a lost overlap and nothing subtler — a single run on a
//! shared VM drifts by ~8 %. The judge of time is the frozen `zero_bench/`
//! package (see `BENCHMARK.json`), run as alternating parent/change pairs
//! by the PR pipeline. Every document records [`nproc`], and rows whose
//! world has more ranks than that are marked `oversubscribed`: their times
//! measure the scheduler, and their speedups are recorded but not printed.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Serialize;
use serde_json::Value;
use zero::cli::{usage_exit, Args};
use zero::comm::TieredLink;

/// A timing fails `--check-against` when it is this many times worse than
/// the committed one.
pub const LOOSE: f64 = 2.0;

/// Runs `f` `trials` times and returns the fastest run's seconds with its
/// result: the ranks share one host with the harness, so the minimum is
/// the estimate least disturbed by the scheduler.
pub fn best_of<T>(trials: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut timed = || {
        let t0 = Instant::now();
        let out = f();
        (t0.elapsed().as_secs_f64(), out)
    };
    let runs = (0..trials.max(1)).map(|_| timed());
    runs.min_by(|a, b| a.0.total_cmp(&b.0)).expect("at least one trial ran")
}

/// One rank per node, so every message pays the slow price, 150 µs plus
/// its bytes at 40 MB/s (the intra fields are never read): `zero_bench`'s
/// `train.comm` link, which `bench_step`'s overlap rows and
/// `bench_matmul`'s flat all-gather rows run on.
pub const FLAT_LINK: TieredLink = TieredLink {
    node_size: 1,
    intra_latency: Duration::ZERO,
    intra_bytes_per_sec: 1e12,
    inter_latency: Duration::from_micros(150),
    inter_bytes_per_sec: 4e7,
};

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// distribution at or below it, `sorted[⌈q·n⌉ − 1]` — always an observed
/// sample, p100 the maximum, p50 the lower median.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What every bench bin is given: its flags and, under `--check-against`,
/// the committed file to compare with.
pub struct Harness {
    name: &'static str,
    /// The bin's own flags, plus the three the harness reads.
    pub args: Args,
    /// `--smoke`: the smallest configuration, results file untouched.
    pub smoke: bool,
    /// `--check-against PATH`, loaded.
    pub baseline: Option<Baseline>,
}

impl Harness {
    /// Parses the process's arguments against the bin's `options` (each
    /// takes a value) and `switches`; an unknown flag, a missing value or
    /// an unreadable baseline exits 2.
    pub fn from_env(name: &'static str, options: &[&str], switches: &[&str]) -> Harness {
        let options = [options, &["--out", "--check-against"]].concat();
        let switches = [switches, &["--smoke"]].concat();
        let args = Args::from_env(&options, &switches);
        let baseline = args
            .maybe::<String>("--check-against")
            .map(|path| Baseline::load(&path).unwrap_or_else(|e| usage_exit(&e)));
        Harness { name, smoke: args.flag("--smoke"), baseline, args }
    }

    /// `results/BENCH_<name>.json` at the repository root.
    pub fn results_path(&self) -> PathBuf {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
        root.expect("crates/bench has a grandparent").join(format!("results/BENCH_{}.json", self.name))
    }

    /// Under `--check-against`, compares each of `rows` with its committed
    /// counterpart in `section` — the `exact` fields equal, the `time`
    /// field (if any) not [`LOOSE`]× slower — and exits 1 naming the first
    /// row and field that fail. Does nothing otherwise.
    pub fn check<'a, R: Serialize + 'a>(
        &self,
        section: &str,
        rows: impl IntoIterator<Item = &'a R>,
        key: &[&str],
        exact: &[&str],
        time: Option<&str>,
    ) {
        let Some(base) = &self.baseline else { return };
        let mut compared = 0;
        for row in rows {
            let row = to_value(row);
            let verdict = base.row(section, &row, key).and_then(|committed| {
                equal(committed, &row, exact)?;
                time.map_or(Ok(()), |field| not_slower(committed, &row, field))
            });
            if let Err(e) = verdict {
                eprintln!("check: FAIL — {} against {}: {e}", line(&row, key), base.path);
                std::process::exit(1);
            }
            compared += 1;
        }
        let timed = time.map_or(String::new(), |t| format!(", {t} under {LOOSE}x"));
        println!("check: OK — {compared} rows: {} exact fields equal{timed}", exact.len());
    }

    /// Writes `doc` to `--out` if given; otherwise a full run rewrites the
    /// results file and a `--smoke` or `--check-against` run leaves it.
    pub fn finish(&self, doc: &impl Serialize) {
        let out = self.args.maybe::<String>("--out").map(PathBuf::from);
        let rewrite = !self.smoke && self.baseline.is_none();
        let Some(path) = out.or_else(|| rewrite.then(|| self.results_path())) else {
            return println!("run complete (results file untouched)");
        };
        let json = serde_json::to_string_pretty(doc).expect("serialize results");
        std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// A measured row as the JSON it would be written as — the form
/// [`Baseline`] compares.
pub fn to_value(row: &impl Serialize) -> Value {
    let json = serde_json::to_string(row).expect("serialize row");
    serde_json::from_str(&json).expect("a serialized row parses")
}

/// `name=value` for each of `fields`, on one line.
fn line(row: &Value, fields: &[&str]) -> String {
    let show = |f: &&str| match row.get(f) {
        Some(Value::Number(n)) if n.fract() == 0.0 => format!("{f}={n}"),
        Some(Value::Number(n)) => format!("{f}={n:.4}"),
        Some(Value::String(s)) => format!("{f}={s}"),
        Some(Value::Bool(b)) => format!("{f}={b}"),
        other => format!("{f}={other:?}"),
    };
    fields.iter().map(show).collect::<Vec<_>>().join(" ")
}

/// Prints every scalar field of a measured row.
pub fn print_row(row: &impl Serialize) {
    let row = to_value(row);
    let Value::Object(fields) = &row else { panic!("a row serializes as an object") };
    let scalars = fields.iter().filter(|(_, v)| !matches!(v, Value::Array(_)));
    println!("{}", line(&row, &scalars.map(|(name, _)| name.as_str()).collect::<Vec<_>>()));
}

/// A committed results file. [`Harness::check`] looks each measured row up
/// in it by the `key` fields the bin names and applies the two comparisons,
/// [`equal`] and [`not_slower`].
pub struct Baseline {
    path: String,
    doc: Value,
}

impl Baseline {
    /// Reads and parses `path`.
    pub fn load(path: &str) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("baseline {path}: {e}"))?;
        Ok(Baseline { path: path.to_string(), doc })
    }

    /// The committed row of `section` (`""`: the document is the row
    /// array) whose `key` fields all equal `row`'s.
    pub fn row(&self, section: &str, row: &Value, key: &[&str]) -> Result<&Value, String> {
        let rows = if section.is_empty() { Some(&self.doc) } else { self.doc.get(section) };
        let same =
            |base: &&Value| key.iter().all(|k| base.get(k).is_some() && base.get(k) == row.get(k));
        let found = rows.and_then(Value::as_array).and_then(|rows| rows.iter().find(same));
        found.ok_or_else(|| format!("{} [{section}] has no row with {}", self.path, line(row, key)))
    }
}

/// Every one of `fields` must be present and identical in the measured
/// `row` and its committed counterpart `base`.
pub fn equal(base: &Value, row: &Value, fields: &[&str]) -> Result<(), String> {
    match fields.iter().find(|f| base.get(f).is_none() || base.get(f) != row.get(f)) {
        Some(f) => Err(format!("measured {}, committed {}", line(row, &[f]), line(base, &[f]))),
        None => Ok(()),
    }
}

/// The duration `field` of the measured `row` must be under [`LOOSE`]× its
/// committed counterpart's.
pub fn not_slower(base: &Value, row: &Value, field: &str) -> Result<(), String> {
    let secs = |v: &Value| v.get(field).and_then(Value::as_f64).filter(|x| *x > 0.0);
    match (secs(row), secs(base)) {
        (Some(got), Some(want)) if got < LOOSE * want => Ok(()),
        (Some(got), Some(want)) => {
            Err(format!("{field} is {got:.4}, {:.2}x the committed {want:.4}", got / want))
        }
        _ => Err(format!("{field} is missing or not positive in the run or the committed row")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        name: &'static str,
        ranks: usize,
        batch_steps: u64,
        secs: f64,
    }

    const KEY: &[&str] = &["name", "ranks"];

    fn committed() -> Baseline {
        let doc = r#"{"steps": 10, "rows": [
            {"name": "a", "ranks": 2, "batch_steps": 70, "secs": 1.0},
            {"name": "a", "ranks": 4, "batch_steps": 35, "secs": 3.0}]}"#;
        Baseline { path: "committed.json".to_string(), doc: serde_json::from_str(doc).unwrap() }
    }

    fn run(ranks: usize, batch_steps: u64, secs: f64) -> Value {
        to_value(&Row { name: "a", ranks, batch_steps, secs })
    }

    #[test]
    fn a_missing_row_is_an_error_naming_the_key() {
        let err = committed().row("rows", &run(8, 70, 1.0), KEY).unwrap_err();
        assert!(err.contains("committed.json") && err.contains("name=a ranks=8"), "{err}");
        let err = committed().row("open_loop", &run(2, 70, 1.0), KEY).unwrap_err();
        assert!(err.contains("open_loop"), "{err}");
    }

    #[test]
    fn exact_fields_must_be_equal_and_the_error_names_the_field() {
        let file = committed();
        let base = |ranks| file.row("rows", &run(ranks, 0, 0.0), KEY).unwrap();
        // The key picks the row: ranks = 4 is compared with 35, not 70.
        equal(base(2), &run(2, 70, 9.0), &["batch_steps"]).unwrap();
        equal(base(4), &run(4, 35, 9.0), &["batch_steps"]).unwrap();
        let err = equal(base(2), &run(2, 71, 1.0), &["ranks", "batch_steps"]).unwrap_err();
        assert!(err.contains("batch_steps=71") && err.contains("batch_steps=70"), "{err}");
        // A field neither side has is not "equal".
        let err = equal(base(2), &run(2, 70, 1.0), &["shed"]).unwrap_err();
        assert!(err.contains("shed"), "{err}");
    }

    #[test]
    fn time_is_loose() {
        let file = committed();
        let base = |ranks| file.row("rows", &run(ranks, 0, 0.0), KEY).unwrap();
        not_slower(base(2), &run(2, 70, 1.9), "secs").unwrap();
        not_slower(base(2), &run(2, 70, 0.1), "secs").unwrap();
        not_slower(base(4), &run(4, 35, 5.7), "secs").unwrap();
        let err = not_slower(base(2), &run(2, 70, 2.1), "secs").unwrap_err();
        assert!(err.contains("secs") && err.contains("2.10x"), "{err}");
        // A timing that is absent or zero was not measured: not a pass.
        not_slower(base(2), &run(2, 70, 0.0), "secs").unwrap_err();
        not_slower(base(2), &run(2, 70, 1.0), "wall_secs").unwrap_err();
    }

    #[test]
    fn best_of_keeps_the_fastest_trial_and_its_result() {
        let mut calls = 0;
        let (secs, out) = best_of(3, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(if calls == 2 { 1 } else { 100 }));
            calls
        });
        assert_eq!((calls, out), (3, 2));
        assert!(secs < 0.1, "{secs}");
        assert_eq!(best_of(0, || 7).1, 7, "zero trials still runs once");
    }

    /// Pins the nearest-rank definition on small known samples — the
    /// regression the old round()-based index computation failed.
    #[test]
    fn percentiles_use_nearest_rank_with_ceil() {
        // 20 samples 1..=20: p50 = 10th sample, p99 = ⌈19.8⌉ = 20th,
        // p100 = max. round() gave p99 = sorted[round(0.99·19)] = 19.
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.50), 10);
        assert_eq!(percentile(&v, 0.99), 20);
        assert_eq!(percentile(&v, 1.00), 20);
        assert_eq!(percentile(&v, 0.0), 1);

        // 34 samples: p50 = ⌈17⌉ = 17th, p90 = ⌈30.6⌉ = 31st.
        let v: Vec<u64> = (1..=34).collect();
        assert_eq!(percentile(&v, 0.50), 17);
        assert_eq!(percentile(&v, 0.90), 31);

        // 50 samples: p99 = ⌈49.5⌉ = 50th — the tail is the tail.
        let v: Vec<u64> = (1..=50).collect();
        assert_eq!(percentile(&v, 0.99), 50);
        // The old round(q·(n−1)) formula overshot the median on even
        // sample counts: round(0.5·19) = 10 → the 11th sample, not the
        // 10th that nearest-rank (and any median definition) picks.
        let v: Vec<u64> = (1..=20).collect();
        let old = (0.50 * (v.len() - 1) as f64).round() as usize;
        assert_eq!(v[old], 11, "documented: the bug this replaces reported 11");
        assert_eq!(percentile(&v, 0.50), 10);

        // Singleton: every percentile is the sample.
        assert_eq!(percentile(&[7], 0.01), 7);
        assert_eq!(percentile(&[7], 1.0), 7);
    }
}
