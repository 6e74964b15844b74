//! Steadiness check: run each workload on several seeds and print, for
//! every metric, the median and the quartile spread (Q3 − Q1 over the
//! median, with Python's `statistics.quantiles(values, n=4)` cut points).
//!
//! ```text
//! steady [--workload <name>]... [--runs 5] [--seed-base 1]
//!        [--heldout-base <n>] [--seconds 10] [--bounds BENCHMARK.json]
//! ```
//!
//! Seeds are `seed-base .. seed-base + runs`.  With `--heldout-base`, the
//! same number of runs is repeated on a second, unseen seed range and its
//! medians are printed beside the first, so a gain claimed on one range
//! can be re-checked on the other.  With a bounds file (the repository's
//! `BENCHMARK.json`), each end-to-end spread is compared with a third of
//! its bound.

use perfbench::doc::{Json, Parser, RunDoc};
use perfbench::stats::{median, quartiles, spread};
use perfbench::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;

struct Opts {
    workloads: Vec<String>,
    runs: u64,
    seed_base: u64,
    heldout_base: Option<u64>,
    seconds: String,
    bounds: Option<String>,
}

fn parse() -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        runs: 5,
        seed_base: 1,
        heldout_base: None,
        seconds: "10".into(),
        bounds: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?.clone();
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => o.workloads.push(v),
            "--runs" => o.runs = num(&v)?.max(2),
            "--seed-base" => o.seed_base = num(&v)?,
            "--heldout-base" => o.heldout_base = Some(num(&v)?),
            "--seconds" => o.seconds = v,
            "--bounds" => o.bounds = Some(v),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().map(|s| s.to_string()).collect();
    }
    Ok(o)
}

/// `name → bound` of the end-to-end metrics in a `BENCHMARK.json`.
fn load_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Parser::new(&text)
        .parse()
        .map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    if let Some(Json::Arr(items)) = doc.get("end_to_end") {
        for m in items {
            if let (Some(Json::Str(n)), Some(Json::Num(b))) = (m.get("name"), m.get("bound")) {
                out.insert(n.clone(), *b);
            }
        }
    }
    Ok(out)
}

fn run_once(o: &Opts, workload: &str, seed: u64) -> Result<RunDoc, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bench = exe.with_file_name("perfbench");
    let out = Command::new(&bench)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("{}: {e}", bench.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    RunDoc::from_json(last)
}

/// Per metric, the values of every run on `seeds`.
fn collect(
    o: &Opts,
    workload: &str,
    seeds: std::ops::Range<u64>,
) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for seed in seeds {
        let doc = run_once(o, workload, seed)?;
        if !doc.correct {
            return Err(format!("{workload} seed {seed}: outputs were not correct"));
        }
        eprintln!(
            "  {workload} seed {seed}: {} attempted, {} failed",
            doc.attempted, doc.failed
        );
        for m in doc.metrics {
            values.entry(m.name).or_default().push(m.value);
        }
    }
    Ok(values)
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("steady: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let o = parse()?;
    let bounds = match &o.bounds {
        Some(p) => load_bounds(p)?,
        None => BTreeMap::new(),
    };
    let mut all_steady = true;
    for w in &o.workloads {
        let seen = collect(&o, w, o.seed_base..o.seed_base + o.runs)?;
        let heldout = match o.heldout_base {
            Some(b) => Some(collect(&o, w, b..b + o.runs)?),
            None => None,
        };
        println!("{w} ({} runs, seeds from {})", o.runs, o.seed_base);
        println!(
            "  {:<28} {:>14} {:>14} {:>14} {:>8} {:>7} {:>14}",
            "metric", "q1", "median", "q3", "spread", "bound", "held-out med"
        );
        for (name, v) in &seen {
            let [q1, med, q3] = quartiles(v).ok_or("too few runs")?;
            let s = spread(v).ok_or("too few runs")?;
            let (bound, verdict) = match bounds.get(name) {
                Some(b) if name != "setup_s" && s > b / 3.0 => {
                    all_steady = false;
                    (format!("{b}"), "  NOISY")
                }
                Some(b) => (format!("{b}"), ""),
                None => ("-".into(), ""),
            };
            let held = heldout
                .as_ref()
                .and_then(|h| h.get(name))
                .and_then(|h| median(h))
                .map_or("-".into(), |m| format!("{m:.6}"));
            println!(
                "  {name:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {s:>8.4} {bound:>7} {held:>14}{verdict}"
            );
        }
    }
    if !all_steady {
        return Err("a spread exceeds a third of its bound".into());
    }
    Ok(())
}
