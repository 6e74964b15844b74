//! `perfbench`: the ftIMM reproduction's end-to-end and per-layer
//! benchmark.  See `NOTES.md` beside this crate for what each workload
//! measures and why.

pub mod check;
pub mod doc;
pub mod gemm_steady;
pub mod plan_cold;
pub mod rng;
pub mod run;
pub mod shapes;
pub mod sharded_coexec;
pub mod stats;

use doc::{quote, RunDoc};
use run::{end_to_end, epochs, measure, per_layer, Tally, Workload};
use std::fmt::Write as _;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["plan-cold", "gemm-steady", "sharded-coexec"];

/// Run `workload` for `seconds` on the inputs of `seed`.  Untraced, the
/// result holds the end-to-end metrics; traced, the per-layer metrics,
/// and the per-op timings are written to `trace_dir`.  Progress lines go
/// to standard output.
pub fn run_named(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: &std::path::Path,
) -> Result<RunDoc, String> {
    match workload {
        "plan-cold" => run::<plan_cold::PlanCold>(workload, seed, seconds, trace, trace_dir),
        "gemm-steady" => run::<gemm_steady::GemmSteady>(workload, seed, seconds, trace, trace_dir),
        "sharded-coexec" => {
            run::<sharded_coexec::ShardedCoexec>(workload, seed, seconds, trace, trace_dir)
        }
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
}

fn run<W: Workload>(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: &std::path::Path,
) -> Result<RunDoc, String> {
    if !trace {
        let (t, setup_s, w) = epochs::<W>(seed, seconds)?;
        println!(
            "{name} seed {seed}: {} shapes, {} passes, {} ops in {:.2} s ({:.3} op/s raw)",
            w.size(),
            t.passes,
            t.attempted,
            t.wall_s,
            t.raw_ops_per_s()
        );
        println!("{}", t.failure_line());
        return end_to_end(&t, setup_s);
    }
    // Half the budget untraced, as the reference for tracing overhead and
    // the window over which cache counters are read; half traced.
    let mut w = W::setup(seed, true)?;
    w.verify();
    let before = w.counters();
    let untraced = measure(&mut w, seconds / 2.0, false);
    let window = w.window_metrics(&before, &w.counters(), untraced.attempted);
    let traced = measure(&mut w, seconds / 2.0, true);
    println!(
        "{name} seed {seed} traced: {} ops untraced, {} ops traced",
        untraced.attempted, traced.attempted
    );
    println!("{}", traced.failure_line());
    let doc = per_layer(&traced, &untraced, &window)?;
    let run_id = format!(
        "{name}-seed{seed}-{}-{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
        std::process::id()
    );
    let path = trace_dir.join(format!("{run_id}.json"));
    std::fs::create_dir_all(trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
    std::fs::write(&path, trace_json(&run_id, name, seed, &w, &traced, &doc)?)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(doc)
}

/// The trace file: every traced op's probe values, the failures by kind
/// and the per-layer summary, under the run id.
fn trace_json<W: Workload>(
    run_id: &str,
    name: &str,
    seed: u64,
    w: &W,
    t: &Tally,
    doc: &RunDoc,
) -> Result<String, String> {
    let mut s = format!(
        "{{\"schema\": \"perfbench-trace-v1\", \"run_id\": {}, \"workload\": {}, \"seed\": {seed},\n\"ops\": [",
        quote(run_id),
        quote(name)
    );
    for (n, (i, probes)) in t.records.iter().enumerate() {
        let sep = if n == 0 { "\n" } else { ",\n" };
        let _ = write!(s, "{sep}{{\"shape\": {}", quote(&w.describe(*i)));
        for (k, v) in probes {
            let _ = write!(s, ", {}: {v:?}", quote(k));
        }
        s.push('}');
    }
    s.push_str("\n],\n\"failures\": {");
    for (n, (kind, count)) in t.failures.iter().enumerate() {
        let sep = if n == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{}: {count}", quote(kind));
    }
    let _ = write!(s, "}},\n\"per_layer\": {}}}\n", doc.to_json()?);
    Ok(s)
}
