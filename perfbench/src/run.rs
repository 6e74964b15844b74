//! The closed-loop runner shared by every workload: timed set-up, whole
//! passes over the workload's shape set until the time budget is spent,
//! output checks on every op, and the end-to-end and per-layer reports.

use crate::doc::{Metric, RunDoc};
use crate::stats::{mean, median, tail_quantile};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups (and measured epochs) per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Simulated-clock sample of one completed op.
#[derive(Debug, Clone, Copy)]
pub struct SimSample {
    /// Useful flops.
    pub flops: f64,
    /// Simulated seconds.
    pub seconds: f64,
    /// The roofline bound for the op's shape, GFLOPS.
    pub roofline_gflops: f64,
}

/// What one op reports back to the runner.
pub struct OpResult {
    /// Host wall-clock of the op itself (probes excluded), ms.
    pub ms: f64,
    /// The simulated sample, or the failure kind (an error's name, or
    /// `wrong_output` / `plan_mismatch` for a failed check).
    pub outcome: Result<SimSample, String>,
}

/// Per-layer values of one traced op.
pub type Probes = Vec<(&'static str, f64)>;

/// A benchmark workload: a shape set built at set-up and an op per shape.
pub trait Workload: Sized {
    /// Build contexts, generate inputs and warm up.  With `trace`, also
    /// build what the per-layer probes need.
    fn setup(seed: u64, trace: bool) -> Result<Self, String>;
    /// Check every set-up result against the f64 oracle, untimed; a
    /// result that fails turns each later op on its shape into a
    /// `wrong_output` failure.
    fn verify(&mut self) {}
    /// A fingerprint of each shape's set-up result (`None` where set-up
    /// produced none).
    fn fingerprints(&self) -> Vec<Option<u64>>;
    /// Make every later op on shape `i` a `wrong_output` failure.
    fn mark_wrong(&mut self, i: usize);
    /// Shapes in the set (ops per pass).
    fn size(&self) -> usize;
    /// A description of shape `i`, for the trace file.
    fn describe(&self, i: usize) -> String;
    /// Run op `i`; with `probes`, time each layer's public calls around it.
    fn op(&mut self, i: usize, probes: Option<&mut Probes>) -> OpResult;
    /// Counter snapshot taken before a measured window.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Window-level per-layer metrics from two [`Workload::counters`]
    /// snapshots around `ops` ops.
    fn window_metrics(
        &self,
        _before: &[(&'static str, f64)],
        _after: &[(&'static str, f64)],
        _ops: u64,
    ) -> Probes {
        Vec::new()
    }
}

/// Everything measured over one window of whole passes.
#[derive(Default)]
pub struct Tally {
    /// Latencies of completed ops by shape, ms, one per pass.
    pub shape_ms: Vec<Vec<f64>>,
    /// Ops attempted.
    pub attempted: u64,
    /// Failures by kind.
    pub failures: BTreeMap<String, u64>,
    /// Σ useful flops of the first pass's completed ops.  Every pass
    /// repeats the same ops, so the simulated-clock sums are taken over
    /// the first one: they then repeat exactly for a seed, whatever the
    /// number of passes the host clock allowed.
    pub flops: f64,
    /// Σ simulated seconds of the first pass's completed ops.
    pub sim_s: f64,
    /// Σ flops × roofline GFLOPS of the first pass's completed ops.
    pub roof_weighted: f64,
    /// Wall-clock of the window, s.
    pub wall_s: f64,
    /// Whole passes run.
    pub passes: u64,
    /// Traced per-op records: shape index and probe values.
    pub records: Vec<(usize, Probes)>,
}

impl Tally {
    /// Failed ops.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Wrong outputs (a failed check, not an error).
    pub fn wrong(&self) -> u64 {
        [
            "wrong_output",
            "plan_mismatch",
            "nonfinite_sim",
            "unexpected_success",
        ]
        .iter()
        .filter_map(|k| self.failures.get(*k))
        .sum()
    }

    /// Completed ops.
    pub fn completed(&self) -> usize {
        self.shape_ms.iter().map(Vec::len).sum()
    }

    /// Completed ops per second of the closed loop, from each shape's
    /// best latency over the passes: a pass's completed ops over the sum
    /// of their best latencies.  Host contention only ever adds time, so
    /// a slow phase of the host does not move it unless it covers every
    /// pass of a shape.
    pub fn ops_per_s(&self) -> f64 {
        let lat = self.shape_best();
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3)
    }

    /// Completed ops over the window's wall-clock, slow phases included.
    pub fn raw_ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall_s
    }

    /// Each completed shape's best (lowest) latency over the passes, ms.
    pub fn shape_best(&self) -> Vec<f64> {
        let best = |v: &Vec<f64>| v.iter().copied().reduce(f64::min);
        self.shape_ms.iter().filter_map(best).collect()
    }

    /// `failed_frac 0.0417 (12 of 288); sim.out_of_bounds.SM 12`.
    pub fn failure_line(&self) -> String {
        let mut s = format!(
            "failed_frac {:.4} ({} of {})",
            self.failed() as f64 / self.attempted.max(1) as f64,
            self.failed(),
            self.attempted
        );
        for (kind, n) in &self.failures {
            s.push_str(&format!("; {kind} {n}"));
        }
        s
    }
}

/// Run whole passes of `w` until `seconds` of wall-clock have passed (at
/// least one pass).
pub fn measure<W: Workload>(w: &mut W, seconds: f64, trace: bool) -> Tally {
    let mut t = Tally {
        shape_ms: vec![Vec::new(); w.size()],
        ..Tally::default()
    };
    let start = Instant::now();
    loop {
        for i in 0..w.size() {
            let mut probes = trace.then(Vec::new);
            let r = w.op(i, probes.as_mut());
            t.attempted += 1;
            match r.outcome {
                Ok(s) => {
                    t.shape_ms[i].push(r.ms);
                    if t.passes == 0 {
                        t.flops += s.flops;
                        t.sim_s += s.seconds;
                        t.roof_weighted += s.flops * s.roofline_gflops;
                    }
                }
                Err(kind) => *t.failures.entry(kind).or_default() += 1,
            }
            if let Some(p) = probes {
                t.records.push((i, p));
            }
        }
        t.passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

impl Tally {
    /// Fold a later epoch's window into this one.  The simulated sums
    /// stay those of the first epoch's first pass.
    fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.shape_ms.iter_mut().zip(other.shape_ms) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        for (kind, n) in other.failures {
            *self.failures.entry(kind).or_default() += n;
        }
        self.wall_s += other.wall_s;
        self.passes += other.passes;
        self.records.extend(other.records);
    }
}

/// The measured run: [`SETUP_REPEATS`] epochs, each a timed set-up of a
/// fresh instance followed by a third of the measuring time.  The first
/// instance's set-up results are checked against the oracle; later
/// instances must reproduce them bitwise.  Measuring after every set-up
/// spreads the window over several contexts and allocator states.
/// Returns the pooled window, the median set-up time and the instance.
pub fn epochs<W: Workload>(seed: u64, seconds: f64) -> Result<(Tally, f64, W), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut pooled: Option<Tally> = None;
    let mut verified = Vec::new();
    let mut last: Option<W> = None;
    for e in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let mut w = W::setup(seed, false)?;
        times.push(t.elapsed().as_secs_f64());
        if e == 0 {
            w.verify();
            verified = w.fingerprints();
        } else {
            for (i, (now, then)) in w.fingerprints().iter().zip(&verified).enumerate() {
                if now != then {
                    w.mark_wrong(i);
                }
            }
        }
        let t = measure(&mut w, seconds / SETUP_REPEATS as f64, false);
        match &mut pooled {
            None => pooled = Some(t),
            Some(p) => p.absorb(t),
        }
        last = Some(w);
    }
    Ok((
        pooled.expect("at least one epoch"),
        median(&times).expect("non-empty"),
        last.expect("at least one epoch"),
    ))
}

/// A 64-bit fingerprint of a sequence (`DefaultHasher::new()` has fixed
/// keys, so it repeats across processes).
pub fn fingerprint<T: std::hash::Hash>(items: impl IntoIterator<Item = T>) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for item in items {
        item.hash(&mut h);
    }
    h.finish()
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// The end-to-end metrics, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_gflops", "GFLOPS"),
    ("sim_roofline_frac", "ratio"),
];

/// The end-to-end report of a measured window.
pub fn end_to_end(t: &Tally, setup_s: f64) -> Result<RunDoc, String> {
    let lat = t.shape_best();
    let too_few = || format!("only {} shapes completed", lat.len());
    let sim_gflops = t.flops / t.sim_s / 1e9;
    let values = [
        t.ops_per_s(),
        median(&lat).ok_or_else(too_few)?,
        tail_quantile(&lat, 0.90, 10).ok_or_else(too_few)?,
        t.completed() as f64 / t.attempted as f64,
        setup_s,
        peak_rss_mb()?,
        sim_gflops,
        sim_gflops / (t.roof_weighted / t.flops),
    ];
    Ok(RunDoc {
        correct: t.wrong() == 0,
        attempted: t.attempted,
        failed: t.failed(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| metric(n, v, u))
            .collect(),
    })
}

/// Every per-layer metric, with its unit, in report order.  A traced run
/// reports all of them; a layer that does no work on the workload reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("plan.plan_ms", "ms"),
    ("plan.sims_per_plan", "count"),
    ("plan.candidates_per_plan", "count"),
    ("plan.failures", "count"),
    ("plan.self_ms", "ms"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.sims_during_ops", "count"),
    ("plan.coexec_split_ms", "ms"),
    ("dspsim.sim_ms", "ms"),
    ("dspsim.machine_alloc_ms", "ms"),
    ("sim.kernel_calls", "count"),
    ("sim.dma_transfers", "count"),
    ("sim.ddr_bytes", "bytes"),
    ("sim.gsm_bytes", "bytes"),
    ("sim.compute_cycles", "cycles"),
    ("sim.phase.dma_load_s", "s"),
    ("sim.phase.broadcast_s", "s"),
    ("sim.phase.compute_s", "s"),
    ("sim.phase.reduction_s", "s"),
    ("sim.phase.dma_store_s", "s"),
    ("sim.phase.barrier_s", "s"),
    ("sim.phase.recovery_s", "s"),
    ("kernelgen.gen_ms", "ms"),
    ("kernelgen.kernels_generated", "count"),
    ("kernelgen.compiled_hit_ratio", "ratio"),
    ("kernelgen.compiles", "count"),
    ("exec.gemm_ms", "ms"),
    ("exec.timing_only_ms", "ms"),
    ("exec.data_ms", "ms"),
    ("matrix.upload_ms", "ms"),
    ("matrix.download_ms", "ms"),
    ("verify.ms", "ms"),
    ("resilience.abft_ms", "ms"),
    ("cluster.job_ms", "ms"),
    ("cluster.shards_per_job", "count"),
    ("cluster.failovers_per_job", "count"),
    ("cluster.overhead_ms", "ms"),
    ("backend.cpu_dispatches", "count"),
    ("backend.cpu_rows_frac", "ratio"),
    ("sim.makespan_s", "s"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-layer report: the mean of each probe over the traced ops,
/// then the window metrics and the tracing overhead.
pub fn per_layer(traced: &Tally, untraced: &Tally, window: &Probes) -> Result<RunDoc, String> {
    let mut sums: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (_, probes) in &traced.records {
        for &(name, v) in probes {
            sums.entry(name).or_default().push(v);
        }
    }
    let mut values: BTreeMap<&str, f64> = sums.iter().map(|(k, v)| (*k, mean(v))).collect();
    values.extend(window.iter().copied());
    // Probes run between ops, so tracing overhead shows in the loop's
    // raw rate, not in the per-op latencies.
    values.insert("trace.ops_per_s", traced.raw_ops_per_s());
    values.insert("trace.untraced_ops_per_s", untraced.raw_ops_per_s());
    values.insert(
        "trace.overhead_frac",
        1.0 - traced.raw_ops_per_s() / untraced.raw_ops_per_s(),
    );
    if let Some(unknown) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("probe {unknown} is not a listed per-layer metric"));
    }
    Ok(RunDoc {
        correct: traced.wrong() == 0 && untraced.wrong() == 0,
        attempted: traced.attempted,
        failed: traced.failed(),
        metrics: PER_LAYER
            .iter()
            .map(|&(n, u)| metric(n, values.get(n).copied().unwrap_or(0.0), u))
            .collect(),
    })
}
