//! `sharded-coexec`: a multi-cluster job service with ABFT and CPU
//! co-execution.
//!
//! One long-lived `ShardedEngine` runs over a 4-cluster Compiled
//! `ClusterPool` with `SpillPolicy::CoExecute`, 64-row checkpoints and
//! the default `CpuConfig`.  Each op submits one functional job, drains
//! the engine with `run_all` and compares C bitwise with the set-up
//! result.  `resilience` ABFT, `cluster` shard dispatch and merge and the
//! CPU lane do the work, on the same exec and kernel layers as
//! `gemm-steady` but in checkpoint-span slices.

use crate::check::{bitwise_eq, check_against_f64, error_kind};
use crate::run::{fingerprint, OpResult, Probes, SimSample, Workload};
use crate::shapes::{shape_set, Family, Operands, ShapeSpec};
use cpublas::CpuConfig;
use dspsim::{BackendKind, ExecMode, HwConfig, Machine};
use ftimm::roofline::roofline_gflops;
use ftimm::{
    choose_coexec_split, ChosenStrategy, ClusterPool, CpuBackend, FtImm, GemmProblem, GemmShape,
    ResilienceConfig, ShardedConfig, ShardedEngine, ShardedJob, ShardedOutcome, ShardedReport,
    SpillPolicy, Strategy, TenantId, TenantSpec,
};
use std::time::Instant;

/// Shapes per set (odd, so the median op is a real one).
pub const SET_SIZE: usize = 45;
/// Flop bounds of the set.
pub const FLOPS: (f64, f64) = (5e6, 5e7);
/// Clusters in the pool.
pub const CLUSTERS: usize = 4;
/// Checkpoint span, rows.
pub const CKPT_ROWS: usize = 64;
const CORES: usize = 8;

/// Traced runs only: one planned shard, staged on its own machine.
struct ShardProbe {
    backend: BackendKind,
    r0: usize,
    r1: usize,
    /// DSP shards: a Compiled machine holding the stripe's problem.
    staged: Option<(Machine, GemmProblem)>,
}

struct Job {
    spec: ShapeSpec,
    ops: Operands,
    /// The checked set-up result, or why set-up could not produce one.
    expect: Result<Vec<f32>, String>,
    strategy: Option<ChosenStrategy>,
    shards: Vec<ShardProbe>,
}

/// The workload state.
pub struct ShardedCoexec {
    cfg: HwConfig,
    ft: FtImm,
    engine: ShardedEngine,
    tenant: TenantId,
    jobs: Vec<Job>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn engine_config() -> ShardedConfig {
    let mut cfg = ShardedConfig {
        spill: SpillPolicy::CoExecute,
        cpu: CpuConfig::default(),
        ..ShardedConfig::default()
    };
    cfg.engine.resilience.ckpt_rows = CKPT_ROWS;
    cfg
}

fn resilience() -> ResilienceConfig {
    engine_config().engine.resilience
}

impl ShardedCoexec {
    /// Shape `i` as a job: the engine takes its operands by value.
    fn job(&self, i: usize) -> ShardedJob {
        let j = &self.jobs[i];
        let GemmShape { m, n, k } = j.spec.shape;
        let (a, b, c) = (j.ops.a.clone(), j.ops.b.clone(), j.ops.c.clone());
        ShardedJob::gemm(m, n, k, a, b, c, Strategy::Auto, CORES)
    }

    /// Submit `job` and drain the engine.
    fn run_job(&mut self, job: ShardedJob) -> Result<(Vec<f32>, Box<ShardedReport>), String> {
        self.engine.submit(self.tenant, job);
        let mut records = self.engine.run_all(&self.ft);
        match records.pop().map(|r| r.outcome) {
            Some(ShardedOutcome::Completed { c, report }) if records.is_empty() => Ok((c, report)),
            Some(ShardedOutcome::Failed { error }) => Err(error_kind(&error)),
            Some(other) => Err(other.label().to_string()),
            None => Err("no_outcome".into()),
        }
    }

    /// Time every planned shard of job `i` run on its own: DSP shards
    /// through `run_plan_resilient`, the CPU tail through the CPU lane.
    /// Returns (Σ shard ms, ABFT ms on the largest DSP shard).
    fn time_shards(&mut self, i: usize) -> (f64, f64) {
        let j = &mut self.jobs[i];
        let (Some(strategy), Ok(_)) = (j.strategy, &j.expect) else {
            return (0.0, 0.0);
        };
        let (n, k) = (j.spec.shape.n, j.spec.shape.k);
        let largest = j
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.staged.is_some())
            .max_by_key(|(_, s)| s.r1 - s.r0)
            .map(|(x, _)| x);
        let (mut total, mut abft) = (0.0, 0.0);
        for (x, s) in j.shards.iter_mut().enumerate() {
            let c0 = &j.ops.c[s.r0 * n..s.r1 * n];
            if let Some((m, p)) = &mut s.staged {
                let _ = p.c.upload(m, c0);
                m.reset_timing();
                let t = Instant::now();
                let _ = self
                    .ft
                    .run_plan_resilient(m, p, &strategy, CORES, &resilience());
                let resilient_ms = ms(t);
                total += resilient_ms;
                if Some(x) == largest {
                    let _ = p.c.upload(m, c0);
                    m.reset_timing();
                    let t = Instant::now();
                    let _ = self.ft.run_plan(m, p, &strategy, CORES);
                    abft = resilient_ms - ms(t);
                }
            } else if s.backend == BackendKind::Cpu {
                let mut c = c0.to_vec();
                let mut cpu = CpuBackend::new(CpuConfig::default()).with_dsp_cores(CORES);
                let t = Instant::now();
                let _ = cpu.run_stripe(
                    self.ft.executor(),
                    &strategy,
                    CORES,
                    &j.ops.a[s.r0 * k..s.r1 * k],
                    &j.ops.b,
                    &mut c,
                    n,
                    k,
                    s.r1 - s.r0,
                    CKPT_ROWS,
                    None,
                );
                total += ms(t);
            }
        }
        (total, abft)
    }
}

impl Workload for ShardedCoexec {
    fn setup(seed: u64, trace: bool) -> Result<Self, String> {
        let cfg = HwConfig::default();
        let ft = FtImm::new(cfg.clone());
        let pool = ClusterPool::new(&cfg, ExecMode::Compiled, CLUSTERS);
        let mut engine = ShardedEngine::new(pool, engine_config());
        let tenant = engine.register_tenant(TenantSpec::new("perfbench", 5));
        let families = [Family::Type1, Family::Type2];
        let jobs = shape_set(seed, SET_SIZE, &families, FLOPS.0, FLOPS.1)
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Job {
                ops: spec.operands(seed ^ ((i as u64) << 32)),
                spec,
                expect: Err("not run".into()),
                strategy: None,
                shards: Vec::new(),
            })
            .collect();
        let mut w = ShardedCoexec {
            cfg,
            ft,
            engine,
            tenant,
            jobs,
        };
        for i in 0..w.jobs.len() {
            let run = w.run_job(w.job(i));
            let j = &mut w.jobs[i];
            let (n, k) = (j.spec.shape.n, j.spec.shape.k);
            j.expect = match run {
                Ok((c, report)) => {
                    j.strategy = Some(report.plan.plan.strategy);
                    if trace {
                        for s in &report.plan.shards {
                            let staged = if s.backend == BackendKind::Dsp {
                                let rows = s.r1 - s.r0;
                                let mut mach = Machine::new(w.cfg.clone(), ExecMode::Compiled);
                                let sim = |e| format!("shard set-up of {}: {e}", j.spec.shape);
                                let p = GemmProblem::alloc(&mut mach, rows, n, k).map_err(sim)?;
                                p.a.upload(&mut mach, &j.ops.a[s.r0 * k..s.r1 * k])
                                    .map_err(sim)?;
                                p.b.upload(&mut mach, &j.ops.b).map_err(sim)?;
                                Some((mach, p))
                            } else {
                                None
                            };
                            j.shards.push(ShardProbe {
                                backend: s.backend,
                                r0: s.r0,
                                r1: s.r1,
                                staged,
                            });
                        }
                    }
                    Ok(c)
                }
                Err(kind) => Err(kind),
            };
        }
        Ok(w)
    }

    fn verify(&mut self) {
        for j in &mut self.jobs {
            let Ok(got) = &j.expect else { continue };
            let GemmShape { m, n, k } = j.spec.shape;
            if let Err(e) = check_against_f64(m, n, k, &j.ops.a, &j.ops.b, &j.ops.c, got) {
                eprintln!("sharded-coexec: wrong output for {}: {e}", j.spec.shape);
                j.expect = Err("wrong_output".into());
            }
        }
    }

    fn fingerprints(&self) -> Vec<Option<u64>> {
        let fp = |j: &Job| {
            j.expect
                .as_ref()
                .ok()
                .map(|c| fingerprint(c.iter().map(|x| x.to_bits())))
        };
        self.jobs.iter().map(fp).collect()
    }

    fn mark_wrong(&mut self, i: usize) {
        self.jobs[i].expect = Err("wrong_output".into());
    }

    fn size(&self) -> usize {
        self.jobs.len()
    }

    fn describe(&self, i: usize) -> String {
        let s = &self.jobs[i].spec;
        format!("{} {}", s.family.name(), s.shape)
    }

    fn op(&mut self, i: usize, probes: Option<&mut Probes>) -> OpResult {
        // Copying the operands into the job is input preparation, not the
        // service under test, so it happens before the clock starts.
        let job = self.job(i);
        let dispatches = self.engine.cpu_dispatches();
        let t = Instant::now();
        let run = self.run_job(job);
        let job_ms = ms(t);
        let j = &self.jobs[i];
        let outcome = match (run, &j.expect) {
            (Err(kind), _) => Err(kind),
            (Ok(_), Err(kind)) if kind == "wrong_output" => Err(kind.clone()),
            (Ok(_), Err(_)) => Err("unexpected_success".into()),
            (Ok((c, report)), Ok(want)) => {
                if bitwise_eq(&c, want) {
                    Ok(report)
                } else {
                    Err("wrong_output".into())
                }
            }
        };
        let op_ms = ms(t);
        let shape = j.spec.shape;
        if let (Some(probes), Ok(report)) = (probes, &outcome) {
            let cpu_dispatches = self.engine.cpu_dispatches() - dispatches;
            let cpu_rows: usize = report
                .shard_runs
                .iter()
                .filter(|r| r.backend == BackendKind::Cpu)
                .map(|r| r.r1 - r.r0)
                .sum();
            let t = Instant::now();
            choose_coexec_split(
                &self.ft,
                &shape,
                Strategy::Auto,
                CORES,
                CLUSTERS,
                CKPT_ROWS,
                &CpuConfig::default(),
                1.0,
            );
            let split_ms = ms(t);
            let (shards_ms, abft_ms) = self.time_shards(i);
            probes.extend([
                ("cluster.job_ms", job_ms),
                ("cluster.shards_per_job", report.plan.shards.len() as f64),
                ("cluster.failovers_per_job", report.failovers.len() as f64),
                ("cluster.overhead_ms", job_ms - shards_ms),
                ("backend.cpu_dispatches", cpu_dispatches as f64),
                ("backend.cpu_rows_frac", cpu_rows as f64 / shape.m as f64),
                ("sim.makespan_s", report.seconds),
                ("plan.coexec_split_ms", split_ms),
                ("resilience.abft_ms", abft_ms),
            ]);
        }
        OpResult {
            ms: op_ms,
            outcome: outcome.map(|r| SimSample {
                flops: r.useful_flops as f64,
                seconds: r.seconds,
                roofline_gflops: CLUSTERS as f64 * roofline_gflops(&self.cfg, &shape, CORES),
            }),
        }
    }
}
