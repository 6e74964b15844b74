//! `gemm-steady`: an application loop (k-means iterations, CNN layers,
//! FEM batches, type-2 products) that re-runs known shapes.
//!
//! Set-up plans, runs and checks every shape once.  Each op resets C,
//! runs `FtImm::gemm` in `ExecMode::Compiled` (a plan-cache hit with no
//! simulation), downloads C and compares it bitwise with the set-up
//! result.  The compiled `kernelgen` tier, `dspsim` DMA data movement and
//! `matrix` upload/download do the work.

use crate::check::{bitwise_eq, check_against_f64, error_kind};
use crate::plan_cold::{cold_plan, plan_probes, warm_context};
use crate::run::{fingerprint, OpResult, Probes, SimSample, Workload};
use crate::shapes::{shape_set, Family, ShapeSpec};
use dspsim::{ExecMode, HwConfig, Machine, Phase};
use ftimm::roofline::roofline_gflops;
use ftimm::{Executor, FtImm, GemmProblem, GemmShape, Plan, Strategy};
use std::time::Instant;

/// Shapes per set (odd, so the median op is a real one).
pub const SET_SIZE: usize = 95;
/// Flop bounds of the set.
pub const FLOPS: (f64, f64) = (4e6, 2e7);
const CORES: usize = 8;
const PHASES: [(Phase, &str); 7] = [
    (Phase::DmaLoad, "sim.phase.dma_load_s"),
    (Phase::Broadcast, "sim.phase.broadcast_s"),
    (Phase::Compute, "sim.phase.compute_s"),
    (Phase::Reduction, "sim.phase.reduction_s"),
    (Phase::DmaStore, "sim.phase.dma_store_s"),
    (Phase::Barrier, "sim.phase.barrier_s"),
    (Phase::Recovery, "sim.phase.recovery_s"),
];

struct Slot {
    spec: ShapeSpec,
    problem: GemmProblem,
    /// The initial C, unless it is all zeros.
    c0: Option<Vec<f32>>,
    /// The checked set-up result, or why set-up could not produce one.
    expect: Result<Vec<f32>, String>,
    plan: Plan,
    /// Traced runs only: the same problem on the Timing machine.
    timing: Option<GemmProblem>,
}

/// The workload state.
pub struct GemmSteady {
    cfg: HwConfig,
    ft: FtImm,
    /// One Compiled machine holds every shape's operands in its DDR.
    machine: Machine,
    /// Traced runs only: a Timing machine holding the same problems.
    timing: Option<Machine>,
    /// Traced runs only: a warm-kernel, no-plan-cache context for the
    /// cold-planning probes.
    warm: Option<FtImm>,
    slots: Vec<Slot>,
    /// The zeros every all-zero C is reset from.
    zeros: Vec<f32>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Workload for GemmSteady {
    fn setup(seed: u64, trace: bool) -> Result<Self, String> {
        let cfg = HwConfig::default();
        let ft = FtImm::new(cfg.clone());
        let families = [Family::Kmeans, Family::Im2col, Family::Fem, Family::Type2];
        let shapes = shape_set(seed, SET_SIZE, &families, FLOPS.0, FLOPS.1);
        let mut machine = Machine::new(cfg.clone(), ExecMode::Compiled);
        let mut timing = trace.then(|| Machine::new(cfg.clone(), ExecMode::Timing));
        let mut slots = Vec::with_capacity(shapes.len());
        for (i, spec) in shapes.into_iter().enumerate() {
            let (m, n, k) = (spec.shape.m, spec.shape.n, spec.shape.k);
            let ops = spec.operands(seed ^ ((i as u64) << 32));
            let sim = |e| format!("set-up of {}: {e}", spec.shape);
            let problem = GemmProblem::alloc(&mut machine, m, n, k).map_err(sim)?;
            problem.a.upload(&mut machine, &ops.a).map_err(sim)?;
            problem.b.upload(&mut machine, &ops.b).map_err(sim)?;
            problem.c.upload(&mut machine, &ops.c).map_err(sim)?;
            let plan = ft.plan_full(&spec.shape, Strategy::Auto, CORES);
            machine.reset_timing();
            let expect = match ft.gemm(&mut machine, &problem, Strategy::Auto, CORES) {
                Ok(_) => Ok(problem.c.download(&mut machine).map_err(sim)?),
                Err(e) => Err(error_kind(&e)),
            };
            let timing = match &mut timing {
                Some(tm) => Some(GemmProblem::alloc(tm, m, n, k).map_err(sim)?),
                None => None,
            };
            slots.push(Slot {
                spec,
                problem,
                c0: ops.c.iter().any(|x| *x != 0.0).then_some(ops.c),
                expect,
                plan,
                timing,
            });
        }
        let most = slots.iter().map(|s| s.spec.shape.m * s.spec.shape.n).max();
        let warm = trace.then(|| warm_context(&cfg, slots.iter().map(|s| s.spec.shape)));
        Ok(GemmSteady {
            cfg,
            ft,
            machine,
            timing,
            warm,
            slots,
            zeros: vec![0.0; most.unwrap_or(0)],
        })
    }

    fn verify(&mut self) {
        let machine = &mut self.machine;
        for slot in &mut self.slots {
            let Ok(got) = &slot.expect else { continue };
            let GemmShape { m, n, k } = slot.spec.shape;
            let p = &slot.problem;
            let checked = match (p.a.download(machine), p.b.download(machine)) {
                (Ok(a), Ok(b)) => {
                    let c0 = slot.c0.as_deref().unwrap_or(&self.zeros[..m * n]);
                    check_against_f64(m, n, k, &a, &b, c0, got)
                }
                (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
            };
            if let Err(e) = checked {
                eprintln!("gemm-steady: wrong output for {}: {e}", slot.spec.shape);
                slot.expect = Err("wrong_output".into());
            }
        }
    }

    fn fingerprints(&self) -> Vec<Option<u64>> {
        let fp = |s: &Slot| {
            s.expect
                .as_ref()
                .ok()
                .map(|c| fingerprint(c.iter().map(|x| x.to_bits())))
        };
        self.slots.iter().map(fp).collect()
    }

    fn mark_wrong(&mut self, i: usize) {
        self.slots[i].expect = Err("wrong_output".into());
    }

    fn size(&self) -> usize {
        self.slots.len()
    }

    fn describe(&self, i: usize) -> String {
        let s = &self.slots[i].spec;
        format!("{} {}", s.family.name(), s.shape)
    }

    fn op(&mut self, i: usize, probes: Option<&mut Probes>) -> OpResult {
        let slot = &self.slots[i];
        let (m, p) = (&mut self.machine, &slot.problem);
        let t = Instant::now();
        let c0 = slot.c0.as_deref();
        let up = p.c.upload(m, c0.unwrap_or(&self.zeros[..p.m() * p.n()]));
        m.reset_timing();
        let upload_ms = ms(t);
        let t1 = Instant::now();
        let run = self.ft.gemm(m, p, Strategy::Auto, CORES);
        let gemm_ms = ms(t1);
        let t2 = Instant::now();
        let got = p.c.download(m);
        let download_ms = ms(t2);
        let t3 = Instant::now();
        let outcome = match (up, run, got, &slot.expect) {
            (Err(e), ..) | (_, _, Err(e), _) => Err(error_kind(&e.into())),
            (_, Err(e), ..) => Err(error_kind(&e)),
            (_, Ok(_), Ok(_), Err(kind)) if kind == "wrong_output" => Err(kind.clone()),
            (_, Ok(_), Ok(_), Err(_)) => Err("unexpected_success".into()),
            (_, Ok((report, _)), Ok(c), Ok(want)) => {
                if bitwise_eq(&c, want) {
                    Ok(report)
                } else {
                    Err("wrong_output".into())
                }
            }
        };
        let verify_ms = ms(t3);
        let op_ms = ms(t);
        if let (Some(probes), Ok(report), Some(tm), Some(tp)) =
            (probes, &outcome, &mut self.timing, &slot.timing)
        {
            let strategy = slot.plan.strategy;
            tm.reset_timing();
            let t = Instant::now();
            let timed = self.ft.run_plan(tm, tp, &strategy, CORES);
            let timing_only_ms = ms(t);
            tm.reset_timing();
            let profiled = Executor::new(&self.ft)
                .with_plan(strategy)
                .cores(CORES)
                .profiled()
                .run(tm, tp);
            let tot = report.totals;
            probes.extend([
                ("exec.gemm_ms", gemm_ms),
                ("exec.timing_only_ms", timing_only_ms),
                ("exec.data_ms", gemm_ms - timing_only_ms),
                ("matrix.upload_ms", upload_ms),
                ("matrix.download_ms", download_ms),
                ("verify.ms", verify_ms),
                ("sim.kernel_calls", tot.kernel_calls as f64),
                ("sim.dma_transfers", tot.dma_transfers as f64),
                ("sim.ddr_bytes", tot.ddr_bytes as f64),
                ("sim.gsm_bytes", tot.gsm_bytes as f64),
                ("sim.compute_cycles", tot.compute_cycles as f64),
            ]);
            if let (Ok(_), Ok(Some(prof))) = (timed, profiled.map(|r| r.profile)) {
                probes.extend(
                    PHASES
                        .iter()
                        .map(|&(ph, name)| (name, prof.phase_seconds(ph))),
                );
            }
            // What planning this shape costs a fresh process: the cold
            // path the op skips through its plan-cache hit.
            if let Some(warm) = &self.warm {
                let cold = cold_plan(&self.cfg, &slot.spec.shape);
                plan_probes(&self.cfg, warm, &slot.spec.shape, &cold, probes);
            }
        }
        OpResult {
            ms: op_ms,
            outcome: outcome.map(|r| SimSample {
                flops: r.useful_flops as f64,
                seconds: r.seconds,
                roofline_gflops: roofline_gflops(&self.cfg, &slot.spec.shape, CORES),
            }),
        }
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let plan = self.ft.plan_cache_stats();
        let exec = self.ft.executor_stats();
        vec![
            ("plan_hits", plan.hits as f64),
            ("plan_misses", plan.misses as f64),
            ("sims", self.ft.timing_simulations() as f64),
            ("exec_hits", exec.hits as f64),
            ("exec_misses", exec.misses as f64),
            ("compiles", exec.compiles as f64),
        ]
    }

    fn window_metrics(
        &self,
        before: &[(&'static str, f64)],
        after: &[(&'static str, f64)],
        ops: u64,
    ) -> Probes {
        let d = |k: &str| {
            let get = |v: &[(&str, f64)]| v.iter().find(|(n, _)| *n == k).map_or(0.0, |x| x.1);
            get(after) - get(before)
        };
        let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
        vec![
            (
                "plan.cache_hit_ratio",
                ratio(d("plan_hits"), d("plan_misses")),
            ),
            ("plan.sims_during_ops", d("sims") / ops.max(1) as f64),
            (
                "kernelgen.compiled_hit_ratio",
                ratio(d("exec_hits"), d("exec_misses")),
            ),
            ("kernelgen.compiles", d("compiles") / ops.max(1) as f64),
        ]
    }
}
