//! `plan-cold`: what a fresh process pays to plan the shapes it meets.
//!
//! Each op builds a new `FtImm` and calls `plan_full(shape, Auto, 8)` on
//! the next shape, in Timing mode with no data.  The planner, the
//! `dspsim` timing model and `kernelgen` generation do the work.

use crate::run::{fingerprint, OpResult, Probes, SimSample, Workload};
use crate::shapes::{shape_set, Family, ShapeSpec};
use dspsim::{ExecMode, HwConfig, Machine};
use ftimm::roofline::roofline_gflops;
use ftimm::{FtImm, GemmProblem, GemmShape, Plan, Planner, Strategy};
use std::time::Instant;

/// Shapes per set.
pub const SET_SIZE: usize = 63;
/// Flop bounds of the set.
pub const FLOPS: (f64, f64) = (1e7, 3e8);
const CORES: usize = 8;

/// The workload state.
pub struct PlanCold {
    cfg: HwConfig,
    shapes: Vec<ShapeSpec>,
    /// The set-up pass's plan for each shape: every op must equal it
    /// (`None` once marked wrong).
    reference: Vec<Option<Plan>>,
    /// Traced runs only: a context with a warm kernel cache and no plan
    /// cache, so planning on it re-runs everything but generation.
    warm: Option<FtImm>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Workload for PlanCold {
    fn setup(seed: u64, trace: bool) -> Result<Self, String> {
        let cfg = HwConfig::default();
        let shapes = shape_set(
            seed,
            SET_SIZE,
            &[Family::Type1, Family::Type2, Family::Type3],
            FLOPS.0,
            FLOPS.1,
        );
        // The warm-up pass is the op itself, once per shape; it also runs
        // the allocator past its early slow phase.
        let reference = shapes
            .iter()
            .map(|s| Some(cold_plan(&cfg, &s.shape).plan))
            .collect();
        let warm = trace.then(|| warm_context(&cfg, shapes.iter().map(|s| s.shape)));
        Ok(PlanCold {
            cfg,
            shapes,
            reference,
            warm,
        })
    }

    fn size(&self) -> usize {
        self.shapes.len()
    }

    fn describe(&self, i: usize) -> String {
        format!("{} {}", self.shapes[i].family.name(), self.shapes[i].shape)
    }

    fn fingerprints(&self) -> Vec<Option<u64>> {
        self.reference
            .iter()
            .map(|p| p.map(|p| fingerprint(format!("{p:?}").bytes())))
            .collect()
    }

    fn mark_wrong(&mut self, i: usize) {
        self.reference[i] = None;
    }

    fn op(&mut self, i: usize, probes: Option<&mut Probes>) -> OpResult {
        let shape = self.shapes[i].shape;
        let cold = cold_plan(&self.cfg, &shape);
        let outcome = match self.reference[i] {
            Some(want) if cold.plan == want => {
                if cold.plan.simulated_s.is_finite() {
                    Ok(SimSample {
                        flops: shape.flops() as f64,
                        seconds: cold.plan.simulated_s,
                        roofline_gflops: roofline_gflops(&self.cfg, &shape, CORES),
                    })
                } else {
                    Err("nonfinite_sim".to_string())
                }
            }
            _ => Err("plan_mismatch".to_string()),
        };
        if let (Some(p), Some(warm)) = (probes, &self.warm) {
            plan_probes(&self.cfg, warm, &shape, &cold, p);
        }
        OpResult {
            ms: cold.ms,
            outcome,
        }
    }
}

/// One cold plan: what a new process pays to plan a shape.
pub struct ColdPlan {
    /// The plan.
    pub plan: Plan,
    /// Host wall-clock of context build, planning and teardown, ms.
    pub ms: f64,
    /// Kernels the fresh context generated.
    kernels: usize,
    /// Failed candidate evaluations.
    failures: u64,
}

/// Build a fresh `FtImm`, plan `shape` with `Auto` on 8 cores, drop it.
pub fn cold_plan(cfg: &HwConfig, shape: &GemmShape) -> ColdPlan {
    let t = Instant::now();
    let ft = FtImm::new(cfg.clone());
    let plan = ft.plan_full(shape, Strategy::Auto, CORES);
    let (kernels, failures) = (ft.cache().len(), ft.planning_failures());
    drop(ft);
    ColdPlan {
        plan,
        ms: ms(t),
        kernels,
        failures,
    }
}

/// A context whose kernel cache holds every kernel the shapes' plans
/// need, with no plan cache: planning on it re-runs everything but
/// kernel generation.
pub fn warm_context(cfg: &HwConfig, shapes: impl Iterator<Item = GemmShape>) -> FtImm {
    let ft = FtImm::with_plan_cache_capacity(cfg.clone(), 0);
    for s in shapes {
        ft.plan_full(&s, Strategy::Auto, CORES);
    }
    ft
}

/// Split a cold plan of `shape` by layer: `kernelgen` generation (the
/// cold plan minus the same call on `warm`), the planner's own work and
/// the `dspsim` timing model (the `Planner` on `warm`, its simulation
/// callbacks timed), and the timing machine's allocation.
pub fn plan_probes(
    cfg: &HwConfig,
    warm: &FtImm,
    shape: &GemmShape,
    cold: &ColdPlan,
    p: &mut Probes,
) {
    let t = Instant::now();
    warm.plan_full(shape, Strategy::Auto, CORES);
    let warm_ms = ms(t);
    let (mut sim_ms, mut sims) = (0.0, 0u32);
    let t = Instant::now();
    Planner::new(warm.cache(), cfg).plan(shape, Strategy::Auto, CORES, |cand| {
        let t = Instant::now();
        let s = warm.predict_seconds(shape, cand, CORES);
        sim_ms += ms(t);
        sims += 1;
        s
    });
    let planner_ms = ms(t);
    let t = Instant::now();
    let mut m = Machine::new(cfg.clone(), ExecMode::Timing);
    let alloc = GemmProblem::alloc(&mut m, shape.m, shape.n, shape.k);
    drop((alloc, m));
    let alloc_ms = ms(t);
    p.extend([
        ("plan.plan_ms", cold.ms),
        ("plan.sims_per_plan", cold.plan.simulations as f64),
        ("plan.candidates_per_plan", cold.plan.candidates as f64),
        ("plan.failures", cold.failures as f64),
        ("plan.self_ms", planner_ms - sim_ms),
        ("dspsim.sim_ms", sim_ms / sims.max(1) as f64),
        ("dspsim.machine_alloc_ms", alloc_ms),
        ("kernelgen.gen_ms", cold.ms - warm_ms),
        ("kernelgen.kernels_generated", cold.kernels as f64),
    ]);
}
