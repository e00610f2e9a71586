//! The traced layered evaluator: evaluates a scenario exactly as
//! `Scenario::run` does, but through the layers' public entry points,
//! timing each call from outside. Its outcomes are digest-checked like
//! every other pass, so the layer times are times of the same work.

use std::time::{Duration, Instant};

use micronano::core::labchip::{LabChipPipeline, PipelineConfig};
use micronano::core::runner::{GrnModel, Scenario, ScenarioOutcome};
use micronano::fluidics::compiler::{compile_with_faults, CompilerConfig};
use micronano::fluidics::faults::{FaultConfig, FaultModel};
use micronano::fluidics::geometry::Grid;
use micronano::grn::models::{arabidopsis, organ_repertoire, t_helper, th_fates, FloralInputs};
use micronano::grn::symbolic::SymbolicDynamics;
use micronano::grn::Perturbation;
use micronano::noc::power::{area_proxy, PowerModel};
use micronano::noc::routing::compute_routes;
use micronano::noc::synthesis::{synthesize, SynthesisConfig};
use micronano::wsn::field::Field;
use micronano::wsn::harvest::{simulate_policy, HarvestConfig, SolarModel};
use micronano::wsn::sim::{simulate_lifetime, LifetimeConfig};

/// Wall time spent inside each timed public call.
#[derive(Default)]
pub struct LayerTimes {
    pub compile: Duration,
    pub labchip_run: Duration,
    pub noc_synthesize: Duration,
    pub noc_routes: Duration,
    pub wsn_lifetime: Duration,
    pub wsn_harvest: Duration,
    pub grn_knockout: Duration,
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// Evaluates `scenario` through its layers, adding each call's wall time
/// to `times`.
pub fn run_layered(scenario: &Scenario, times: &mut LayerTimes) -> ScenarioOutcome {
    match scenario {
        Scenario::FluidicsCompile(s) => {
            let cfg = CompilerConfig {
                grid_width: s.grid_side,
                grid_height: s.grid_side,
                ..CompilerConfig::default()
            };
            let grid = Grid::new(s.grid_side, s.grid_side).expect("positive grid");
            let model = if s.dead_fraction > 0.0 {
                FaultModel::generate(&FaultConfig::dead(s.fault_seed, s.dead_fraction), &grid)
            } else {
                FaultModel::none()
            };
            let assay = s.assay.instantiate(s.plex);
            match timed(&mut times.compile, || {
                compile_with_faults(&assay, &cfg, &model)
            }) {
                Ok(c) => ScenarioOutcome::Fluidics {
                    compiled: true,
                    makespan: c.stats.makespan,
                    moves: c.stats.route_moves,
                    stalls: c.stats.route_stalls,
                    energy: c.stats.energy,
                    reroutes: c.stats.reroutes,
                    abandoned: c.stats.abandoned,
                },
                Err(_) => ScenarioOutcome::Fluidics {
                    compiled: false,
                    makespan: 0,
                    moves: 0,
                    stalls: 0,
                    energy: 0,
                    reroutes: 0,
                    abandoned: 0,
                },
            }
        }
        Scenario::LabChip(s) => {
            let cfg = PipelineConfig {
                assay: s.assay,
                samples_per_run: s.samples_per_run,
                fault: (s.dead_fraction > 0.0).then(|| FaultConfig {
                    seed: s.fault_seed,
                    dead_fraction: s.dead_fraction,
                    ..FaultConfig::default()
                }),
                ..PipelineConfig::default()
            };
            let pipeline = LabChipPipeline::new(cfg);
            match timed(&mut times.labchip_run, || pipeline.run(s.seed)) {
                Ok(r) => ScenarioOutcome::LabChip {
                    ok: true,
                    makespan: r.routing.makespan,
                    energy: r.routing.energy,
                    sensing_error: r.sensing_error,
                    biclusters: r.mining.biclusters.len(),
                    recovery: r.interpretation.recovery,
                    relevance: r.interpretation.relevance,
                    samples_dropped: r.faults.samples_dropped,
                },
                Err(_) => ScenarioOutcome::LabChip {
                    ok: false,
                    makespan: 0,
                    energy: 0,
                    sensing_error: 0.0,
                    biclusters: 0,
                    recovery: 0.0,
                    relevance: 0.0,
                    samples_dropped: 0,
                },
            }
        }
        Scenario::NocPoint(s) => {
            let config = SynthesisConfig {
                max_cluster: s.max_cluster,
                shortcuts: s.shortcuts,
                ..SynthesisConfig::default()
            };
            let topo = timed(&mut times.noc_synthesize, || synthesize(&s.app, &config));
            match timed(&mut times.noc_routes, || compute_routes(&topo, &s.app)) {
                Ok(routes) => ScenarioOutcome::Noc {
                    feasible: true,
                    weighted_hops: routes.weighted_hops,
                    energy: PowerModel::default().traffic_energy(&topo, &s.app, &routes.paths),
                    area: area_proxy(&topo),
                    deadlock_free: routes.deadlock_free,
                },
                Err(_) => ScenarioOutcome::Noc {
                    feasible: false,
                    weighted_hops: 0.0,
                    energy: 0.0,
                    area: 0.0,
                    deadlock_free: false,
                },
            }
        }
        Scenario::WsnLifetime(s) => {
            let field = Field::random(s.nodes, s.side, s.seed);
            let config = LifetimeConfig {
                max_rounds: s.max_rounds,
                failure_rate: s.failure_rate,
                seed: s.seed,
                policies: s.policies.clone(),
                ..LifetimeConfig::default()
            };
            let stats = timed(&mut times.wsn_lifetime, || {
                simulate_lifetime(&field, s.protocol, &config)
            });
            ScenarioOutcome::Wsn {
                first_death: stats.first_death_round,
                half_death: stats.half_death_round,
                rounds: stats.rounds,
                sensed: stats.sensed,
                delivered: stats.delivered,
                avg_coverage: stats.avg_coverage,
                energy_spent: stats.energy_spent,
            }
        }
        Scenario::Harvest(s) => {
            let config = HarvestConfig {
                days: s.days,
                seed: s.seed,
                solar: SolarModel {
                    cloudiness: s.cloudiness,
                    ..SolarModel::default()
                },
                ..HarvestConfig::default()
            };
            let stats = timed(&mut times.wsn_harvest, || {
                simulate_policy(&s.policy, &config)
            });
            ScenarioOutcome::Harvest {
                work: stats.work,
                dead_slots: stats.dead_slots,
                total_slots: stats.total_slots,
                wasted: stats.wasted,
                harvested: stats.harvested,
                final_battery: stats.final_battery,
            }
        }
        Scenario::Knockout(s) => timed(&mut times.grn_knockout, || {
            let net = match s.model {
                GrnModel::THelper => t_helper(),
                GrnModel::Arabidopsis { whorl } => arabidopsis(FloralInputs::whorls()[whorl]),
            };
            let net = match &s.knockout {
                None => net,
                Some(g) => net
                    .with_perturbation(&Perturbation::knock_out(g))
                    .expect("knockout gene exists in model"),
            };
            let annotation = match s.model {
                GrnModel::THelper => th_fates(&net)
                    .expect("fate analysis")
                    .iter()
                    .map(|(_, f)| format!("{f:?}"))
                    .collect::<Vec<_>>()
                    .join("/"),
                GrnModel::Arabidopsis { .. } => organ_repertoire(&net)
                    .expect("organ analysis")
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
            };
            let mut fixed_points: Vec<u64> = SymbolicDynamics::new(&net)
                .fixed_point_states()
                .iter()
                .map(|st| st.bits())
                .collect();
            fixed_points.sort_unstable();
            ScenarioOutcome::Knockout {
                fixed_points,
                annotation,
            }
        }),
    }
}
