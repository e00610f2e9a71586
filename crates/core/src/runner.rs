//! Deterministic parallel experiment engine.
//!
//! The keynote's design methodology is *sweep and evaluate*: enumerate a
//! multivariate design space, evaluate every point, keep the interesting
//! ones (slide 15). This module turns that loop into infrastructure. A
//! [`Scenario`] is one self-contained evaluation — a lab-on-chip compile,
//! a NoC synthesis point, a WSN lifetime simulation, a gene knockout —
//! that carries every parameter (including its RNG seed) by value, so
//! running it is a pure function of its description. The [`Runner`]
//! executes a batch of scenarios across N worker threads with
//! work-stealing load balancing and returns outcomes in submission order.
//!
//! ## Determinism rules
//!
//! 1. A scenario owns its whole input, seed included; `Scenario::run`
//!    never reads ambient state (clock, thread id, global RNG).
//! 2. Scenario RNG streams are derived from the scenario's own seed
//!    fields, so evaluation order cannot perturb the draws.
//! 3. The engine assigns results by submission index; worker count and
//!    steal order therefore cannot change the output. Parallel runs are
//!    **byte-identical** to serial runs — `tests/conformance.rs` enforces
//!    this against a committed golden corpus.
//!
//! ## Caching
//!
//! Every scenario has a stable [`fingerprint`](Scenario::fingerprint)
//! (FNV-1a over a canonical field encoding; floats hashed via IEEE bits).
//! The runner memoizes outcomes by fingerprint, so a repeated sweep —
//! common when an exploration loop re-visits design points — skips
//! already-evaluated scenarios, and duplicates inside one batch are
//! evaluated once.
//!
//! Each scenario and outcome type has exactly one field walk, replayed
//! into two sinks: the FNV-1a hasher behind
//! [`fingerprint`](Scenario::fingerprint) and
//! [`digest`](ScenarioOutcome::digest), and the [`manifest`] wire
//! encoder. The cache key, the golden digest and the shard record
//! therefore always cover the same fields in the same order.
//! [`label`](Scenario::label) stays separate on purpose: it is a lossy,
//! human-readable projection, not an encoding.
//!
//! ## Sharding
//!
//! [`Runner::run`] is the consolidated entry point: it evaluates a batch
//! and returns a [`BatchReport`] (outcomes, merged stats, optional
//! per-shard breakdown). With `shards > 1` in [`RunnerConfig`], the batch
//! is partitioned by a deterministic [`ShardPlan`] and each shard runs on
//! a fresh sub-engine — observationally identical to a worker process, so
//! 1 shard, N in-process shards and N `mns-dist` cluster workers all
//! produce byte-identical per-scenario digests and the same merged
//! [`BatchStats::totals`]. The manifest wire format lives in
//! [`manifest`]; the multi-process scheduler (deadlines, crash detection,
//! requeue-on-failure) is `mns_dist::Cluster`, configured by
//! [`ClusterConfig`].

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use mns_fluidics::compiler::{compile_with_faults, CompilerConfig};
use mns_fluidics::faults::{FaultConfig, FaultModel};
use mns_fluidics::geometry::Grid;
use mns_grn::models::{arabidopsis, organ_repertoire, t_helper, th_fates, FloralInputs};
use mns_grn::Perturbation;
use mns_noc::graph::CommGraph;
use mns_noc::power::{area_proxy, PowerModel};
use mns_noc::routing::compute_routes;
use mns_noc::synthesis::{synthesize, SynthesisConfig};
use mns_policy::{PolicyAssignment, PolicyExpr};
use mns_wsn::field::Field;
use mns_wsn::harvest::{simulate_policy, HarvestConfig, SolarModel};
use mns_wsn::protocol::Protocol;
use mns_wsn::sim::{simulate_lifetime, LifetimeConfig};

use crate::labchip::{LabChipPipeline, PipelineConfig};

pub use mns_fluidics::assay::AssayKind;

pub mod manifest;

/// A 64-bit digest of a scenario outcome, stable across runs, worker
/// counts and processes (the golden corpus commits these values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64);

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Receives a field walk ([`Walk`]): the fingerprint/digest hasher
/// ([`Canon`]) and the shard-wire encoder (`manifest::Wire`).
trait Sink {
    /// A variant discriminant: `code` is the hashed tag byte, `word` the
    /// wire token.
    fn tag(&mut self, code: u8, word: &'static str);
    fn u64(&mut self, v: u64);
    fn i64(&mut self, v: i64);
    /// Floats enter by IEEE-754 bit pattern: byte-identical is the
    /// conformance contract, not approximate equality.
    fn f64(&mut self, v: f64);
    fn bool(&mut self, v: bool);
    fn str(&mut self, s: &str);
    /// A wire-only keyword introducing an optional record suffix. The
    /// hash skips it, so a suffix that is absent leaves the historical
    /// fingerprint untouched.
    fn keyword(&mut self, word: &'static str);

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

/// One field walk per type, replayed into every [`Sink`]. Every enum
/// variant starts with a tag and every sequence with its length, so
/// distinct field sequences cannot collide by concatenation.
trait Walk {
    fn walk<S: Sink>(&self, s: &mut S);
}

/// FNV-1a over the walk: a tag byte per discriminant, integers as 8
/// little-endian bytes, strings length-first.
struct Canon(u64);

impl Canon {
    fn of(value: &impl Walk) -> u64 {
        let mut c = Canon(0xcbf2_9ce4_8422_2325);
        value.walk(&mut c);
        c.0
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

impl Sink for Canon {
    fn tag(&mut self, code: u8, _word: &'static str) {
        self.byte(code);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.byte(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn keyword(&mut self, _word: &'static str) {}
}

impl Walk for AssayKind {
    fn walk<S: Sink>(&self, s: &mut S) {
        match *self {
            AssayKind::Multiplex => s.tag(0, "multiplex"),
            AssayKind::SerialDilution => s.tag(1, "dilution"),
            AssayKind::Washing { wash_steps } => {
                s.tag(2, "wash");
                s.usize(wash_steps);
            }
            AssayKind::MixingTree { fanin } => {
                s.tag(3, "mixtree");
                s.usize(fanin);
            }
            AssayKind::DilutionGradient => s.tag(4, "gradient"),
        }
    }
}

/// The primitive tags (0–2, `fixed`/`greedy`/`neutral`) and payloads
/// predate the policy engine and match the historical `DutyPolicy`
/// encoding, so every pre-engine Harvest fingerprint and record is
/// preserved. Combinators walk their scalars, then their children.
impl Walk for PolicyExpr {
    fn walk<S: Sink>(&self, s: &mut S) {
        match self {
            PolicyExpr::Fixed(d) => {
                s.tag(0, "fixed");
                s.f64(*d);
            }
            PolicyExpr::Greedy {
                threshold,
                duty_high,
                duty_low,
            } => {
                s.tag(1, "greedy");
                s.f64(*threshold);
                s.f64(*duty_high);
                s.f64(*duty_low);
            }
            PolicyExpr::EnergyNeutral { alpha } => {
                s.tag(2, "neutral");
                s.f64(*alpha);
            }
            PolicyExpr::Forecast { alpha } => {
                s.tag(3, "forecast");
                s.f64(*alpha);
            }
            PolicyExpr::Derate { inner, fade, floor } => {
                s.tag(4, "derate");
                s.f64(*fade);
                s.f64(*floor);
                inner.walk(s);
            }
            PolicyExpr::Hysteresis { low, high, on, off } => {
                s.tag(5, "hyst");
                s.f64(*low);
                s.f64(*high);
                on.walk(s);
                off.walk(s);
            }
            PolicyExpr::Scheduled { pieces } => {
                s.tag(6, "sched");
                s.usize(pieces.len());
                for (start, piece) in pieces {
                    s.u64(*start);
                    piece.walk(s);
                }
            }
            PolicyExpr::Clamp { inner, lo, hi } => {
                s.tag(7, "clamp");
                s.f64(*lo);
                s.f64(*hi);
                inner.walk(s);
            }
        }
    }
}

impl Walk for PolicyAssignment {
    fn walk<S: Sink>(&self, s: &mut S) {
        match self {
            PolicyAssignment::Uniform(p) => {
                s.tag(1, "uniform");
                p.walk(s);
            }
            PolicyAssignment::RoundRobin(ps) => {
                s.tag(2, "mix");
                s.usize(ps.len());
                for p in ps {
                    p.walk(s);
                }
            }
        }
    }
}

impl Walk for Protocol {
    fn walk<S: Sink>(&self, s: &mut S) {
        match *self {
            Protocol::Direct => s.tag(0, "direct"),
            Protocol::Tree {
                radio_range,
                aggregate,
            } => {
                s.tag(1, "tree");
                s.f64(radio_range);
                s.bool(aggregate);
            }
            Protocol::Cluster { p, aggregate } => {
                s.tag(2, "cluster");
                s.f64(p);
                s.bool(aggregate);
            }
        }
    }
}

impl Walk for GrnModel {
    fn walk<S: Sink>(&self, s: &mut S) {
        match *self {
            GrnModel::THelper => s.tag(0, "thelper"),
            GrnModel::Arabidopsis { whorl } => {
                s.tag(1, "arabidopsis");
                s.usize(whorl);
            }
        }
    }
}

impl Walk for CommGraph {
    fn walk<S: Sink>(&self, s: &mut S) {
        s.usize(self.cores());
        s.usize(self.flows().len());
        for f in self.flows() {
            s.usize(f.src);
            s.usize(f.dst);
            s.f64(f.rate);
        }
    }
}

/// A microfluidic compile scenario: one synthetic assay family
/// ([`AssayKind`]) compiled onto a square array, optionally around a
/// deterministic dead-electrode fault map.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidicsScenario {
    /// Assay family to compile (defaults to the multiplex immunoassay).
    pub assay: AssayKind,
    /// Assay scale: samples/steps/depth/rows, per [`AssayKind`] docs.
    pub plex: usize,
    /// Square array side (electrodes).
    pub grid_side: i32,
    /// Dead-electrode fraction (0 disables fault injection).
    pub dead_fraction: f64,
    /// Fault-map seed (ignored when `dead_fraction` is 0).
    pub fault_seed: u64,
}

/// A full lab-on-chip pipeline run (compile → sense → interpret).
#[derive(Debug, Clone, PartialEq)]
pub struct LabChipScenario {
    /// Assay family the pipeline compiles at each plex level.
    pub assay: AssayKind,
    /// Run seed (biology, sensing noise, fault-map mixing).
    pub seed: u64,
    /// Samples transported per chip run.
    pub samples_per_run: usize,
    /// Dead-electrode fraction (0 disables fault injection).
    pub dead_fraction: f64,
    /// Fault seed, mixed with the run seed by the pipeline.
    pub fault_seed: u64,
}

/// One NoC topology-synthesis design point.
#[derive(Debug, Clone, PartialEq)]
pub struct NocScenario {
    /// The application communication graph.
    pub app: CommGraph,
    /// Cores per leaf router.
    pub max_cluster: usize,
    /// Shortcut-link budget.
    pub shortcuts: usize,
}

/// A WSN lifetime simulation over a random field.
#[derive(Debug, Clone, PartialEq)]
pub struct WsnScenario {
    /// Node count.
    pub nodes: usize,
    /// Field side (m).
    pub side: f64,
    /// Collection protocol.
    pub protocol: Protocol,
    /// Per-node, per-round exogenous failure probability.
    pub failure_rate: f64,
    /// Round cap.
    pub max_rounds: u64,
    /// Field and simulation seed.
    pub seed: u64,
    /// Optional per-node run-time energy-management policies. `None`
    /// reproduces the historical always-active behaviour (and the
    /// historical fingerprint/wire/label bytes) exactly.
    pub policies: Option<PolicyAssignment>,
}

/// A solar-harvesting policy simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestScenario {
    /// Energy-management policy under test — any composable
    /// [`PolicyExpr`]; the primitive expressions evaluate byte-identical
    /// to the historical `DutyPolicy` enum.
    pub policy: PolicyExpr,
    /// Simulated days.
    pub days: u32,
    /// Weather severity in `[0, 1]`.
    pub cloudiness: f64,
    /// Weather seed.
    pub seed: u64,
}

/// Which published gene-regulatory model a knockout scenario perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrnModel {
    /// The T-helper differentiation network (Mendoza 2006).
    THelper,
    /// The Arabidopsis floral-organ network at the given whorl (0–3).
    Arabidopsis {
        /// Whorl index into [`FloralInputs::whorls`].
        whorl: usize,
    },
}

/// An in-silico knockout screen point: one model, zero or one knockout.
#[derive(Debug, Clone, PartialEq)]
pub struct KnockoutScenario {
    /// The model to perturb.
    pub model: GrnModel,
    /// Gene to knock out (`None` = wild type).
    pub knockout: Option<String>,
}

/// One self-contained, deterministic experiment evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Microfluidic assay compile (optionally fault-injected).
    FluidicsCompile(FluidicsScenario),
    /// End-to-end lab-on-chip pipeline run.
    LabChip(LabChipScenario),
    /// NoC synthesis + routing design point.
    NocPoint(NocScenario),
    /// WSN lifetime simulation.
    WsnLifetime(WsnScenario),
    /// Harvesting-policy simulation.
    Harvest(HarvestScenario),
    /// GRN knockout screen point.
    Knockout(KnockoutScenario),
}

impl Scenario {
    /// Telemetry span name for this scenario family (stable across
    /// parameter changes, so traces aggregate by kind).
    pub fn family(&self) -> &'static str {
        match self {
            Scenario::FluidicsCompile(_) => "scenario.fluidics",
            Scenario::LabChip(_) => "scenario.labchip",
            Scenario::NocPoint(_) => "scenario.noc",
            Scenario::WsnLifetime(_) => "scenario.wsn",
            Scenario::Harvest(_) => "scenario.harvest",
            Scenario::Knockout(_) => "scenario.knockout",
        }
    }

    /// Stable cache key: FNV-1a over the field walk (tag first, floats
    /// by bit pattern). Also the round-robin [`ShardPlan`] deal order.
    pub fn fingerprint(&self) -> u64 {
        Canon::of(self)
    }

    /// Human-readable corpus label (unique per distinct scenario in the
    /// golden corpus; golden files key on it).
    pub fn label(&self) -> String {
        match self {
            Scenario::FluidicsCompile(s) => format!(
                "fluidics/{}-g{}-dead{}pm-s{}",
                s.assay.describe(s.plex),
                s.grid_side,
                (s.dead_fraction * 1000.0).round() as u64,
                s.fault_seed
            ),
            Scenario::LabChip(s) => {
                // The original multiplex corpus labels predate the assay
                // axis and must stay byte-identical; other kinds prefix.
                let kind = match s.assay {
                    AssayKind::Multiplex => String::new(),
                    AssayKind::SerialDilution => "dilution-".to_owned(),
                    AssayKind::Washing { wash_steps } => format!("wash{wash_steps}-"),
                    AssayKind::MixingTree { fanin } => format!("mixtree{fanin}-"),
                    AssayKind::DilutionGradient => "gradient-".to_owned(),
                };
                format!(
                    "labchip/{}seed{}-n{}-dead{}pm-f{}",
                    kind,
                    s.seed,
                    s.samples_per_run,
                    (s.dead_fraction * 1000.0).round() as u64,
                    s.fault_seed
                )
            }
            Scenario::NocPoint(s) => format!(
                "noc/c{}-e{}-k{}-x{}",
                s.app.cores(),
                s.app.flows().len(),
                s.max_cluster,
                s.shortcuts
            ),
            Scenario::WsnLifetime(s) => {
                // Heterogeneous-policy runs get a suffix; `None` keeps
                // the exact historical label bytes.
                let policy_suffix = match &s.policies {
                    None => String::new(),
                    Some(a) => format!("-p{}", a.label()),
                };
                format!(
                    "wsn/{}-n{}-r{}-f{}pm-s{}{}",
                    s.protocol.label(),
                    s.nodes,
                    s.max_rounds,
                    (s.failure_rate * 1000.0).round() as u64,
                    s.seed,
                    policy_suffix
                )
            }
            Scenario::Harvest(s) => format!(
                "harvest/{}-d{}-c{}pm-s{}",
                s.policy.label(),
                s.days,
                (s.cloudiness * 1000.0).round() as u64,
                s.seed
            ),
            Scenario::Knockout(s) => {
                let model = match s.model {
                    GrnModel::THelper => "thelper".to_owned(),
                    GrnModel::Arabidopsis { whorl } => format!("arabidopsis-w{whorl}"),
                };
                match &s.knockout {
                    None => format!("grn/{model}/wild"),
                    Some(g) => format!("grn/{model}/ko-{g}"),
                }
            }
        }
    }

    /// Evaluates the scenario. Pure: the result depends only on the
    /// scenario fields, never on execution order or thread.
    ///
    /// # Panics
    ///
    /// Panics if a [`KnockoutScenario`] names a gene absent from its
    /// model, or a [`FluidicsScenario`] has a non-positive grid.
    pub fn run(&self) -> ScenarioOutcome {
        match self {
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
                match compile_with_faults(&s.assay.instantiate(s.plex), &cfg, &model) {
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
                match LabChipPipeline::new(cfg).run(s.seed) {
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
                let topo = synthesize(
                    &s.app,
                    &SynthesisConfig {
                        max_cluster: s.max_cluster,
                        shortcuts: s.shortcuts,
                        ..SynthesisConfig::default()
                    },
                );
                match compute_routes(&topo, &s.app) {
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
                let stats = simulate_lifetime(
                    &field,
                    s.protocol,
                    &LifetimeConfig {
                        max_rounds: s.max_rounds,
                        failure_rate: s.failure_rate,
                        seed: s.seed,
                        policies: s.policies.clone(),
                        ..LifetimeConfig::default()
                    },
                );
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
                let stats = simulate_policy(
                    &s.policy,
                    &HarvestConfig {
                        days: s.days,
                        seed: s.seed,
                        solar: SolarModel {
                            cloudiness: s.cloudiness,
                            ..SolarModel::default()
                        },
                        ..HarvestConfig::default()
                    },
                );
                ScenarioOutcome::Harvest {
                    work: stats.work,
                    dead_slots: stats.dead_slots,
                    total_slots: stats.total_slots,
                    wasted: stats.wasted,
                    harvested: stats.harvested,
                    final_battery: stats.final_battery,
                }
            }
            Scenario::Knockout(s) => {
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
                    GrnModel::THelper => {
                        let fates = th_fates(&net).expect("fate analysis");
                        fates
                            .iter()
                            .map(|(_, f)| format!("{f:?}"))
                            .collect::<Vec<_>>()
                            .join("/")
                    }
                    GrnModel::Arabidopsis { .. } => {
                        let organs = organ_repertoire(&net).expect("organ analysis");
                        organs
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("/")
                    }
                };
                let mut sym = mns_grn::symbolic::SymbolicDynamics::new(&net);
                let mut bits: Vec<u64> = sym
                    .fixed_point_states()
                    .iter()
                    .map(|st| st.bits())
                    .collect();
                bits.sort_unstable();
                ScenarioOutcome::Knockout {
                    fixed_points: bits,
                    annotation,
                }
            }
        }
    }
}

/// The structured result of one scenario evaluation. Equality is exact
/// (floats included): two outcomes are equal iff they are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// Microfluidic compile result (all zeros when `compiled` is false).
    Fluidics {
        /// Whether the assay compiled onto the (possibly faulty) array.
        compiled: bool,
        /// Schedule makespan in ticks.
        makespan: u32,
        /// Total droplet moves.
        moves: u32,
        /// Total droplet stalls.
        stalls: u32,
        /// Electrode activations.
        energy: u64,
        /// Failed routing attempts that forced a recompile.
        reroutes: u32,
        /// Waste transports sacrificed for routability.
        abandoned: u32,
    },
    /// Lab-on-chip pipeline result (all zeros when `ok` is false).
    LabChip {
        /// Whether the pipeline completed.
        ok: bool,
        /// Compile makespan.
        makespan: u32,
        /// Electrode activations.
        energy: u64,
        /// Mean absolute sensing error (expression units).
        sensing_error: f64,
        /// Maximal biclusters mined.
        biclusters: usize,
        /// Recovery versus the implanted truth.
        recovery: f64,
        /// Relevance versus the implanted truth.
        relevance: f64,
        /// Samples shed to fit a faulty array.
        samples_dropped: usize,
    },
    /// NoC design-point result (zeros when `feasible` is false).
    Noc {
        /// Whether a route set exists.
        feasible: bool,
        /// Rate-weighted mean hops.
        weighted_hops: f64,
        /// Rate-weighted energy per flit.
        energy: f64,
        /// Router area proxy.
        area: f64,
        /// Whether the route set is certified deadlock-free.
        deadlock_free: bool,
    },
    /// WSN lifetime result.
    Wsn {
        /// Round of the first node death.
        first_death: u64,
        /// Round at which half the nodes were dead.
        half_death: u64,
        /// Rounds simulated.
        rounds: u64,
        /// Packets sensed.
        sensed: u64,
        /// Packets delivered to the sink.
        delivered: u64,
        /// Time-averaged coverage.
        avg_coverage: f64,
        /// Total radio energy spent (J).
        energy_spent: f64,
    },
    /// Harvesting-policy result.
    Harvest {
        /// Seconds of active service delivered.
        work: f64,
        /// Slots spent browned out.
        dead_slots: u64,
        /// Slots simulated.
        total_slots: u64,
        /// Energy lost to battery overflow (J).
        wasted: f64,
        /// Total solar income (J).
        harvested: f64,
        /// Battery level at the end of the run (J).
        final_battery: f64,
    },
    /// Knockout screen result.
    Knockout {
        /// Fixed-point state bitmasks, ascending.
        fixed_points: Vec<u64>,
        /// Domain annotation (T-helper fates or floral organs, joined
        /// with `/` in fixed-point order).
        annotation: String,
    },
}

impl ScenarioOutcome {
    /// Canonical digest of the outcome; the unit of golden-corpus
    /// comparison. Floats enter by IEEE bit pattern, so equal digests
    /// mean byte-identical results.
    pub fn digest(&self) -> Digest {
        Digest(Canon::of(self))
    }
}

impl Walk for Scenario {
    fn walk<S: Sink>(&self, s: &mut S) {
        match self {
            Scenario::FluidicsCompile(f) => {
                s.tag(1, "fluidics");
                f.assay.walk(s);
                s.usize(f.plex);
                s.i64(i64::from(f.grid_side));
                s.f64(f.dead_fraction);
                s.u64(f.fault_seed);
            }
            Scenario::LabChip(l) => {
                s.tag(2, "labchip");
                l.assay.walk(s);
                s.u64(l.seed);
                s.usize(l.samples_per_run);
                s.f64(l.dead_fraction);
                s.u64(l.fault_seed);
            }
            Scenario::NocPoint(n) => {
                s.tag(3, "noc");
                n.app.walk(s);
                s.usize(n.max_cluster);
                s.usize(n.shortcuts);
            }
            Scenario::WsnLifetime(w) => {
                s.tag(4, "wsn");
                s.usize(w.nodes);
                s.f64(w.side);
                w.protocol.walk(s);
                s.f64(w.failure_rate);
                s.u64(w.max_rounds);
                s.u64(w.seed);
                // Appended only when present: `None` keeps the exact
                // historical fingerprint and record bytes.
                if let Some(assignment) = &w.policies {
                    s.keyword("policies");
                    assignment.walk(s);
                }
            }
            Scenario::Harvest(h) => {
                s.tag(5, "harvest");
                h.policy.walk(s);
                s.u64(u64::from(h.days));
                s.f64(h.cloudiness);
                s.u64(h.seed);
            }
            Scenario::Knockout(k) => {
                s.tag(6, "grn");
                k.model.walk(s);
                match &k.knockout {
                    None => s.tag(0, "wild"),
                    Some(gene) => {
                        s.tag(1, "ko");
                        s.str(gene);
                    }
                }
            }
        }
    }
}

impl Walk for ScenarioOutcome {
    fn walk<S: Sink>(&self, s: &mut S) {
        match self {
            ScenarioOutcome::Fluidics {
                compiled,
                makespan,
                moves,
                stalls,
                energy,
                reroutes,
                abandoned,
            } => {
                s.tag(1, "fluidics");
                s.bool(*compiled);
                s.u64(u64::from(*makespan));
                s.u64(u64::from(*moves));
                s.u64(u64::from(*stalls));
                s.u64(*energy);
                s.u64(u64::from(*reroutes));
                s.u64(u64::from(*abandoned));
            }
            ScenarioOutcome::LabChip {
                ok,
                makespan,
                energy,
                sensing_error,
                biclusters,
                recovery,
                relevance,
                samples_dropped,
            } => {
                s.tag(2, "labchip");
                s.bool(*ok);
                s.u64(u64::from(*makespan));
                s.u64(*energy);
                s.f64(*sensing_error);
                s.usize(*biclusters);
                s.f64(*recovery);
                s.f64(*relevance);
                s.usize(*samples_dropped);
            }
            ScenarioOutcome::Noc {
                feasible,
                weighted_hops,
                energy,
                area,
                deadlock_free,
            } => {
                s.tag(3, "noc");
                s.bool(*feasible);
                s.f64(*weighted_hops);
                s.f64(*energy);
                s.f64(*area);
                s.bool(*deadlock_free);
            }
            ScenarioOutcome::Wsn {
                first_death,
                half_death,
                rounds,
                sensed,
                delivered,
                avg_coverage,
                energy_spent,
            } => {
                s.tag(4, "wsn");
                s.u64(*first_death);
                s.u64(*half_death);
                s.u64(*rounds);
                s.u64(*sensed);
                s.u64(*delivered);
                s.f64(*avg_coverage);
                s.f64(*energy_spent);
            }
            ScenarioOutcome::Harvest {
                work,
                dead_slots,
                total_slots,
                wasted,
                harvested,
                final_battery,
            } => {
                s.tag(5, "harvest");
                s.f64(*work);
                s.u64(*dead_slots);
                s.u64(*total_slots);
                s.f64(*wasted);
                s.f64(*harvested);
                s.f64(*final_battery);
            }
            ScenarioOutcome::Knockout {
                fixed_points,
                annotation,
            } => {
                s.tag(6, "grn");
                s.usize(fixed_points.len());
                for &b in fixed_points {
                    s.u64(b);
                }
                s.str(annotation);
            }
        }
    }
}

/// Identifies one shard of a (possibly sharded) sweep. Unsharded runs
/// report everything under `ShardId(0)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// How [`ShardPlan::split_with`] partitions a batch across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Fingerprint-stable round-robin: scenarios are dealt to shards in
    /// `(fingerprint, submission index)` order, so the scenario→shard
    /// assignment depends only on the batch *contents* — reordering the
    /// batch cannot move a scenario to a different shard.
    #[default]
    RoundRobin,
    /// Keep each scenario family on a single shard; distinct families are
    /// assigned to shards round-robin in lexicographic family order.
    /// Useful when per-family locality (caches, telemetry aggregation)
    /// matters more than balance; with more shards than families the
    /// surplus shards stay empty.
    ByFamily,
}

/// A deterministic partition of a batch into shards.
///
/// Each shard holds the *global submission indices* of its scenarios,
/// sorted ascending, so per-scenario telemetry tracks and outcome slots
/// keep their batch-wide meaning no matter which shard (or process)
/// evaluates them. Every index appears in exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    assignments: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Splits `scenarios` into `shards` shards (at least 1) with the
    /// default [`ShardStrategy::RoundRobin`] strategy.
    pub fn split(scenarios: &[Scenario], shards: usize) -> ShardPlan {
        ShardPlan::split_with(scenarios, shards, ShardStrategy::RoundRobin)
    }

    /// Splits `scenarios` into `shards` shards (at least 1) under the
    /// given strategy.
    pub fn split_with(scenarios: &[Scenario], shards: usize, strategy: ShardStrategy) -> ShardPlan {
        let shards = shards.max(1);
        let mut assignments = vec![Vec::new(); shards];
        match strategy {
            ShardStrategy::RoundRobin => {
                let mut order: Vec<(u64, usize)> = scenarios
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.fingerprint(), i))
                    .collect();
                order.sort_unstable();
                for (k, &(_, i)) in order.iter().enumerate() {
                    assignments[k % shards].push(i);
                }
            }
            ShardStrategy::ByFamily => {
                let mut families: Vec<&'static str> =
                    scenarios.iter().map(Scenario::family).collect();
                families.sort_unstable();
                families.dedup();
                for (i, s) in scenarios.iter().enumerate() {
                    let rank = families
                        .binary_search(&s.family())
                        .expect("every family is in the sorted index");
                    assignments[rank % shards].push(i);
                }
            }
        }
        // Submission order within a shard, whatever the deal order was.
        for shard in &mut assignments {
            shard.sort_unstable();
        }
        ShardPlan { assignments }
    }

    /// Number of shards in the plan (some may be empty).
    pub fn shards(&self) -> usize {
        self.assignments.len()
    }

    /// Global submission indices assigned to `shard`, sorted ascending.
    pub fn indices(&self, shard: ShardId) -> &[usize] {
        &self.assignments[shard.0 as usize]
    }

    /// Total scenarios across all shards.
    pub fn len(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Whether the plan covers no scenarios at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(shard id, indices)` pairs in shard order.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &[usize])> {
        self.assignments.iter().enumerate().map(|(k, v)| {
            let id = u32::try_from(k).expect("shard count fits in u32");
            (ShardId(id), v.as_slice())
        })
    }
}

/// Engine parameters, built fluently:
///
/// ```
/// use mns_core::runner::RunnerConfig;
///
/// let mut runner = RunnerConfig::new().workers(8).shards(4).cache(true).build();
/// # let _ = runner.run(&[]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker threads (per shard when sharded); 0 means one per available
    /// hardware thread.
    pub workers: usize,
    /// Whether outcomes are memoized by scenario fingerprint.
    pub cache: bool,
    /// In-process shard count for [`Runner::run`]; 1 (the default)
    /// disables sharding.
    pub shards: usize,
    /// How scenarios are partitioned when `shards > 1`.
    pub strategy: ShardStrategy,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            workers: 0,
            cache: true,
            shards: 1,
            strategy: ShardStrategy::RoundRobin,
        }
    }
}

impl RunnerConfig {
    /// The default configuration (hardware workers, cache on, unsharded).
    pub fn new() -> RunnerConfig {
        RunnerConfig::default()
    }

    /// Sets the worker-thread count (0 = one per hardware thread).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> RunnerConfig {
        self.workers = workers;
        self
    }

    /// Turns fingerprint memoization on or off.
    #[must_use]
    pub fn cache(mut self, cache: bool) -> RunnerConfig {
        self.cache = cache;
        self
    }

    /// Sets the in-process shard count (clamped to at least 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> RunnerConfig {
        self.shards = shards.max(1);
        self
    }

    /// Sets the shard-assignment strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: ShardStrategy) -> RunnerConfig {
        self.strategy = strategy;
        self
    }

    /// Finishes the builder into a ready [`Runner`].
    pub fn build(self) -> Runner {
        Runner::new(self)
    }
}

/// Cluster-level parameters layered on [`RunnerConfig`] by the
/// `mns-dist` scheduler. Everything a single worker needs (threads,
/// cache, shard plan) lives in [`ClusterConfig::runner`]; this struct
/// adds only what a *fleet* of workers needs: how many endpoints, how
/// long a shard may run, how liveness is judged, and how retries back
/// off.
///
/// ```
/// use std::time::Duration;
/// use mns_core::runner::ClusterConfig;
///
/// let cfg = ClusterConfig::new()
///     .workers(4)
///     .shards(8)
///     .liveness_window(Duration::from_secs(1));
/// assert_eq!(cfg.workers, 4);
/// assert_eq!(cfg.runner.shards, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Per-worker engine parameters: `runner.workers` is the thread
    /// count *inside each* cluster worker, and `runner.shards`/`strategy`
    /// drive the [`ShardPlan`].
    pub runner: RunnerConfig,
    /// Cluster worker endpoints to launch (clamped to at least 1).
    pub workers: usize,
    /// Per-shard wall-clock deadline: a shard whose worker has not
    /// answered within it is requeued.
    pub shard_deadline: Duration,
    /// How often workers emit heartbeats.
    pub heartbeat_interval: Duration,
    /// A busy worker silent for longer than this is declared dead and
    /// its shard requeued.
    pub liveness_window: Duration,
    /// How long the scheduler waits for the *first* registration before
    /// degrading the whole sweep to in-process execution.
    pub registration_window: Duration,
    /// Maximum delivery attempts per shard before it is recovered
    /// in-process (clamped to at least 1).
    pub max_attempts: u32,
    /// Base delay of the capped exponential backoff between attempts.
    pub backoff_base: Duration,
    /// Ceiling of the exponential backoff.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Ask dedicated worker processes for per-shard telemetry snapshots
    /// and merge them into the cluster report.
    pub collect_metrics: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            runner: RunnerConfig {
                workers: 1,
                shards: 4,
                ..RunnerConfig::default()
            },
            workers: 2,
            shard_deadline: Duration::from_secs(120),
            heartbeat_interval: Duration::from_millis(50),
            liveness_window: Duration::from_secs(2),
            registration_window: Duration::from_secs(10),
            max_attempts: 4,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            seed: 0,
            collect_metrics: false,
        }
    }
}

impl ClusterConfig {
    /// The default configuration: 2 workers × 1 thread, 4 shards.
    pub fn new() -> ClusterConfig {
        ClusterConfig::default()
    }

    /// Sets the cluster worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ClusterConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the thread count inside each worker (0 = hardware default).
    #[must_use]
    pub fn threads_per_worker(mut self, threads: usize) -> ClusterConfig {
        self.runner.workers = threads;
        self
    }

    /// Sets the shard count (clamped to at least 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> ClusterConfig {
        self.runner = self.runner.shards(shards);
        self
    }

    /// Sets the shard-assignment strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: ShardStrategy) -> ClusterConfig {
        self.runner = self.runner.strategy(strategy);
        self
    }

    /// Sets the per-shard deadline (default 120 s).
    #[must_use]
    pub fn shard_deadline(mut self, deadline: Duration) -> ClusterConfig {
        self.shard_deadline = deadline;
        self
    }

    /// Sets the worker heartbeat interval.
    #[must_use]
    pub fn heartbeat_interval(mut self, interval: Duration) -> ClusterConfig {
        self.heartbeat_interval = interval;
        self
    }

    /// Sets the silence window after which a busy worker is declared
    /// dead.
    #[must_use]
    pub fn liveness_window(mut self, window: Duration) -> ClusterConfig {
        self.liveness_window = window;
        self
    }

    /// Sets the wait for the first worker registration.
    #[must_use]
    pub fn registration_window(mut self, window: Duration) -> ClusterConfig {
        self.registration_window = window;
        self
    }

    /// Sets the per-shard attempt cap (clamped to at least 1).
    #[must_use]
    pub fn max_attempts(mut self, attempts: u32) -> ClusterConfig {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the backoff base and cap.
    #[must_use]
    pub fn backoff(mut self, base: Duration, cap: Duration) -> ClusterConfig {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Sets the seed of the deterministic backoff jitter.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> ClusterConfig {
        self.seed = seed;
        self
    }

    /// Asks workers for per-shard telemetry snapshots.
    #[must_use]
    pub fn collect_metrics(mut self, collect: bool) -> ClusterConfig {
        self.collect_metrics = collect;
        self
    }
}

/// Execution counters for one runner's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Scenarios actually evaluated.
    pub executed: u64,
    /// Outcomes served from the fingerprint cache.
    pub cache_hits: u64,
    /// Jobs a worker took from another worker's queue.
    pub steals: u64,
}

/// Counters for one worker thread within a single batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerBatchStats {
    /// Shard this worker served (`ShardId(0)` for unsharded runs).
    pub shard: ShardId,
    /// Worker index within its shard's pool.
    pub worker: u32,
    /// Scenarios this worker evaluated.
    pub executed: u64,
    /// Jobs this worker took from a sibling's queue.
    pub steals: u64,
    /// Cache hits attributed to this worker. Hits resolve on the
    /// submitting thread before the pool spins up, so they are all
    /// charged to worker 0 of the shard.
    pub cache_hits: u64,
}

/// Shard- and worker-layout-independent batch counters: the unit of
/// cross-mode stats comparison. Serial, in-process-sharded and
/// child-process runs of the same batch must agree on these even though
/// their `per_worker` layouts reflect different topologies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTotals {
    /// Scenarios submitted.
    pub scenarios: u64,
    /// Scenarios actually evaluated.
    pub executed: u64,
    /// Outcomes served from the fingerprint cache.
    pub cache_hits: u64,
    /// Duplicate submissions collapsed in-batch.
    pub deduped: u64,
    /// Jobs taken from a sibling worker's queue.
    pub steals: u64,
}

/// Per-batch execution breakdown carried by [`BatchReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Shard these stats describe. A merged report keeps the *smallest*
    /// contributing shard id (`min` is associative and commutative, so
    /// merge order cannot change it); per-shard identity survives in
    /// `per_worker[..].shard` and in [`BatchReport::shards`].
    pub shard: ShardId,
    /// Scenarios submitted in the batch.
    pub scenarios: u64,
    /// Scenarios actually evaluated (after cache and in-batch dedup).
    pub executed: u64,
    /// Outcomes served from the cross-batch fingerprint cache.
    pub cache_hits: u64,
    /// Duplicate submissions collapsed inside this batch.
    pub deduped: u64,
    /// Jobs taken from a sibling's queue, summed over workers.
    pub steals: u64,
    /// Per-worker breakdown. For a single shard this is indexed by worker
    /// id; a merged report holds the union of all shards' rows, sorted by
    /// `(shard, worker)`.
    pub per_worker: Vec<WorkerBatchStats>,
}

impl BatchStats {
    /// Evaluations done by the busiest worker (0 for an all-cached batch).
    pub fn max_worker_executed(&self) -> u64 {
        self.per_worker
            .iter()
            .map(|w| w.executed)
            .max()
            .unwrap_or(0)
    }

    /// Load balance: ideal per-worker share of evaluations relative to
    /// the busiest worker's actual load (1.0 = perfectly balanced).
    ///
    /// Edge cases are *defined* as vacuously balanced: a batch where
    /// nothing executed (all cached/empty) and a single-worker batch both
    /// return exactly `1.0` — no worker can be over- or under-loaded.
    pub fn balance(&self) -> f64 {
        let max = self.max_worker_executed();
        if max == 0 || self.per_worker.len() <= 1 {
            return 1.0;
        }
        let ideal = self.executed as f64 / self.per_worker.len() as f64;
        (ideal / max as f64).min(1.0)
    }

    /// The layout-independent counters (see [`BatchTotals`]).
    pub fn totals(&self) -> BatchTotals {
        BatchTotals {
            scenarios: self.scenarios,
            executed: self.executed,
            cache_hits: self.cache_hits,
            deduped: self.deduped,
            steals: self.steals,
        }
    }

    /// Folds `other` into `self`.
    ///
    /// Associative and order-insensitive: scalar counters are summed,
    /// `shard` keeps the minimum contributing id, and the `per_worker`
    /// rows are unioned on the `(shard, worker)` key (duplicate keys sum
    /// field-wise) and stored sorted by that key — so any merge tree over
    /// the same set of shard stats yields the same value.
    /// `tests/conformance.rs` proptests this.
    pub fn merge(&mut self, other: &BatchStats) {
        self.shard = self.shard.min(other.shard);
        self.scenarios += other.scenarios;
        self.executed += other.executed;
        self.cache_hits += other.cache_hits;
        self.deduped += other.deduped;
        self.steals += other.steals;
        let mut rows: BTreeMap<(ShardId, u32), WorkerBatchStats> = BTreeMap::new();
        for w in self
            .per_worker
            .drain(..)
            .chain(other.per_worker.iter().copied())
        {
            rows.entry((w.shard, w.worker))
                .and_modify(|r| {
                    r.executed += w.executed;
                    r.steals += w.steals;
                    r.cache_hits += w.cache_hits;
                })
                .or_insert(w);
        }
        self.per_worker = rows.into_values().collect();
    }

    /// Merges a sequence of per-shard stats into one batch-wide report
    /// (the default/empty stats when `parts` is empty).
    pub fn merged(parts: &[BatchStats]) -> BatchStats {
        let mut iter = parts.iter();
        let Some(first) = iter.next() else {
            return BatchStats::default();
        };
        let mut acc = first.clone();
        for part in iter {
            acc.merge(part);
        }
        acc
    }
}

/// Everything [`Runner::run`] knows about one evaluated batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Outcomes in submission order, one per submitted scenario.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Merged execution stats for the whole batch.
    pub stats: BatchStats,
    /// Per-shard breakdown in shard order; empty for unsharded runs.
    pub shards: Vec<BatchStats>,
}

impl BatchReport {
    /// Per-scenario outcome digests, in submission order.
    pub fn digests(&self) -> Vec<Digest> {
        self.outcomes.iter().map(ScenarioOutcome::digest).collect()
    }
}

/// One worker thread per available hardware thread (the default worker
/// count for `RunnerConfig { workers: 0, .. }`).
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The deterministic work-stealing scenario engine.
///
/// ```
/// use mns_core::runner::{Runner, RunnerConfig, Scenario, HarvestScenario};
/// use mns_policy::PolicyExpr;
///
/// let batch = vec![Scenario::Harvest(HarvestScenario {
///     policy: PolicyExpr::Fixed(0.3),
///     days: 2,
///     cloudiness: 0.4,
///     seed: 1,
/// })];
/// let serial = Runner::serial().run(&batch);
/// let parallel = RunnerConfig::new().workers(4).build().run(&batch);
/// let sharded = RunnerConfig::new().workers(4).shards(2).build().run(&batch);
/// // Byte-identical at any worker or shard count.
/// assert_eq!(serial.outcomes, parallel.outcomes);
/// assert_eq!(serial.outcomes, sharded.outcomes);
/// ```
#[derive(Debug)]
pub struct Runner {
    workers: usize,
    shards: usize,
    strategy: ShardStrategy,
    cache_enabled: bool,
    cache: HashMap<u64, ScenarioOutcome>,
    stats: RunnerStats,
}

impl Runner {
    /// Creates an engine from `config`.
    pub fn new(config: RunnerConfig) -> Self {
        let workers = if config.workers == 0 {
            default_workers()
        } else {
            config.workers
        };
        Runner {
            workers,
            shards: config.shards.max(1),
            strategy: config.strategy,
            cache_enabled: config.cache,
            cache: HashMap::new(),
            stats: RunnerStats::default(),
        }
    }

    /// A single-threaded engine (the conformance reference).
    pub fn serial() -> Self {
        Runner::with_workers(1)
    }

    /// An engine with exactly `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        RunnerConfig::new().workers(workers.max(1)).build()
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured in-process shard count (1 = unsharded).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Lifetime execution counters.
    pub fn stats(&self) -> RunnerStats {
        self.stats
    }

    /// Distinct outcomes memoized so far.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops every memoized outcome.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Evaluates one scenario (through the cache).
    pub fn run_one(&mut self, scenario: &Scenario) -> ScenarioOutcome {
        self.run(std::slice::from_ref(scenario))
            .outcomes
            .pop()
            .expect("one outcome per scenario")
    }

    /// Evaluates a batch behind the consolidated surface, returning a
    /// [`BatchReport`] with outcomes in submission order, merged stats
    /// and (when sharded) a per-shard breakdown.
    ///
    /// Cached fingerprints are served without re-evaluation; duplicate
    /// scenarios inside a shard are evaluated once. Remaining jobs are
    /// dealt round-robin to per-worker queues; an idle worker steals from
    /// the tail of a sibling's queue. Because every scenario is a pure
    /// function of its own fields, the schedule cannot affect the result
    /// — only the wall clock.
    ///
    /// With `shards > 1`, the batch is partitioned by a [`ShardPlan`] and
    /// each shard runs on a *fresh* sub-engine whose cache and dedup scope
    /// is the shard itself — exactly what a child process would see — so
    /// outcomes and merged [`BatchStats::totals`] are identical whether
    /// the shards run in this process or on `mns-dist` cluster workers.
    /// Sub-engine caches and counters fold back into this runner.
    pub fn run(&mut self, scenarios: &[Scenario]) -> BatchReport {
        let _batch_span = mns_telemetry::span("runner.run");
        if self.shards <= 1 {
            let indices: Vec<usize> = (0..scenarios.len()).collect();
            let (pairs, stats) = self.run_shard(scenarios, &indices, ShardId(0));
            BatchReport {
                outcomes: Self::assemble(scenarios.len(), pairs),
                stats,
                shards: Vec::new(),
            }
        } else {
            let plan = ShardPlan::split_with(scenarios, self.shards, self.strategy);
            let mut pairs: Vec<(usize, ScenarioOutcome)> = Vec::with_capacity(scenarios.len());
            let mut shard_stats: Vec<BatchStats> = Vec::with_capacity(plan.shards());
            for (shard, indices) in plan.iter() {
                let _shard_span = mns_telemetry::task_span("runner.shard", u64::from(shard.0));
                let mut sub = Runner::new(RunnerConfig {
                    workers: self.workers,
                    cache: self.cache_enabled,
                    shards: 1,
                    strategy: self.strategy,
                });
                let (shard_pairs, stats) = sub.run_shard(scenarios, indices, shard);
                self.stats.executed += sub.stats.executed;
                self.stats.cache_hits += sub.stats.cache_hits;
                self.stats.steals += sub.stats.steals;
                if self.cache_enabled {
                    self.cache.extend(sub.cache);
                }
                pairs.extend(shard_pairs);
                shard_stats.push(stats);
            }
            BatchReport {
                outcomes: Self::assemble(scenarios.len(), pairs),
                stats: BatchStats::merged(&shard_stats),
                shards: shard_stats,
            }
        }
    }

    /// Orders `(index, outcome)` pairs into the submission-order vector.
    fn assemble(len: usize, mut pairs: Vec<(usize, ScenarioOutcome)>) -> Vec<ScenarioOutcome> {
        debug_assert_eq!(pairs.len(), len);
        pairs.sort_unstable_by_key(|(i, _)| *i);
        pairs.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// Evaluates exactly one shard of a larger batch: the sub-batch
    /// `indices` (global submission indices into `scenarios`, each
    /// `< scenarios.len()`, typically from [`ShardPlan::indices`]) runs
    /// through cache, dedup and the worker pool, and the resulting stats
    /// are tagged with `shard`. Returns one `(global index, outcome)`
    /// pair per entry of `indices`, in arbitrary order.
    ///
    /// This is the primitive every path builds on: [`Runner::run`]
    /// evaluates the whole batch, or each in-process shard, through it,
    /// and the `mns-dist` scheduler recovers a lost shard through it on a
    /// fresh `Runner`, so the cache/dedup scope is the shard itself.
    /// Keeping indices global keeps telemetry task tracks and outcome
    /// slots batch-wide, whichever shard (or process) evaluates them.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `scenarios`.
    pub fn run_shard(
        &mut self,
        scenarios: &[Scenario],
        indices: &[usize],
        shard: ShardId,
    ) -> (Vec<(usize, ScenarioOutcome)>, BatchStats) {
        let mut pairs: Vec<(usize, ScenarioOutcome)> = Vec::with_capacity(indices.len());
        // Resolve cache hits and pick one representative index per
        // distinct uncached fingerprint.
        let mut pending: HashSet<u64> = HashSet::new();
        let mut jobs: Vec<usize> = Vec::new();
        let mut unresolved: Vec<(usize, u64)> = Vec::new();
        let mut batch = BatchStats {
            shard,
            scenarios: indices.len() as u64,
            ..BatchStats::default()
        };
        for &i in indices {
            let fp = scenarios[i].fingerprint();
            if self.cache_enabled {
                if let Some(hit) = self.cache.get(&fp) {
                    pairs.push((i, hit.clone()));
                    self.stats.cache_hits += 1;
                    batch.cache_hits += 1;
                    continue;
                }
            }
            if pending.insert(fp) {
                jobs.push(i);
            } else {
                batch.deduped += 1;
            }
            unresolved.push((i, fp));
        }

        let (fresh, per_worker) = self.execute(scenarios, &jobs);
        self.stats.executed += fresh.len() as u64;
        batch.executed = fresh.len() as u64;
        batch.steals = per_worker.iter().map(|w| w.steals).sum();
        batch.per_worker = per_worker
            .into_iter()
            .enumerate()
            .map(|(w, ws)| WorkerBatchStats {
                shard,
                worker: u32::try_from(w).expect("worker count fits in u32"),
                ..ws
            })
            .collect();
        if let Some(w0) = batch.per_worker.first_mut() {
            // Hits resolve on the submitting thread: charge worker 0.
            w0.cache_hits = batch.cache_hits;
        }
        mns_telemetry::counter_add("runner.executed", batch.executed);
        mns_telemetry::counter_add("runner.cache_hits", batch.cache_hits);
        mns_telemetry::counter_add("runner.deduped", batch.deduped);
        mns_telemetry::counter_add("runner.steals", batch.steals);
        let mut by_fp: HashMap<u64, ScenarioOutcome> = HashMap::with_capacity(fresh.len());
        for (idx, outcome) in fresh {
            let fp = scenarios[idx].fingerprint();
            if self.cache_enabled {
                self.cache.insert(fp, outcome.clone());
            }
            by_fp.insert(fp, outcome);
        }
        for (i, fp) in unresolved {
            pairs.push((
                i,
                by_fp
                    .get(&fp)
                    .expect("every pending fingerprint was evaluated")
                    .clone(),
            ));
        }
        (pairs, batch)
    }

    /// Evaluates one job on whatever thread is running it, under a
    /// detached task span keyed by submission index. Detached spans flush
    /// straight to the collector, so serial (inline) and parallel (worker
    /// thread) execution produce the same trace shape.
    fn evaluate(scenarios: &[Scenario], i: usize) -> (usize, ScenarioOutcome) {
        if !mns_telemetry::is_enabled() {
            return (i, scenarios[i].run());
        }
        let _task_span = mns_telemetry::task_span(scenarios[i].family(), i as u64);
        let t0 = std::time::Instant::now();
        let outcome = scenarios[i].run();
        mns_telemetry::observe("runner.evaluate_ns", t0.elapsed().as_nanos() as u64);
        (i, outcome)
    }

    /// Runs the job list (indices into `scenarios`) across the worker
    /// pool; returns `(index, outcome)` pairs in arbitrary order plus
    /// one [`WorkerBatchStats`] per worker actually used.
    fn execute(
        &mut self,
        scenarios: &[Scenario],
        jobs: &[usize],
    ) -> (Vec<(usize, ScenarioOutcome)>, Vec<WorkerBatchStats>) {
        let workers = self.workers.min(jobs.len());
        if workers <= 1 {
            let results = jobs.iter().map(|&i| Self::evaluate(scenarios, i)).collect();
            let solo = WorkerBatchStats {
                executed: jobs.len() as u64,
                ..WorkerBatchStats::default()
            };
            return (results, vec![solo]);
        }

        // Deal jobs round-robin so each worker starts with a spread of
        // the batch (adjacent scenarios are often similar in cost).
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (k, &job) in jobs.iter().enumerate() {
            queues[k % workers]
                .lock()
                .expect("queue lock")
                .push_back(job);
        }

        let (mut results, per_worker): (Vec<(usize, ScenarioOutcome)>, Vec<WorkerBatchStats>) =
            thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|me| {
                        let queues = &queues;
                        scope.spawn(move || {
                            let telemetry = mns_telemetry::is_enabled();
                            let mut local: Vec<(usize, ScenarioOutcome)> = Vec::new();
                            let mut mine = WorkerBatchStats::default();
                            loop {
                                let wait_t0 = telemetry.then(std::time::Instant::now);
                                // Own queue first (front: submission order)…
                                let mut job = queues[me].lock().expect("queue lock").pop_front();
                                if job.is_none() {
                                    // …then steal from a sibling's tail. All
                                    // jobs are dealt before the scope starts,
                                    // so an empty sweep means we are done.
                                    for off in 1..queues.len() {
                                        let victim = (me + off) % queues.len();
                                        job = queues[victim].lock().expect("queue lock").pop_back();
                                        if job.is_some() {
                                            mine.steals += 1;
                                            break;
                                        }
                                    }
                                }
                                if let Some(t0) = wait_t0 {
                                    mns_telemetry::observe(
                                        "runner.queue_wait_ns",
                                        t0.elapsed().as_nanos() as u64,
                                    );
                                }
                                match job {
                                    Some(i) => {
                                        mine.executed += 1;
                                        local.push(Self::evaluate(scenarios, i));
                                    }
                                    None => break,
                                }
                            }
                            (local, mine)
                        })
                    })
                    .collect();
                let mut all: Vec<(usize, ScenarioOutcome)> = Vec::new();
                let mut stats: Vec<WorkerBatchStats> = Vec::with_capacity(workers);
                for h in handles {
                    let (local, mine) = h.join().expect("scenario worker panicked");
                    all.extend(local);
                    stats.push(mine);
                }
                (all, stats)
            });
        self.stats.steals += per_worker.iter().map(|w| w.steals).sum::<u64>();
        // Deterministic post-condition regardless of steal order.
        results.sort_unstable_by_key(|(i, _)| *i);
        (results, per_worker)
    }
}

/// The cross-domain golden corpus: every scenario family the workspace
/// ships, sized to finish in seconds. `tests/conformance.rs` pins the
/// serial digests of this corpus (at seed 42) in `tests/golden/` and
/// proves 1/2/8-worker runs byte-identical to serial.
pub fn conformance_corpus(seed: u64) -> Vec<Scenario> {
    let mut corpus = vec![
        // Fluidics: clean compiles at two plex counts, then fault recovery.
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 4,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 4,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: seed,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Multiplex,
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.08,
            fault_seed: seed ^ 1,
        }),
        // Fluidics: serial-dilution ladders, clean and damaged. Ladder
        // depth is the compiler's worst cost axis (routing work grows
        // steeply with the serialized makespan), so the corpus stays at
        // plex <= 3 — deeper ladders belong in examples/assay_families.
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::SerialDilution,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::SerialDilution,
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::SerialDilution,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: seed,
        }),
        // Fluidics: washing protocols (electrode reuse under re-reads),
        // one wide/shallow, one narrow/deep, one damaged.
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Washing { wash_steps: 1 },
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Washing { wash_steps: 2 },
            plex: 1,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::Washing { wash_steps: 1 },
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: seed ^ 2,
        }),
        // Fluidics: multi-reagent mixing trees (wide reductions).
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::MixingTree { fanin: 2 },
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::MixingTree { fanin: 4 },
            plex: 1,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::MixingTree { fanin: 2 },
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::MixingTree { fanin: 2 },
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.06,
            fault_seed: seed ^ 3,
        }),
        // Fluidics: dilution gradients (unequal parallel ladders).
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::DilutionGradient,
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::DilutionGradient,
            plex: 2,
            grid_side: 16,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::FluidicsCompile(FluidicsScenario {
            assay: AssayKind::DilutionGradient,
            plex: 3,
            grid_side: 16,
            dead_fraction: 0.04,
            fault_seed: seed ^ 4,
        }),
        // Lab-on-chip: one pristine and one damaged end-to-end run.
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed,
            samples_per_run: 4,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed,
            samples_per_run: 4,
            dead_fraction: 0.05,
            fault_seed: 7,
        }),
        // Lab-on-chip: the full pipeline over each non-multiplex family
        // (same run seed so sensing/interpretation stay cache-friendly).
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::SerialDilution,
            seed,
            samples_per_run: 2,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Washing { wash_steps: 1 },
            seed,
            samples_per_run: 2,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::MixingTree { fanin: 2 },
            seed,
            samples_per_run: 2,
            dead_fraction: 0.0,
            fault_seed: 0,
        }),
        Scenario::LabChip(LabChipScenario {
            assay: AssayKind::DilutionGradient,
            seed,
            samples_per_run: 3,
            dead_fraction: 0.05,
            fault_seed: 9,
        }),
        // GRN: T-helper wild type plus master-regulator knockouts.
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: None,
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some("GATA3".to_owned()),
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some("Tbet".to_owned()),
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: Some("STAT1".to_owned()),
        }),
        // GRN: Arabidopsis whorls, wild and knocked out.
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::Arabidopsis { whorl: 0 },
            knockout: None,
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::Arabidopsis { whorl: 1 },
            knockout: Some("AP3".to_owned()),
        }),
        Scenario::Knockout(KnockoutScenario {
            model: GrnModel::Arabidopsis { whorl: 2 },
            knockout: Some("AG".to_owned()),
        }),
        // WSN: two protocols, one failure regime.
        Scenario::WsnLifetime(WsnScenario {
            nodes: 60,
            side: 120.0,
            protocol: Protocol::Direct,
            failure_rate: 0.0,
            max_rounds: 600,
            seed,
            policies: None,
        }),
        Scenario::WsnLifetime(WsnScenario {
            nodes: 60,
            side: 120.0,
            protocol: Protocol::cluster(0.1, true),
            failure_rate: 0.002,
            max_rounds: 600,
            seed,
            policies: None,
        }),
        // WSN: a heterogeneous round-robin policy mix sourcing through
        // rotating aggregation heads (policy-engine coverage).
        Scenario::WsnLifetime(WsnScenario {
            nodes: 60,
            side: 120.0,
            protocol: Protocol::cluster(0.1, true),
            failure_rate: 0.0,
            max_rounds: 600,
            seed,
            policies: Some(PolicyAssignment::RoundRobin(vec![
                PolicyExpr::Fixed(1.0),
                PolicyExpr::Greedy {
                    threshold: 0.5,
                    duty_high: 1.0,
                    duty_low: 0.25,
                },
            ])),
        }),
        // Harvesting: the two extreme policies.
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Fixed(0.3),
            days: 10,
            cloudiness: 0.4,
            seed,
        }),
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::EnergyNeutral { alpha: 0.01 },
            days: 10,
            cloudiness: 0.4,
            seed,
        }),
        // Harvesting: composed policy expressions (forecast-aware EWMA
        // with health derating and a duty floor; hysteresis switch).
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Clamp {
                inner: Box::new(PolicyExpr::Derate {
                    inner: Box::new(PolicyExpr::Forecast { alpha: 0.2 }),
                    fade: 0.05,
                    floor: 0.5,
                }),
                lo: 0.05,
                hi: 0.9,
            },
            days: 10,
            cloudiness: 0.4,
            seed,
        }),
        Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Hysteresis {
                low: 0.25,
                high: 0.6,
                on: Box::new(PolicyExpr::EnergyNeutral { alpha: 0.01 }),
                off: Box::new(PolicyExpr::Fixed(0.05)),
            },
            days: 10,
            cloudiness: 0.4,
            seed,
        }),
    ];
    // NoC: the Pareto-sweep grid over the 16-core hotspot application.
    let app = CommGraph::hotspot(16, 1.0);
    for &max_cluster in &[2usize, 4, 8] {
        for &shortcuts in &[0usize, 4] {
            corpus.push(Scenario::NocPoint(NocScenario {
                app: app.clone(),
                max_cluster,
                shortcuts,
            }));
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_batch() -> Vec<Scenario> {
        vec![
            Scenario::Harvest(HarvestScenario {
                policy: PolicyExpr::Fixed(0.4),
                days: 2,
                cloudiness: 0.3,
                seed: 5,
            }),
            Scenario::WsnLifetime(WsnScenario {
                nodes: 20,
                side: 90.0,
                protocol: Protocol::tree(40.0, true),
                failure_rate: 0.0,
                max_rounds: 150,
                seed: 5,
                policies: None,
            }),
            Scenario::Knockout(KnockoutScenario {
                model: GrnModel::THelper,
                knockout: None,
            }),
            Scenario::NocPoint(NocScenario {
                app: CommGraph::hotspot(9, 1.0),
                max_cluster: 3,
                shortcuts: 2,
            }),
        ]
    }

    #[test]
    fn cluster_config_builder_sets_shard_deadline() {
        let config = ClusterConfig::new()
            .shards(3)
            .shard_deadline(Duration::from_secs(7));
        assert_eq!(config.shard_deadline, Duration::from_secs(7));
        // The deadline is a cluster knob: the per-worker engine config
        // is untouched by it.
        assert_eq!(config.runner, ClusterConfig::default().runner.shards(3));
        // The default stays at the historical hard-coded value.
        assert_eq!(
            ClusterConfig::default().shard_deadline,
            Duration::from_secs(120)
        );
    }

    #[test]
    fn cluster_config_builder_delegates_into_runner() {
        let cfg = ClusterConfig::new()
            .workers(0) // clamped
            .threads_per_worker(3)
            .shards(5)
            .strategy(ShardStrategy::ByFamily)
            .shard_deadline(Duration::from_secs(9))
            .heartbeat_interval(Duration::from_millis(10))
            .liveness_window(Duration::from_millis(500))
            .registration_window(Duration::from_secs(3))
            .max_attempts(0) // clamped
            .backoff(Duration::from_millis(5), Duration::from_millis(80))
            .seed(42)
            .collect_metrics(true);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.runner.workers, 3);
        assert_eq!(cfg.runner.shards, 5);
        assert_eq!(cfg.runner.strategy, ShardStrategy::ByFamily);
        assert_eq!(cfg.shard_deadline, Duration::from_secs(9));
        assert_eq!(cfg.max_attempts, 1);
        assert_eq!(cfg.backoff_base, Duration::from_millis(5));
        assert_eq!(cfg.backoff_cap, Duration::from_millis(80));
        assert_eq!(cfg.seed, 42);
        assert!(cfg.collect_metrics);
    }

    #[test]
    fn run_shard_matches_full_run_on_its_indices() {
        let batch = small_batch();
        let serial = Runner::serial().run(&batch);
        let indices = [1usize, 3];
        let (pairs, stats) = Runner::serial().run_shard(&batch, &indices, ShardId(2));
        assert_eq!(stats.shard, ShardId(2));
        assert_eq!(stats.scenarios, 2);
        let mut pairs = pairs;
        pairs.sort_unstable_by_key(|(i, _)| *i);
        for ((i, outcome), &expected_idx) in pairs.iter().zip(indices.iter()) {
            assert_eq!(*i, expected_idx);
            assert_eq!(*outcome, serial.outcomes[expected_idx]);
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let batch = small_batch();
        for s in &batch {
            assert_eq!(s.fingerprint(), s.clone().fingerprint());
        }
        let mut fps: Vec<u64> = batch.iter().map(Scenario::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(
            fps.len(),
            batch.len(),
            "distinct scenarios must not collide"
        );
    }

    /// Pins the cache key of every corpus scenario. The fingerprint also
    /// drives the round-robin [`ShardPlan`] deal, so a drift here would
    /// silently reshuffle which scenarios each cluster worker receives.
    #[test]
    fn corpus_fingerprints_are_pinned() {
        let fold = conformance_corpus(42)
            .iter()
            .fold(0u64, |acc, s| acc.rotate_left(5) ^ s.fingerprint());
        assert_eq!(
            fold, 0x8d70_1abb_b5c8_04b5,
            "fingerprint drift: {fold:#018x}"
        );
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let a = Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Fixed(0.4),
            days: 2,
            cloudiness: 0.3,
            seed: 5,
        });
        let b = Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Fixed(0.4),
            days: 2,
            cloudiness: 0.3,
            seed: 6,
        });
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn parallel_is_byte_identical_to_serial() {
        let batch = small_batch();
        let serial = Runner::serial().run(&batch).outcomes;
        for workers in [2, 4, 8] {
            let par = Runner::with_workers(workers).run(&batch).outcomes;
            assert_eq!(serial, par, "divergence at {workers} workers");
        }
    }

    #[test]
    fn cache_serves_repeat_sweeps() {
        let batch = small_batch();
        let mut runner = Runner::with_workers(2);
        let first = runner.run(&batch).outcomes;
        assert_eq!(runner.stats().executed, batch.len() as u64);
        let second = runner.run(&batch).outcomes;
        assert_eq!(first, second);
        assert_eq!(runner.stats().executed, batch.len() as u64, "no re-runs");
        assert_eq!(runner.stats().cache_hits, batch.len() as u64);
    }

    #[test]
    fn duplicates_inside_a_batch_run_once() {
        let one = small_batch().remove(0);
        let batch = vec![one.clone(), one.clone(), one];
        let mut runner = Runner::serial();
        let out = runner.run(&batch).outcomes;
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        assert_eq!(runner.stats().executed, 1);
    }

    #[test]
    fn outcome_digests_discriminate() {
        let outs = Runner::serial().run(&small_batch()).outcomes;
        let mut digests: Vec<Digest> = outs.iter().map(ScenarioOutcome::digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), outs.len());
    }

    #[test]
    fn batch_stats_account_for_every_scenario() {
        let batch = small_batch();
        let mut runner = Runner::with_workers(2);
        let report = runner.run(&batch);
        let (out, stats) = (report.outcomes, report.stats);
        assert_eq!(out.len(), batch.len());
        assert_eq!(stats.scenarios, batch.len() as u64);
        assert_eq!(stats.executed, batch.len() as u64);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.deduped, 0);
        assert!(report.shards.is_empty(), "unsharded run, no breakdown");
        // Workers partition the evaluations exactly.
        let per_worker_sum: u64 = stats.per_worker.iter().map(|w| w.executed).sum();
        assert_eq!(per_worker_sum, stats.executed);
        assert!(!stats.per_worker.is_empty());
        assert!(stats.per_worker.len() <= 2);
        for (w, ws) in stats.per_worker.iter().enumerate() {
            assert_eq!(ws.shard, ShardId(0));
            assert_eq!(ws.worker, w as u32);
        }
        assert!((0.0..=1.0).contains(&stats.balance()));

        // A repeat sweep is all cache hits, charged to worker 0, and
        // vacuously balanced (nothing executed).
        let again = runner.run(&batch);
        assert_eq!(again.outcomes, out);
        let cached = again.stats;
        assert_eq!(cached.executed, 0);
        assert_eq!(cached.cache_hits, batch.len() as u64);
        assert_eq!(cached.per_worker[0].cache_hits, batch.len() as u64);
        assert_eq!(cached.max_worker_executed(), 0);
        assert_eq!(cached.balance(), 1.0);
    }

    #[test]
    fn batch_stats_count_in_batch_duplicates() {
        let one = small_batch().remove(0);
        let batch = vec![one.clone(), one.clone(), one];
        let report = Runner::serial().run(&batch);
        let stats = report.stats;
        assert_eq!(stats.scenarios, 3);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.deduped, 2);
        assert_eq!(stats.per_worker.len(), 1);
        assert_eq!(stats.per_worker[0].executed, 1);
    }

    #[test]
    fn balance_edge_cases_are_defined() {
        // Empty stats: nothing executed, no workers — vacuously balanced.
        assert_eq!(BatchStats::default().balance(), 1.0);
        // Single worker: cannot be imbalanced against itself.
        let solo = BatchStats {
            executed: 5,
            per_worker: vec![WorkerBatchStats {
                executed: 5,
                ..WorkerBatchStats::default()
            }],
            ..BatchStats::default()
        };
        assert_eq!(solo.balance(), 1.0);
        // Two workers, all load on one: balance is 1/2.
        let skewed = BatchStats {
            executed: 4,
            per_worker: vec![
                WorkerBatchStats {
                    executed: 4,
                    ..WorkerBatchStats::default()
                },
                WorkerBatchStats {
                    worker: 1,
                    ..WorkerBatchStats::default()
                },
            ],
            ..BatchStats::default()
        };
        assert!((skewed.balance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn round_robin_plan_is_fingerprint_stable() {
        let batch = small_batch();
        let plan = ShardPlan::split(&batch, 2);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.len(), batch.len());
        // Reversing the batch must not move any scenario to a different
        // shard: compare fingerprint sets per shard.
        let mut reversed = batch.clone();
        reversed.reverse();
        let rplan = ShardPlan::split(&reversed, 2);
        for (shard, indices) in plan.iter() {
            let mut fwd: Vec<u64> = indices.iter().map(|&i| batch[i].fingerprint()).collect();
            let mut rev: Vec<u64> = rplan
                .indices(shard)
                .iter()
                .map(|&i| reversed[i].fingerprint())
                .collect();
            fwd.sort_unstable();
            rev.sort_unstable();
            assert_eq!(fwd, rev, "shard {shard} moved under batch reordering");
        }
    }

    #[test]
    fn by_family_plan_keeps_families_together() {
        let batch = small_batch(); // four distinct families
        let plan = ShardPlan::split_with(&batch, 2, ShardStrategy::ByFamily);
        for (_, indices) in plan.iter() {
            for &i in indices {
                let family = batch[i].family();
                // Every other scenario of this family is in this shard.
                for (j, s) in batch.iter().enumerate() {
                    if s.family() == family {
                        assert!(indices.contains(&j));
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_run_matches_unsharded() {
        let batch = small_batch();
        let reference = Runner::serial().run(&batch);
        for shards in [1usize, 2, 3, 4, 7] {
            for strategy in [ShardStrategy::RoundRobin, ShardStrategy::ByFamily] {
                let report = RunnerConfig::new()
                    .workers(1)
                    .shards(shards)
                    .strategy(strategy)
                    .build()
                    .run(&batch);
                assert_eq!(
                    reference.outcomes, report.outcomes,
                    "outcomes diverged at {shards} shards ({strategy:?})"
                );
                assert_eq!(
                    reference.stats.totals(),
                    report.stats.totals(),
                    "totals diverged at {shards} shards ({strategy:?})"
                );
                if shards > 1 {
                    assert_eq!(report.shards.len(), shards);
                    let merged = BatchStats::merged(&report.shards);
                    assert_eq!(merged, report.stats);
                }
            }
        }
    }

    #[test]
    fn merge_sums_counters_and_unions_workers() {
        let a = BatchStats {
            shard: ShardId(2),
            scenarios: 3,
            executed: 3,
            per_worker: vec![WorkerBatchStats {
                shard: ShardId(2),
                worker: 0,
                executed: 3,
                ..WorkerBatchStats::default()
            }],
            ..BatchStats::default()
        };
        let b = BatchStats {
            shard: ShardId(0),
            scenarios: 2,
            executed: 1,
            cache_hits: 1,
            per_worker: vec![WorkerBatchStats {
                shard: ShardId(0),
                worker: 0,
                executed: 1,
                cache_hits: 1,
                ..WorkerBatchStats::default()
            }],
            ..BatchStats::default()
        };
        let ab = BatchStats::merged(&[a.clone(), b.clone()]);
        let ba = BatchStats::merged(&[b, a]);
        assert_eq!(ab, ba, "merge must be order-insensitive");
        assert_eq!(ab.shard, ShardId(0));
        assert_eq!(ab.scenarios, 5);
        assert_eq!(ab.executed, 4);
        assert_eq!(ab.cache_hits, 1);
        assert_eq!(ab.per_worker.len(), 2);
        assert_eq!(ab.per_worker[0].shard, ShardId(0));
        assert_eq!(ab.per_worker[1].shard, ShardId(2));
    }

    #[test]
    fn runner_config_builder_round_trips() {
        let config = RunnerConfig::new()
            .workers(3)
            .shards(2)
            .cache(false)
            .strategy(ShardStrategy::ByFamily);
        assert_eq!(config.workers, 3);
        assert_eq!(config.shards, 2);
        assert!(!config.cache);
        assert_eq!(config.strategy, ShardStrategy::ByFamily);
        let runner = config.build();
        assert_eq!(runner.workers(), 3);
        assert_eq!(runner.shards(), 2);
        // shards(0) clamps to 1 rather than planning an empty split.
        assert_eq!(RunnerConfig::new().shards(0).shards, 1);
    }

    #[test]
    fn scenario_families_are_stable_labels() {
        let corpus = conformance_corpus(42);
        for s in &corpus {
            assert!(s.family().starts_with("scenario."), "{}", s.family());
        }
        let batch = small_batch();
        assert_eq!(batch[0].family(), "scenario.harvest");
        assert_eq!(batch[1].family(), "scenario.wsn");
        assert_eq!(batch[2].family(), "scenario.knockout");
        assert_eq!(batch[3].family(), "scenario.noc");
    }

    #[test]
    fn corpus_covers_every_scenario_family() {
        let corpus = conformance_corpus(42);
        assert!(corpus
            .iter()
            .any(|s| matches!(s, Scenario::FluidicsCompile(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::LabChip(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::NocPoint(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::WsnLifetime(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::Harvest(_))));
        assert!(corpus.iter().any(|s| matches!(s, Scenario::Knockout(_))));
        // Labels are the golden-file keys: they must be unique.
        let mut labels: Vec<String> = corpus.iter().map(Scenario::label).collect();
        labels.sort();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "corpus labels must be unique");
    }
}
