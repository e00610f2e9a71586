//! Seeded workload generators and the digests each workload is checked
//! against. Every generator is a pure function of the workload seed; the
//! program only ever sees the generated `Vec<Scenario>`s.
//!
//! A workload is a *cycle*: a fixed list of batches that a run submits in
//! order, again and again. Timed phases end on cycle boundaries, so every
//! batch of the cycle weighs the same in every run.

use std::collections::HashMap;

use micronano::core::runner::{
    conformance_corpus, AssayKind, Digest, FluidicsScenario, GrnModel, HarvestScenario,
    KnockoutScenario, LabChipScenario, NocScenario, Scenario, WsnScenario,
};
use micronano::noc::graph::CommGraph;
use micronano::policy::PolicyExpr;
use micronano::wsn::protocol::Protocol;

/// The seed of the golden corpus, and the seed `expected/ladders.txt` is
/// regenerated at. Both workloads are checked against pinned digests at
/// every seed.
pub const DEFAULT_SEED: u64 = 42;

/// Fault map of every damaged `ladders` entry. Pinned rather than drawn:
/// a compile's cost on a faulty array swings 10-40x with the map, which
/// no run length could average out (see README.md).
pub const LADDER_FAULT_SEED: u64 = 42;

const GOLDEN: &str = include_str!("../../tests/golden/corpus.txt");
const LADDERS_EXPECTED: &str = include_str!("../expected/ladders.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ladders,
    CorpusTcp,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Ladders, Workload::CorpusTcp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ladders => "ladders",
            Workload::CorpusTcp => "corpus_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The batches one cycle of this workload submits, in order.
    pub fn cycle(self, seed: u64) -> Vec<Vec<Scenario>> {
        match self {
            Workload::CorpusTcp => vec![corpus()],
            Workload::Ladders => ladders(seed),
        }
    }

    /// Pinned digests, keyed by scenario label. A seed may change the order
    /// of the scenarios, never the scenarios themselves.
    pub fn expected(self) -> HashMap<String, Digest> {
        parse_digests(match self {
            Workload::CorpusTcp => GOLDEN,
            Workload::Ladders => LADDERS_EXPECTED,
        })
    }
}

/// `label digest` lines, `#` comments ignored.
fn parse_digests(text: &str) -> HashMap<String, Digest> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (label, hex) = l.rsplit_once(' ')?;
            Some((label.to_owned(), Digest(u64::from_str_radix(hex, 16).ok()?)))
        })
        .collect()
}

/// The 43-scenario golden corpus, `conformance_corpus(42)` in its golden
/// order, whatever the seed: `conformance_corpus(seed)` has a heavy-tailed
/// cost over seeds (one fault map can turn a 190 ms corpus into 1.9 s),
/// and a seeded order would change the cluster's round-robin shards.
fn corpus() -> Vec<Scenario> {
    conformance_corpus(DEFAULT_SEED)
}

/// Deep fluidics ladders beyond the corpus's `plex <= 3` cap, clean and
/// at 4 % dead electrodes, as five sweeps. Their makespans on two workers
/// are spaced at least 1.5x apart, so p50 falls inside the third sweep and
/// p75 inside the fourth on every run.
///
/// Entries, fault maps and the order inside each sweep are fixed: a
/// compile's cost on a faulty array swings 10-40x with the fault map, and
/// the runner's round-robin deal makes a sweep's makespan depend on where
/// its long compiles sit. The seed rotates the order of the five sweeps,
/// which changes the submitted sequence but not its cost.
fn ladders(seed: u64) -> Vec<Vec<Scenario>> {
    use AssayKind::{DilutionGradient as Gradient, Multiplex, SerialDilution as Dilution};
    const MIXTREE: AssayKind = AssayKind::MixingTree { fanin: 2 };
    const WASH: AssayKind = AssayKind::Washing { wash_steps: 2 };
    let sweep = |entries: &[(AssayKind, usize, bool)]| -> Vec<Scenario> {
        entries
            .iter()
            .map(|&(assay, plex, dead)| {
                Scenario::FluidicsCompile(FluidicsScenario {
                    assay,
                    plex,
                    grid_side: 16,
                    dead_fraction: if dead { 0.04 } else { 0.0 },
                    fault_seed: if dead { LADDER_FAULT_SEED } else { 0 },
                })
            })
            .collect()
    };
    let mut cycle = vec![
        // The multiplex ladder, clean and damaged.
        sweep(&[
            (Multiplex, 4, false),
            (Multiplex, 4, true),
            (Multiplex, 5, false),
            (Multiplex, 5, true),
            (Multiplex, 6, false),
            (Multiplex, 6, true),
        ]),
        // The first depth past the cap.
        sweep(&[
            (Dilution, 3, false),
            (Dilution, 3, true),
            (Gradient, 3, false),
            (Gradient, 3, true),
            (MIXTREE, 4, false),
        ]),
        // Mid-depth ladders on a damaged array.
        sweep(&[(MIXTREE, 4, true), (Dilution, 4, true), (WASH, 2, true)]),
        // Deep ladders on a clean array.
        sweep(&[
            (Dilution, 4, false),
            (WASH, 2, false),
            (Gradient, 4, false),
            (MIXTREE, 5, false),
        ]),
        // Deep ladders on a damaged array: both exhaust latency escalation
        // and fail (`compiled: false`) after degrade-and-retry.
        sweep(&[(Gradient, 4, true), (MIXTREE, 5, true)]),
    ];
    cycle.rotate_left((seed % 5) as usize);
    cycle
}

/// Small fixed scenarios, one per family, evaluated during set-up so the
/// timed phases do not pay for first-touch page faults.
pub fn warmup_set(cycle: &[Vec<Scenario>]) -> Vec<Scenario> {
    let families: Vec<&str> = cycle.iter().flatten().map(Scenario::family).collect();
    let mut set = vec![Scenario::FluidicsCompile(FluidicsScenario {
        assay: AssayKind::SerialDilution,
        plex: 2,
        grid_side: 16,
        dead_fraction: 0.0,
        fault_seed: 0,
    })];
    if families.contains(&"scenario.labchip") {
        set.push(Scenario::LabChip(LabChipScenario {
            assay: AssayKind::Multiplex,
            seed: 7,
            samples_per_run: 2,
            dead_fraction: 0.0,
            fault_seed: 0,
        }));
    }
    if families.contains(&"scenario.noc") {
        set.push(Scenario::NocPoint(NocScenario {
            app: CommGraph::hotspot(16, 1.0),
            max_cluster: 4,
            shortcuts: 0,
        }));
    }
    if families.contains(&"scenario.wsn") {
        set.push(Scenario::WsnLifetime(WsnScenario {
            nodes: 40,
            side: 100.0,
            protocol: Protocol::Direct,
            failure_rate: 0.0,
            max_rounds: 300,
            seed: 7,
            policies: None,
        }));
    }
    if families.contains(&"scenario.harvest") {
        set.push(Scenario::Harvest(HarvestScenario {
            policy: PolicyExpr::Fixed(0.3),
            days: 5,
            cloudiness: 0.4,
            seed: 7,
        }));
    }
    if families.contains(&"scenario.knockout") {
        set.push(Scenario::Knockout(KnockoutScenario {
            model: GrnModel::THelper,
            knockout: None,
        }));
    }
    set
}
