//! Telemetry conformance: profiling must never change the physics.
//!
//! Three contracts over `mns-telemetry` as wired into the workspace:
//!
//! 1. **Inert when off**: with telemetry disabled (the default), the
//!    golden corpus digests match `tests/golden/corpus.txt` and random
//!    batches produce outcomes byte-identical to instrumented runs —
//!    enabling a profiler is not allowed to move a single bit.
//! 2. **Structurally deterministic when on**: under the virtual clock,
//!    the span *tree shape* of a batch is identical at 1, 2 and 8
//!    workers (timestamps may differ; structure may not).
//! 3. **Exports are well-formed**: the Chrome-trace JSON parses with
//!    correctly nested B/E pairs, folded stacks and the metrics snapshot
//!    pass their validators.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one lock and resets state on entry and exit.

mod common;

use std::sync::{Arc, Mutex};

use common::{assert_golden, golden_digests, CORPUS_SEED};
use micronano::core::runner::{
    conformance_corpus, AssayKind, FluidicsScenario, GrnModel, HarvestScenario, KnockoutScenario,
    NocScenario, Runner, RunnerConfig, Scenario, ScenarioOutcome, WsnScenario,
};
use micronano::noc::graph::CommGraph;
use micronano::policy::PolicyExpr;
use micronano::telemetry;
use micronano::wsn::protocol::Protocol;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

static LOCK: Mutex<()> = Mutex::new(());

/// Uncached one-shot run at a given worker count (the old
/// `run_scenarios` shape, expressed through the consolidated API).
fn run_plain(batch: &[Scenario], workers: usize) -> Vec<ScenarioOutcome> {
    RunnerConfig::new()
        .workers(workers)
        .cache(false)
        .build()
        .run(batch)
        .outcomes
}

/// Runs `f` with exclusive ownership of the global telemetry state,
/// disabled and empty on entry and on exit.
fn isolated<T>(f: impl FnOnce() -> T) -> T {
    let _guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::disable();
    telemetry::reset();
    let out = f();
    telemetry::disable();
    telemetry::reset();
    out
}

/// A cheap mixed batch covering five scenario families, with a
/// deliberate duplicate so dedup interacts with the trace too.
fn cheap_batch(seed: u64, len: usize) -> Vec<Scenario> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batch: Vec<Scenario> = (0..len)
        .map(|_| match rng.gen_range(0..5u8) {
            0 => Scenario::Harvest(HarvestScenario {
                policy: PolicyExpr::Fixed(rng.gen_range(0.0..1.0)),
                days: rng.gen_range(1..4),
                cloudiness: rng.gen_range(0.0..1.0),
                seed: rng.gen_range(0..1_000),
            }),
            1 => Scenario::WsnLifetime(WsnScenario {
                nodes: rng.gen_range(10..25),
                side: rng.gen_range(60.0..120.0),
                protocol: if rng.gen() {
                    Protocol::Direct
                } else {
                    Protocol::tree(40.0, rng.gen())
                },
                failure_rate: 0.0,
                max_rounds: rng.gen_range(50..150),
                seed: rng.gen_range(0..1_000),
                policies: None,
            }),
            2 => Scenario::Knockout(KnockoutScenario {
                model: GrnModel::THelper,
                knockout: None,
            }),
            3 => Scenario::NocPoint(NocScenario {
                app: CommGraph::hotspot(rng.gen_range(4..10), 1.0),
                max_cluster: rng.gen_range(2..5),
                shortcuts: rng.gen_range(0..3),
            }),
            _ => Scenario::FluidicsCompile(FluidicsScenario {
                assay: AssayKind::Multiplex,
                plex: rng.gen_range(1..3),
                grid_side: 16,
                dead_fraction: 0.0,
                fault_seed: 0,
            }),
        })
        .collect();
    if len > 1 {
        let dup = batch[rng.gen_range(0..len / 2)].clone();
        batch.push(dup);
    }
    batch
}

#[test]
fn disabled_telemetry_leaves_golden_corpus_untouched() {
    isolated(|| {
        assert!(!telemetry::is_enabled(), "telemetry must default to off");
        let corpus = conformance_corpus(CORPUS_SEED);
        let outcomes = Runner::serial().run(&corpus).outcomes;
        // Nothing was recorded by the instrumented hot paths…
        assert!(telemetry::take_trace().is_empty());
        assert!(telemetry::snapshot().is_empty());
        // …and the digests still match the committed golden file.
        assert_eq!(golden_digests().len(), corpus.len());
        assert_golden(&corpus, &outcomes);
    });
}

#[test]
fn span_tree_structure_is_identical_across_worker_counts() {
    isolated(|| {
        let batch = cheap_batch(7, 8);
        let mut structures = Vec::new();
        let mut outcomes = Vec::new();
        for workers in [1usize, 2, 8] {
            telemetry::reset();
            telemetry::enable(Arc::new(telemetry::VirtualClock::default()));
            let out = run_plain(&batch, workers);
            telemetry::disable();
            let trace = telemetry::take_trace();
            assert!(!trace.is_empty(), "instrumented run must record spans");
            structures.push((workers, trace.structure()));
            outcomes.push(out);
        }
        let (_, reference) = &structures[0];
        for (workers, structure) in &structures[1..] {
            assert_eq!(
                reference, structure,
                "span tree shape diverged at {workers} workers"
            );
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        // Every non-duplicate scenario got its own task lane, plus the
        // untracked runner.run root.
        let reference = &structures[0].1;
        for line in ["[track 0] scenario.", "[untracked] runner.run"] {
            assert!(
                reference.contains(line),
                "expected `{line}` in:\n{reference}"
            );
        }
    });
}

#[test]
fn chrome_trace_and_folded_exports_validate() {
    isolated(|| {
        telemetry::enable(Arc::new(telemetry::VirtualClock::default()));
        let batch = cheap_batch(11, 6);
        let _ = run_plain(&batch, 4);
        telemetry::disable();
        let trace = telemetry::take_trace();
        let spans = trace.span_count();
        assert!(spans > 0);

        let chrome = telemetry::chrome_trace(&trace);
        let summary = telemetry::validate_chrome_trace(&chrome)
            .expect("chrome trace must parse with nested B/E pairs");
        assert_eq!(summary.spans, spans, "one B/E pair per span");
        assert_eq!(summary.events, 2 * spans);
        assert!(summary.tracks > 1, "task lanes plus the untracked lane");

        let folded = telemetry::folded_stacks(&trace);
        let stacks = telemetry::validate_folded(&folded).expect("folded stacks must validate");
        // Identical stacks from different tracks aggregate, so the line
        // count is the number of *distinct* stacks, never more than the
        // span count and at least the depth-1 variety of the batch.
        assert!(stacks > 0 && stacks <= spans, "{stacks} vs {spans}");
        assert!(folded.contains("runner.run "));
        assert!(folded.lines().any(|l| l.starts_with("scenario.")));

        let snap = telemetry::snapshot();
        assert!(snap.counter("runner.executed") > 0);
        telemetry::validate_snapshot_text(&snap.to_text())
            .expect("metrics snapshot text must validate");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Differential: an instrumented run returns outcomes byte-identical
    // to a plain one, for random batches and worker counts.
    #[test]
    fn instrumented_outcomes_match_plain_outcomes(
        seed in 0u64..100_000,
        len in 2usize..6,
        workers in 1usize..9,
    ) {
        let batch = cheap_batch(seed, len);
        let (plain, instrumented) = isolated(|| {
            let plain = run_plain(&batch, workers);
            telemetry::enable(Arc::new(telemetry::VirtualClock::default()));
            let instrumented = run_plain(&batch, workers);
            telemetry::disable();
            (plain, instrumented)
        });
        prop_assert_eq!(plain.len(), instrumented.len());
        for (i, (p, t)) in plain.iter().zip(&instrumented).enumerate() {
            prop_assert_eq!(
                p, t,
                "batch seed {} scenario `{}` changed under telemetry at {} workers",
                seed, batch[i].label(), workers
            );
            prop_assert_eq!(p.digest(), t.digest());
        }
    }
}
