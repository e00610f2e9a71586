//! Helpers shared by the integration suites: golden-digest checks, a
//! random policy-expression generator, and a `Cluster` run over the
//! `dist_worker` binary Cargo built for the test run.
//!
//! Each suite compiles this module separately and uses only part of it,
//! so unused helpers are expected here.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use micronano::core::runner::{ClusterConfig, Runner, Scenario, ScenarioOutcome};
use micronano::dist::{Cluster, ClusterReport, DistFault, Transport};
use micronano::policy::PolicyExpr;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Seed of the committed corpus (must match `examples/regen_golden.rs`).
pub const CORPUS_SEED: u64 = 42;

/// The cluster worker binary Cargo built for this test run.
pub fn worker_path() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dist_worker"))
}

/// The committed golden digests, keyed by scenario label.
pub fn golden_digests() -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus.txt");
    let text = std::fs::read_to_string(path).expect("tests/golden/corpus.txt is committed");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, digest) = l.rsplit_once(' ').expect("`label digest` lines");
            (label.to_owned(), digest.to_owned())
        })
        .collect()
}

/// Asserts every outcome digest matches the committed golden file.
pub fn assert_golden(corpus: &[Scenario], outcomes: &[ScenarioOutcome]) {
    let golden = golden_digests();
    assert_eq!(outcomes.len(), corpus.len());
    for (scenario, outcome) in corpus.iter().zip(outcomes) {
        let label = scenario.label();
        let expected = golden
            .get(&label)
            .unwrap_or_else(|| panic!("scenario `{label}` missing from golden file"));
        assert_eq!(
            *expected,
            outcome.digest().to_string(),
            "golden drift on `{label}`"
        );
    }
}

pub fn run_cluster(
    transport: impl Transport + 'static,
    config: ClusterConfig,
    corpus: &[Scenario],
    fault: Option<DistFault>,
) -> ClusterReport {
    let mut cluster = Cluster::new(transport, config).with_worker_binary(worker_path());
    if let Some(fault) = fault {
        cluster = cluster.with_fault(fault);
    }
    cluster.run(corpus)
}

/// Asserts one report matches the serial reference bit for bit.
pub fn assert_matches_serial(corpus: &[Scenario], report: &ClusterReport, context: &str) {
    let reference = Runner::serial().run(corpus);
    assert_eq!(
        reference.outcomes, report.outcomes,
        "outcome drift: {context}"
    );
    assert_eq!(
        reference.stats.totals(),
        report.stats.totals(),
        "stats drift: {context}"
    );
    assert_golden(corpus, &report.outcomes);
}

/// Random (always-valid) policy expression: primitives at any depth,
/// every combinator (`Scheduled` included) until the depth budget runs
/// out, so generated records cover every policy wire token.
pub fn random_policy(rng: &mut ChaCha8Rng, depth: usize) -> PolicyExpr {
    let variants = if depth >= 2 { 3 } else { 8u8 };
    match rng.gen_range(0..variants) {
        0 => PolicyExpr::Fixed(rng.gen_range(0.0..1.0)),
        1 => PolicyExpr::Greedy {
            threshold: rng.gen_range(0.1..0.5),
            duty_high: rng.gen_range(0.5..1.0),
            duty_low: rng.gen_range(0.0..0.1),
        },
        2 => PolicyExpr::EnergyNeutral {
            alpha: rng.gen_range(0.001..0.1),
        },
        3 => PolicyExpr::Forecast {
            alpha: rng.gen_range(0.01..0.5),
        },
        4 => PolicyExpr::Derate {
            inner: Box::new(random_policy(rng, depth + 1)),
            fade: rng.gen_range(0.0..0.5),
            floor: rng.gen_range(0.0..0.5),
        },
        5 => {
            let low = rng.gen_range(0.05..0.4);
            PolicyExpr::Hysteresis {
                low,
                high: rng.gen_range(low + 0.1..0.95),
                on: Box::new(random_policy(rng, depth + 1)),
                off: Box::new(random_policy(rng, depth + 1)),
            }
        }
        6 => {
            let mut start = 0u64;
            let pieces = (0..rng.gen_range(1..4usize))
                .map(|k| {
                    if k > 0 {
                        start += rng.gen_range(1..10u64);
                    }
                    (start, random_policy(rng, depth + 1))
                })
                .collect();
            PolicyExpr::Scheduled { pieces }
        }
        _ => PolicyExpr::Clamp {
            inner: Box::new(random_policy(rng, depth + 1)),
            lo: rng.gen_range(0.0..0.3),
            hi: rng.gen_range(0.5..1.0),
        },
    }
}
