//! Helpers shared by the multi-process conformance suites
//! (`cluster_conformance.rs`, `sharded_conformance.rs`): golden-digest
//! checks and a `Cluster` run over the `dist_worker` binary Cargo built
//! for the test run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use micronano::core::runner::{ClusterConfig, Runner, Scenario, ScenarioOutcome};
use micronano::dist::{Cluster, ClusterReport, DistFault, Transport};

/// Seed of the committed corpus (must match `examples/regen_golden.rs`).
pub const CORPUS_SEED: u64 = 42;

/// The cluster worker binary Cargo built for this test run.
pub fn worker_path() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dist_worker"))
}

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
