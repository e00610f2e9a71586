//! Multi-process sharded-run conformance: distribution across worker
//! processes must never move a bit.
//!
//! Every sweep here goes through `Cluster` with real `dist_worker`
//! processes, against the golden corpus of `tests/golden/corpus.txt`
//! (seed 42):
//!
//! 1. **Child-process shards**: the full corpus over TCP at n ∈ {1, 2, 4}
//!    shards (round-robin) and at 3 shards by family produces outcomes
//!    byte-identical to serial and golden digests — and, at one thread
//!    per worker, stats identical to the in-process sharded layout,
//!    per shard and per worker row.
//! 2. **Fault recovery**: a sole worker that crashes mid-shard leaves
//!    its shards to in-process recovery, and a worker that hangs past
//!    the shard deadline is dropped and its shard requeued; the merged
//!    report still carries golden digests.
//! 3. **Telemetry**: merged child metrics agree with the merged stats.
//!
//! The transport matrix and the survivor-based recovery cases live in
//! `tests/cluster_conformance.rs`.

mod common;

use std::time::Duration;

use common::{assert_matches_serial, run_cluster, CORPUS_SEED};
use micronano::core::runner::{
    conformance_corpus, ClusterConfig, RunnerConfig, Scenario, ShardId, ShardStrategy,
};
use micronano::dist::{DistFault, FaultMode, SpoolTransport, TcpTransport};

/// Full-corpus TCP sweep at `shards` shards; at one thread per worker
/// the cluster must report the *same stats* as the equivalent
/// in-process sharded run — not just the same totals: same per-shard
/// breakdown, same per-worker rows.
fn assert_tcp_layout_matches_in_process(shards: usize, strategy: ShardStrategy) {
    let corpus = conformance_corpus(CORPUS_SEED);
    let context = format!("tcp, full corpus, {shards} shards {strategy:?}");
    let config = ClusterConfig::new()
        .workers(2)
        .shards(shards)
        .strategy(strategy)
        .threads_per_worker(1);
    let transport = TcpTransport::bind().expect("loopback listener");
    let report = run_cluster(transport, config, &corpus, None);
    assert_matches_serial(&corpus, &report, &context);
    assert_eq!(report.requeues, 0, "{context}");
    assert!(
        report.recovered.is_empty(),
        "healthy workers must not be recovered in-process: {context}: {:?}",
        report.recovered
    );

    let in_process = RunnerConfig::new()
        .workers(1)
        .shards(shards)
        .strategy(strategy)
        .build()
        .run(&corpus);
    assert_eq!(in_process.stats, report.stats, "{context}");
    // `BatchReport::shards` is empty for the unsharded (shards = 1)
    // in-process path; the cluster always reports one row per planned
    // shard.
    assert_eq!(report.shards.len(), shards, "{context}");
    if shards > 1 {
        assert_eq!(in_process.shards, report.shards, "{context}");
    }
}

#[test]
fn child_process_shards_match_serial_and_golden() {
    for shards in [1usize, 2, 4] {
        assert_tcp_layout_matches_in_process(shards, ShardStrategy::RoundRobin);
    }
}

#[test]
fn by_family_child_process_run_matches_serial() {
    // The cheap cluster matrix never sends fluidics, labchip or
    // WSN-lifetime scenarios through a worker process; by family each of
    // those families lands whole on one shard here.
    assert_tcp_layout_matches_in_process(3, ShardStrategy::ByFamily);
}

#[test]
fn crashed_worker_is_requeued_without_digest_drift() {
    // A sole worker dies on its first assignment: with no survivor to
    // take the requeue, every shard is recovered in-process.
    let corpus = conformance_corpus(CORPUS_SEED);
    let config = ClusterConfig::new().workers(1).shards(2);
    let transport = TcpTransport::bind().expect("loopback listener");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::Crash,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "sole-worker crash recovery");
    assert_eq!(
        report.recovered,
        vec![ShardId(0), ShardId(1)],
        "with the fleet gone every shard is recovered in-process"
    );
    assert!(report.placements.iter().all(|p| p.worker.is_none()));
}

#[test]
fn hung_worker_is_killed_at_the_deadline_and_requeued() {
    // Small cheap batch: the healthy shard finishes fast, the hung worker
    // sleeps and must be dropped when the 1-second deadline passes. Only
    // sub-millisecond families qualify — a dilution ladder or washing
    // chain in the healthy shard can cost hundreds of milliseconds
    // (seconds in debug) and bust the deadline itself. The liveness
    // window is too lenient to fire first, and the spool transport
    // carries the sweep (the TCP deadline case is in
    // `tests/cluster_conformance.rs`).
    let batch: Vec<Scenario> = conformance_corpus(CORPUS_SEED)
        .into_iter()
        .filter(|s| {
            matches!(
                s,
                Scenario::Knockout(_) | Scenario::Harvest(_) | Scenario::NocPoint(_)
            )
        })
        .take(6)
        .collect();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(2)
        .liveness_window(Duration::from_secs(30))
        .shard_deadline(Duration::from_secs(1));
    let transport = SpoolTransport::ephemeral().expect("spool dir");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::StallHeartbeat,
    };
    let report = run_cluster(transport, config, &batch, Some(fault));
    assert_matches_serial(&batch, &report, "spool deadline recovery");
    assert!(report.requeues >= 1, "the deadline must requeue the shard");
    assert_eq!(
        report.heartbeat_misses, 0,
        "a 30 s liveness window must not fire first"
    );
}

#[test]
fn child_metrics_are_collected_and_merged() {
    let batch: Vec<Scenario> = conformance_corpus(CORPUS_SEED)
        .into_iter()
        .filter(|s| !matches!(s, Scenario::LabChip(_)))
        .take(8)
        .collect();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(2)
        .collect_metrics(true);
    let transport = TcpTransport::bind().expect("loopback listener");
    let report = run_cluster(transport, config, &batch, None);
    assert_matches_serial(&batch, &report, "tcp with metrics");
    assert!(report.recovered.is_empty());
    let metrics = report.metrics.expect("collect_metrics fills the snapshot");
    assert_eq!(
        metrics.counter("runner.executed"),
        report.stats.executed,
        "merged child telemetry must agree with the merged stats"
    );
}
