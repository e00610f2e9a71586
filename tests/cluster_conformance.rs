//! Cluster conformance: distribution across machines must never move a
//! bit.
//!
//! Contracts, all against the golden corpus of `tests/golden/corpus.txt`
//! (seed 42):
//!
//! 1. **Transport matrix**: serial == in-process sharded == in-process
//!    cluster == TCP cluster == spool cluster, for N ∈ {1, 2, 4}
//!    workers and both shard strategies. `threads_per_worker(0)` gives
//!    the same per-worker layout in process and over TCP.
//! 2. **Failure recovery**: a TCP worker killed mid-shard, a TCP worker
//!    whose heartbeats stall past the liveness window, and a spool
//!    worker that commits a corrupt result file all requeue onto
//!    survivors — merged digests unchanged, `dist.requeue` nonzero.
//! 3. **Telemetry**: merged worker metric *counters* are identical
//!    across the process-backed transports (histograms carry wall-clock
//!    timings and are excluded by design).
//! 4. **Degradation**: a cluster whose fleet cannot launch still
//!    completes every shard in-process with golden digests.
//!
//! The full corpus runs once per process transport; the wider matrix
//! uses a cheap-family subset (dilution-ladder scenarios dominate debug
//! wall time) that is still asserted digest-by-digest against the
//! golden file.
//!
//! The per-worker stats layout against the in-process sharded run, the
//! by-family full-corpus sweep, sole-worker crash recovery and the spool
//! deadline case live in `tests/sharded_conformance.rs`.

mod common;

use std::sync::Once;
use std::time::Duration;

use common::{assert_golden, assert_matches_serial, run_cluster, CORPUS_SEED};
use micronano::core::runner::{
    conformance_corpus, BatchTotals, ClusterConfig, Runner, Scenario, ShardStrategy,
};
use micronano::dist::{
    Cluster, ClusterReport, DistFault, FaultMode, InProcess, SpoolTransport, TcpTransport,
};
use micronano::telemetry;

/// Cheap corpus subset for the wide matrix and the failure tests:
/// knockout / harvest / NoC scenarios evaluate in milliseconds even in
/// debug builds, dilution ladders do not.
fn cheap_corpus() -> Vec<Scenario> {
    let corpus: Vec<Scenario> = conformance_corpus(CORPUS_SEED)
        .into_iter()
        .filter(|s| {
            matches!(
                s,
                Scenario::Knockout(_) | Scenario::Harvest(_) | Scenario::NocPoint(_)
            )
        })
        .collect();
    assert!(corpus.len() >= 8, "cheap subset unexpectedly small");
    corpus
}

/// The failure tests assert on the process-global `dist.*` counters, so
/// telemetry is switched on exactly once for the whole test binary and
/// never reset (tests run in parallel threads and share the registry —
/// deltas, not absolute values, are asserted).
fn enable_telemetry_once() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        telemetry::enable(std::sync::Arc::new(telemetry::WallClock::default()));
    });
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn in_process_cluster_matches_serial_on_full_corpus() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let config = ClusterConfig::new().workers(2).shards(4);
    let report = Cluster::new(InProcess::new(), config).run(&corpus);
    assert_matches_serial(&corpus, &report, "in-process cluster, full corpus");
    assert_eq!(report.requeues, 0, "healthy loopback workers never requeue");
    assert!(report.recovered.is_empty());
    assert_eq!(report.shards.len(), 4);
    assert!(
        report
            .placements
            .iter()
            .all(|p| p.worker.is_some() && p.attempts == 1),
        "every shard lands on a worker in one attempt: {:?}",
        report.placements
    );
}

#[test]
fn tcp_cluster_matches_serial_on_full_corpus() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = TcpTransport::bind().expect("loopback listener");
    let report = run_cluster(transport, config, &corpus, None);
    assert_matches_serial(&corpus, &report, "tcp cluster, full corpus");
    assert_eq!(report.requeues, 0);
    assert!(report.recovered.is_empty());
}

#[test]
fn spool_cluster_matches_serial_on_full_corpus() {
    let corpus = conformance_corpus(CORPUS_SEED);
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = SpoolTransport::ephemeral().expect("spool dir");
    let report = run_cluster(transport, config, &corpus, None);
    assert_matches_serial(&corpus, &report, "spool cluster, full corpus");
    assert_eq!(report.requeues, 0);
    assert!(report.recovered.is_empty());
}

#[test]
fn in_process_matrix_matches_serial() {
    let corpus = cheap_corpus();
    for workers in [1usize, 2, 4] {
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::ByFamily] {
            let config = ClusterConfig::new()
                .workers(workers)
                .shards(4)
                .strategy(strategy);
            let report = Cluster::new(InProcess::new(), config).run(&corpus);
            assert_matches_serial(
                &corpus,
                &report,
                &format!("in-process, {workers} workers, {strategy:?}"),
            );
        }
    }
}

#[test]
fn tcp_matrix_matches_serial() {
    let corpus = cheap_corpus();
    for workers in [1usize, 2, 4] {
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::ByFamily] {
            let config = ClusterConfig::new()
                .workers(workers)
                .shards(4)
                .strategy(strategy);
            let transport = TcpTransport::bind().expect("loopback listener");
            let report = run_cluster(transport, config, &corpus, None);
            assert_matches_serial(
                &corpus,
                &report,
                &format!("tcp, {workers} workers, {strategy:?}"),
            );
            assert_eq!(report.requeues, 0, "tcp {workers}w {strategy:?}");
        }
    }
}

#[test]
fn spool_matrix_matches_serial() {
    let corpus = cheap_corpus();
    for workers in [1usize, 2, 4] {
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::ByFamily] {
            let config = ClusterConfig::new()
                .workers(workers)
                .shards(4)
                .strategy(strategy);
            let transport = SpoolTransport::ephemeral().expect("spool dir");
            let report = run_cluster(transport, config, &corpus, None);
            assert_matches_serial(
                &corpus,
                &report,
                &format!("spool, {workers} workers, {strategy:?}"),
            );
            assert_eq!(report.requeues, 0, "spool {workers}w {strategy:?}");
        }
    }
}

#[test]
fn empty_shards_resolve_without_workers() {
    // More shards than scenarios: the overflow shards are empty and must
    // resolve locally while keeping one stats row per planned shard.
    let corpus: Vec<Scenario> = cheap_corpus().into_iter().take(4).collect();
    let config = ClusterConfig::new().workers(2).shards(8);
    let report = Cluster::new(InProcess::new(), config).run(&corpus);
    assert_matches_serial(&corpus, &report, "8 shards over 4 scenarios");
    assert_eq!(report.shards.len(), 8, "one stats row per planned shard");
}

#[test]
fn metrics_counters_identical_across_process_transports() {
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .collect_metrics(true);

    let tcp = run_cluster(
        TcpTransport::bind().expect("loopback listener"),
        config,
        &corpus,
        None,
    );
    let spool = run_cluster(
        SpoolTransport::ephemeral().expect("spool dir"),
        config,
        &corpus,
        None,
    );
    assert_matches_serial(&corpus, &tcp, "tcp with metrics");
    assert_matches_serial(&corpus, &spool, "spool with metrics");

    let tcp_counters = &tcp
        .metrics
        .as_ref()
        .expect("tcp metrics collected")
        .counters;
    let spool_counters = &spool
        .metrics
        .as_ref()
        .expect("spool metrics collected")
        .counters;
    assert!(
        !tcp_counters.is_empty(),
        "worker runners emit at least one counter"
    );
    assert_eq!(
        tcp_counters, spool_counters,
        "merged worker counters must not depend on the transport"
    );
}

#[test]
fn hardware_default_threads_match_across_transports() {
    // `threads_per_worker(0)` means one engine thread per hardware
    // thread inside every worker, whichever transport carries it. Steals
    // are scheduling-dependent and not compared.
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .threads_per_worker(0);
    let in_process = Cluster::new(InProcess::new(), config).run(&corpus);
    let tcp = run_cluster(
        TcpTransport::bind().expect("loopback listener"),
        config,
        &corpus,
        None,
    );
    let reference = Runner::serial().run(&corpus);
    for report in [&in_process, &tcp] {
        assert_eq!(reference.outcomes, report.outcomes);
        assert_golden(&corpus, &report.outcomes);
    }
    let totals = |report: &ClusterReport| BatchTotals {
        steals: 0,
        ..report.stats.totals()
    };
    assert_eq!(totals(&in_process), totals(&tcp));
    let rows = |report: &ClusterReport| -> Vec<usize> {
        report.shards.iter().map(|s| s.per_worker.len()).collect()
    };
    assert_eq!(
        rows(&in_process),
        rows(&tcp),
        "per-shard worker rows must not depend on the transport"
    );
}

#[test]
fn tcp_worker_killed_mid_shard_recovers_on_survivor() {
    enable_telemetry_once();
    let requeues_before = counter("dist.requeue");
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = TcpTransport::bind().expect("loopback listener");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::Crash,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "tcp crash recovery");
    assert!(
        report.requeues >= 1,
        "the killed worker's shard must requeue"
    );
    assert!(report.recovered.is_empty(), "the survivor absorbs the work");
    assert!(
        counter("dist.requeue") > requeues_before,
        "dist.requeue must advance"
    );
}

#[test]
fn tcp_worker_heartbeat_stall_trips_the_liveness_window() {
    enable_telemetry_once();
    let misses_before = counter("dist.heartbeat_miss");
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .heartbeat_interval(Duration::from_millis(25))
        .liveness_window(Duration::from_millis(400));
    let transport = TcpTransport::bind().expect("loopback listener");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::StallHeartbeat,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "tcp heartbeat-stall recovery");
    assert!(report.heartbeat_misses >= 1, "the stall must be detected");
    assert!(report.requeues >= 1, "the stalled shard must requeue");
    assert!(
        counter("dist.heartbeat_miss") > misses_before,
        "dist.heartbeat_miss must advance"
    );
}

#[test]
fn stalled_worker_trips_the_shard_deadline_when_liveness_is_lenient() {
    // ClusterConfig::shard_deadline is the cluster's per-shard deadline.
    // With a liveness window too lenient to notice the stall, the
    // deadline alone must requeue.
    let corpus = cheap_corpus();
    let config = ClusterConfig::new()
        .workers(2)
        .shards(4)
        .heartbeat_interval(Duration::from_millis(25))
        .liveness_window(Duration::from_secs(30))
        .shard_deadline(Duration::from_millis(600));
    let transport = TcpTransport::bind().expect("loopback listener");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::StallHeartbeat,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "deadline-based recovery");
    assert!(report.requeues >= 1, "the deadline must requeue the shard");
    assert_eq!(
        report.heartbeat_misses, 0,
        "a 30 s liveness window must not fire first"
    );
}

#[test]
fn spool_corrupt_result_is_requeued() {
    enable_telemetry_once();
    let requeues_before = counter("dist.requeue");
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = SpoolTransport::ephemeral().expect("spool dir");
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::CorruptResult,
    };
    let report = run_cluster(transport, config, &corpus, Some(fault));
    assert_matches_serial(&corpus, &report, "spool corrupt-result recovery");
    assert!(report.requeues >= 1, "the corrupt result must requeue");
    assert!(report.recovered.is_empty());
    assert!(
        counter("dist.requeue") > requeues_before,
        "dist.requeue must advance"
    );
}

#[test]
fn in_process_crash_recovers_on_survivor() {
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let fault = DistFault {
        worker: 0,
        mode: FaultMode::Crash,
    };
    let report = Cluster::new(InProcess::new(), config)
        .with_fault(fault)
        .run(&corpus);
    assert_matches_serial(&corpus, &report, "in-process crash recovery");
    assert!(report.requeues >= 1);
}

#[test]
fn unlaunchable_fleet_degrades_to_local_evaluation() {
    let corpus = cheap_corpus();
    let config = ClusterConfig::new().workers(2).shards(4);
    let transport = TcpTransport::bind().expect("loopback listener");
    let report = Cluster::new(transport, config)
        .with_worker_binary("/nonexistent/dist_worker")
        .run(&corpus);
    assert_matches_serial(&corpus, &report, "local degradation");
    assert_eq!(
        report.recovered.len(),
        4,
        "every shard is recovered in-process"
    );
    assert!(report.placements.iter().all(|p| p.worker.is_none()));
}
