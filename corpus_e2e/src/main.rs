//! `corpus_e2e` — end-to-end sweep benchmark for the micronano kit.
//!
//! ```sh
//! corpus_e2e --workload ladders|corpus_tcp --seed N \
//!            --seconds S --trace 0|1 [--worker-bin PATH]
//! corpus_e2e --write-expected DIR
//! ```
//!
//! A closed loop: one client submits the next batch only after the
//! previous one returned. `--trace 0` times the workload with telemetry
//! off and prints the end-to-end metrics; `--trace 1` is the separate
//! traced run that prints the per-layer metrics. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
mod workloads;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use micronano::core::runner::manifest::{
    parse_manifest, parse_outcomes, write_manifest, write_outcomes,
};
use micronano::core::runner::{
    BatchStats, ClusterConfig, Digest, RunnerConfig, Scenario, ScenarioOutcome, ShardPlan,
};
use micronano::dist::{Cluster, ClusterReport, TcpTransport};
use micronano::telemetry::{self, SpanNode, WallClock};

use layers::{run_layered, LayerTimes};
use workloads::{warmup_set, Workload, DEFAULT_SEED};

/// Parallelism of every parallel pass: 2 `Runner` workers, or 2
/// `dist_worker` children × 1 thread (the `ClusterConfig` default).
const WORKERS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// A timed run stops at this multiple of `--seconds` even if a pass is
/// still short of samples.
const HARD_STOP: f64 = 1.3;
/// Repetitions of the microsecond-scale codec and fingerprint timings.
const CODEC_REPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker_bin: Option<PathBuf>,
}

/// Per-workload measurement plan. Each tail percentile is fixed so that a
/// metric means the same thing on every commit; a phase keeps going until
/// it holds at least ten samples beyond its tail percentile.
struct Plan {
    /// Share of `--seconds` given to the serial pass.
    serial_share: f64,
    /// Percentile reported as `batch_ms.tail`.
    batch_tail: f64,
    /// Percentile reported as `scenario_ms.tail`.
    scenario_tail: f64,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::CorpusTcp => Plan {
            serial_share: 0.3,
            batch_tail: 90.0,
            scenario_tail: 99.0,
        },
        // Five sweeps of well-separated cost (see `workloads::ladders`).
        // A serial cycle takes about 3 s, so the serial pass needs a large
        // share for its samples to cover the run.
        Workload::Ladders => Plan {
            serial_share: 0.45,
            batch_tail: 75.0,
            scenario_tail: 75.0,
        },
    }
}

/// Samples needed for ten to lie beyond percentile `p`.
fn samples_for(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).ceil() as usize
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut worker_bin = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value()? == "1",
            "--worker-bin" => worker_bin = Some(PathBuf::from(value()?)),
            "--write-expected" => {
                write_expected(&PathBuf::from(value()?)).map_err(|e| e.to_string())?;
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        worker_bin,
    })
}

/// Regenerates `expected/ladders.txt` at the default seed.
fn write_expected(dir: &std::path::Path) -> std::io::Result<()> {
    let mut text = format!(
        "# ladders at seed {DEFAULT_SEED}: `label digest` per scenario, from Scenario::run.\n"
    );
    for scenario in Workload::Ladders.cycle(DEFAULT_SEED).iter().flatten() {
        text.push_str(&format!(
            "{} {}\n",
            scenario.label(),
            scenario.run().digest()
        ));
    }
    std::fs::write(dir.join("ladders.txt"), text)
}

// ---------------------------------------------------------------------------
// Statistics

/// Percentile `p` (0–100) of `values` by the exclusive method of Python's
/// `statistics.quantiles`, clamped to the sample range.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let h = (p / 100.0 * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo - 1] + (h - lo as f64) * (v[hi - 1] - v[lo - 1])
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Mean of the middle half of `values`: the batch-time centre. Cluster
/// batch times are bimodal (a finished shard is noticed on the next
/// heartbeat tick), and with the mix near half and half a median jumps
/// from one mode to the other between runs; this mean moves with the mix.
fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Correctness accounting

/// Reference digests per batch position, and the running tally.
struct Checker {
    reference: Vec<Vec<Option<Digest>>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    /// Looks every scenario up in the pinned digests; a scenario without
    /// one (`None`) fails every time it runs.
    fn new(cycle: &[Vec<Scenario>], expected: &HashMap<String, Digest>) -> Checker {
        let reference = cycle
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|s| expected.get(&s.label()).copied())
                    .collect()
            })
            .collect();
        Checker {
            reference,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Number of wrong or missing outcomes in one batch. `None` means the
    /// batch panicked: every scenario of it failed.
    fn mismatches(reference: &[Option<Digest>], digests: Option<&[Option<Digest>]>) -> u64 {
        let Some(digests) = digests else {
            return reference.len() as u64;
        };
        let wrong = reference
            .iter()
            .zip(digests)
            .filter(|(want, got)| want.is_none() || got.is_none() || want != got)
            .count();
        (wrong + reference.len().saturating_sub(digests.len())) as u64
    }

    fn record(&mut self, what: &str, batch: usize, digests: Option<&[Option<Digest>]>) -> u64 {
        let reference = &self.reference[batch];
        let failed = Self::mismatches(reference, digests);
        self.attempted += reference.len() as u64;
        self.failed += failed;
        if failed > 0 && self.problems.len() < 8 {
            self.problems.push(format!(
                "{what}: batch {batch}: {failed} wrong or missing outcomes"
            ));
        }
        failed
    }
}

fn digests(outcomes: &[ScenarioOutcome]) -> Vec<Option<Digest>> {
    outcomes.iter().map(|o| Some(o.digest())).collect()
}

// ---------------------------------------------------------------------------
// Passes

/// One serial pass over a batch on a freshly spawned thread, so thread-
/// local caches start cold exactly as in a fresh `Runner`'s workers.
/// Returns per-scenario wall times and outcomes (`None` = panicked).
fn serial_batch(batch: &[Scenario]) -> (Vec<f64>, Vec<Option<ScenarioOutcome>>) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                batch
                    .iter()
                    .map(|s| {
                        let t0 = Instant::now();
                        let outcome = catch_unwind(AssertUnwindSafe(|| s.run())).ok();
                        (ms(t0.elapsed()), outcome)
                    })
                    .unzip()
            })
            .join()
            .expect("serial pass thread")
    })
}

/// One batch through a fresh 2-worker `Runner`. `None` = panicked.
fn runner_batch(batch: &[Scenario]) -> (f64, Option<BatchStats>, Option<Vec<ScenarioOutcome>>) {
    let t0 = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        RunnerConfig::new().workers(WORKERS).build().run(batch)
    }));
    let wall = ms(t0.elapsed());
    match report {
        Ok(r) => (wall, Some(r.stats), Some(r.outcomes)),
        Err(_) => (wall, None, None),
    }
}

/// One batch through a fresh `Cluster` over TCP (default config: 2
/// `dist_worker` children × 1 thread, 4 round-robin shards).
fn cluster_batch(batch: &[Scenario], worker_bin: Option<&PathBuf>) -> (f64, Option<ClusterReport>) {
    let t0 = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        let transport = TcpTransport::bind().expect("bind loopback listener");
        let mut cluster = Cluster::new(transport, ClusterConfig::default());
        if let Some(bin) = worker_bin {
            cluster = cluster.with_worker_binary(bin);
        }
        cluster.run(batch)
    }));
    (ms(t0.elapsed()), report.ok())
}

// ---------------------------------------------------------------------------
// Set-up

struct Setup {
    cycle: Vec<Vec<Scenario>>,
    expected: HashMap<String, Digest>,
}

/// Generates the inputs, loads their reference digests, fingerprints
/// them and warms the code paths up (for `corpus_tcp`, also binds a
/// transport and runs the warm-up set through a cluster).
fn set_up(args: &Args) -> (Setup, f64) {
    let t0 = Instant::now();
    let cycle = args.workload.cycle(args.seed);
    let expected = args.workload.expected();
    let fingerprints: u64 = cycle
        .iter()
        .flatten()
        .fold(0, |acc, s| acc ^ s.fingerprint());
    std::hint::black_box(fingerprints);
    let warm = warmup_set(&cycle);
    for s in &warm {
        std::hint::black_box(s.run());
    }
    if args.workload == Workload::CorpusTcp {
        let (_, report) = cluster_batch(&warm, args.worker_bin.as_ref());
        std::hint::black_box(report);
    }
    (Setup { cycle, expected }, t0.elapsed().as_secs_f64())
}

/// Generator and checker self-checks; returns the problems found.
fn self_checks(args: &Args, setup: &Setup, first_pass: &[Vec<Option<Digest>>]) -> Vec<String> {
    let mut problems = Vec::new();
    let fingerprints = |cycle: &[Vec<Scenario>]| -> Vec<u64> {
        cycle.iter().flatten().map(Scenario::fingerprint).collect()
    };
    let mine = fingerprints(&setup.cycle);
    if fingerprints(&args.workload.cycle(args.seed)) != mine {
        problems.push("generator: the same seed gave different scenarios".to_owned());
    }
    // `ladders` must submit a different sequence at the next seed.
    let other = fingerprints(&args.workload.cycle(args.seed.wrapping_add(1)));
    if args.workload == Workload::Ladders && other == mine {
        problems.push("generator: a different seed gave the same batches".to_owned());
    }
    let mut labels: Vec<String> = setup.cycle.iter().flatten().map(Scenario::label).collect();
    let n = labels.len();
    labels.sort();
    labels.dedup();
    if labels.len() != n {
        problems.push("generator: scenario labels are not unique".to_owned());
    }
    if setup.expected.len() != n {
        problems.push(format!(
            "reference: {} pinned digests for {n} scenarios",
            setup.expected.len()
        ));
    }
    // A flipped digest must be caught and counted as exactly one failure.
    if let Some((batch, digests)) = first_pass.iter().enumerate().find(|(_, d)| !d.is_empty()) {
        let mut flipped = digests.clone();
        flipped[0] = flipped[0].map(|Digest(d)| Digest(d ^ 1));
        if Checker::mismatches(digests, Some(&flipped)) != 1 {
            problems.push(format!(
                "checker: a flipped digest in batch {batch} was not counted"
            ));
        }
    }
    problems
}

// ---------------------------------------------------------------------------
// The timed run (--trace 0)

struct Measured {
    metrics: Vec<(&'static str, f64, &'static str)>,
    checker: Checker,
}

fn timed_run(args: &Args) -> Measured {
    let plan = plan(args.workload);
    let setups: Vec<(Setup, f64)> = (0..SETUPS).map(|_| set_up(args)).collect();
    let setup_s = median(&setups.iter().map(|(_, t)| *t).collect::<Vec<_>>());
    let setup = setups.into_iter().next().expect("at least one set-up").0;
    let cycle = &setup.cycle;
    let batches = cycle.len();
    let mut checker = Checker::new(cycle, &setup.expected);
    let budget = Duration::from_secs_f64(args.seconds);
    let hard_stop = budget.mul_f64(HARD_STOP);
    let start = Instant::now();

    // The serial pass (`Scenario::run` once per scenario, each batch on a
    // fresh thread) and the parallel pass (a fresh runner or cluster per
    // batch) alternate batch by batch, the serial pass held near its share
    // of the time, so that both sample the whole run: the host's speed
    // drifts over stretches of seconds.
    let tcp = args.workload == Workload::CorpusTcp;
    let scenarios: usize = cycle.iter().map(Vec::len).sum();
    let serial_needed = samples_for(plan.scenario_tail);
    let batch_needed = samples_for(plan.batch_tail);
    let mut scenario_ms: Vec<f64> = Vec::new();
    let mut batch_ms: Vec<f64> = Vec::new();
    let mut first_pass: Vec<Vec<Option<Digest>>> = Vec::new();
    let (mut serial_ok, mut parallel_ok) = (0u64, 0u64);
    let (mut serial_wall, mut parallel_wall) = (0.0, 0.0);
    let (mut serial_next, mut parallel_next) = (0usize, 0usize);
    loop {
        // Each pass ends on a cycle boundary, so every position of the
        // cycle weighs the same in its percentiles.
        let serial_short = serial_next % batches != 0
            || serial_next == 0
            || serial_next / batches * scenarios < serial_needed;
        let parallel_short =
            parallel_next % batches != 0 || parallel_next == 0 || parallel_next < batch_needed;
        let elapsed = start.elapsed();
        if !serial_short && !parallel_short && elapsed >= budget {
            break;
        }
        if elapsed >= hard_stop && serial_next >= batches && parallel_next >= batches {
            break;
        }
        let serial_turn = if elapsed >= budget {
            serial_short
        } else {
            serial_wall <= plan.serial_share * (serial_wall + parallel_wall)
        };
        if serial_turn {
            let i = serial_next % batches;
            let t0 = Instant::now();
            let (times, outcomes) = serial_batch(&cycle[i]);
            serial_wall += ms(t0.elapsed());
            scenario_ms.extend(times);
            let got: Vec<Option<Digest>> = outcomes
                .iter()
                .map(|o| o.as_ref().map(ScenarioOutcome::digest))
                .collect();
            serial_ok += cycle[i].len() as u64 - checker.record("serial", i, Some(&got));
            if first_pass.len() == i {
                first_pass.push(got);
            }
            serial_next += 1;
        } else {
            let i = parallel_next % batches;
            let batch = &cycle[i];
            let (wall, got) = if tcp {
                let (wall, report) = cluster_batch(batch, args.worker_bin.as_ref());
                // A cluster that recovered shards in-process did not
                // measure the transport.
                if report.as_ref().is_some_and(|r| !r.recovered.is_empty()) {
                    checker
                        .problems
                        .push("cluster fell back to in-process recovery".to_owned());
                }
                if report.as_ref().is_some_and(|r| r.stats.cache_hits != 0) {
                    checker
                        .problems
                        .push("cluster served outcomes from a cache".to_owned());
                }
                (wall, report.map(|r| digests(&r.outcomes)))
            } else {
                let (wall, stats, outcomes) = runner_batch(batch);
                if stats.is_some_and(|s| s.cache_hits != 0) {
                    checker
                        .problems
                        .push("runner served outcomes from a cache".to_owned());
                }
                (wall, outcomes.map(|o| digests(&o)))
            };
            parallel_wall += wall;
            batch_ms.push(wall);
            let what = if tcp { "cluster" } else { "runner" };
            parallel_ok += batch.len() as u64 - checker.record(what, i, got.as_deref());
            parallel_next += 1;
        }
    }

    for problem in self_checks(args, &setup, &first_pass) {
        checker.problems.push(problem);
    }

    println!(
        "batch_ms: n={} p50={:.3} iqm={:.3} p{}={:.3} (tail needs n>={batch_needed}) after {:.1} s",
        batch_ms.len(),
        median(&batch_ms),
        interquartile_mean(&batch_ms),
        plan.batch_tail,
        percentile(&batch_ms, plan.batch_tail),
        start.elapsed().as_secs_f64()
    );
    println!(
        "scenario_ms: n={} p50={:.4} p{}={:.3} (tail needs n>={serial_needed})",
        scenario_ms.len(),
        median(&scenario_ms),
        plan.scenario_tail,
        percentile(&scenario_ms, plan.scenario_tail)
    );
    let metrics = vec![
        (
            "scenarios_per_s",
            parallel_ok as f64 / (parallel_wall / 1e3),
            "1/s",
        ),
        ("batch_ms.iqm", interquartile_mean(&batch_ms), "ms"),
        (
            "batch_ms.tail",
            percentile(&batch_ms, plan.batch_tail),
            "ms",
        ),
        (
            "serial_scenarios_per_s",
            serial_ok as f64 / (serial_wall / 1e3),
            "1/s",
        ),
        ("scenario_ms.p50", median(&scenario_ms), "ms"),
        (
            "scenario_ms.tail",
            percentile(&scenario_ms, plan.scenario_tail),
            "ms",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Measured { metrics, checker }
}

// ---------------------------------------------------------------------------
// The traced run (--trace 1)

/// Self time and span count by span name, over a forest.
fn fold_spans(nodes: &[SpanNode], into: &mut BTreeMap<&'static str, (u64, u64)>) {
    for node in nodes {
        let entry = into.entry(node.name).or_default();
        entry.0 += node.self_ns();
        entry.1 += 1;
        fold_spans(&node.children, into);
    }
}

/// What one traced layer pass over the cycle recorded.
#[derive(Default)]
struct LayerPass {
    times: LayerTimes,
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<&'static str, (u64, u64)>,
    per_batch: Vec<BTreeMap<String, u64>>,
}

/// One traced pass through the layered evaluator, each batch on a fresh
/// thread with the telemetry registry reset before it.
fn layer_pass(cycle: &[Vec<Scenario>], checker: &mut Checker) -> LayerPass {
    let mut pass = LayerPass::default();
    for (i, batch) in cycle.iter().enumerate() {
        telemetry::reset();
        let times = &mut pass.times;
        let outcomes: Vec<Option<Digest>> = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    batch
                        .iter()
                        .map(|s| {
                            catch_unwind(AssertUnwindSafe(|| run_layered(s, times).digest())).ok()
                        })
                        .collect()
                })
                .join()
                .expect("layer pass thread")
        });
        checker.record("layers", i, Some(&outcomes));
        let snapshot = telemetry::snapshot();
        fold_spans(&telemetry::take_trace().roots, &mut pass.spans);
        for (name, value) in &snapshot.counters {
            *pass.counters.entry(name.clone()).or_default() += value;
        }
        pass.per_batch.push(snapshot.counters);
    }
    telemetry::reset();
    pass
}

/// Runner batches for at least `budget` (whole cycles, at least one).
/// Returns per-batch walls grouped by batch position, stats and the
/// number of correct outcomes.
fn runner_phase(
    cycle: &[Vec<Scenario>],
    budget: Duration,
    checker: &mut Checker,
) -> (Vec<Vec<f64>>, Vec<BatchStats>, u64) {
    let start = Instant::now();
    let mut walls = vec![Vec::new(); cycle.len()];
    let mut stats = Vec::new();
    let mut ok = 0;
    while walls[0].is_empty() || start.elapsed() < budget {
        for (i, batch) in cycle.iter().enumerate() {
            let (wall, s, outcomes) = runner_batch(batch);
            walls[i].push(wall);
            ok += batch.len() as u64
                - checker.record("runner", i, outcomes.map(|o| digests(&o)).as_deref());
            stats.extend(s);
        }
    }
    (walls, stats, ok)
}

fn traced_run(args: &Args) -> Measured {
    let (setup, _) = set_up(args);
    let cycle = &setup.cycle;
    let mut checker = Checker::new(cycle, &setup.expected);
    let budget = Duration::from_secs_f64(args.seconds);

    // Untraced: one serial pass (the per-scenario cost every derived
    // metric divides by), then runner and cluster batches.
    let mut serial: Vec<(Vec<f64>, Vec<Option<ScenarioOutcome>>)> = Vec::new();
    for (i, batch) in cycle.iter().enumerate() {
        let (times, outcomes) = serial_batch(batch);
        let got: Vec<Option<Digest>> = outcomes
            .iter()
            .map(|o| o.as_ref().map(ScenarioOutcome::digest))
            .collect();
        checker.record("serial", i, Some(&got));
        serial.push((times, outcomes));
    }
    let (runner_walls, runner_stats, untraced_ok) =
        runner_phase(cycle, budget.mul_f64(0.3), &mut checker);
    let untraced_rate = untraced_ok as f64 / (runner_walls.iter().flatten().sum::<f64>() / 1e3);

    let start = Instant::now();
    let mut cluster_walls = vec![Vec::new(); cycle.len()];
    let mut cluster_reports: Vec<ClusterReport> = Vec::new();
    while cluster_walls[0].is_empty() || start.elapsed() < budget.mul_f64(0.2) {
        for (i, batch) in cycle.iter().enumerate() {
            let (wall, report) = cluster_batch(batch, args.worker_bin.as_ref());
            cluster_walls[i].push(wall);
            checker.record(
                "cluster",
                i,
                report.as_ref().map(|r| digests(&r.outcomes)).as_deref(),
            );
            if report.as_ref().is_some_and(|r| !r.recovered.is_empty()) {
                checker
                    .problems
                    .push("cluster fell back to in-process recovery".to_owned());
            }
            cluster_reports.extend(report);
        }
    }

    // Fingerprinting and the shard-manifest codec, timed from outside.
    let mut fingerprint_us = Vec::new();
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        let fp = cycle
            .iter()
            .flatten()
            .fold(0u64, |acc, s| acc ^ s.fingerprint());
        fingerprint_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(fp);
    }
    let cluster_config = ClusterConfig::default();
    let (mut encode_us, mut decode_us, mut manifest_bytes) = (Vec::new(), Vec::new(), 0usize);
    let mut critical_shard_ms = 0.0;
    for rep in 0..CODEC_REPS {
        let (mut enc, mut dec, mut bytes) = (Duration::ZERO, Duration::ZERO, 0);
        for (batch, (times, outcomes)) in cycle.iter().zip(&serial) {
            let plan = ShardPlan::split_with(
                batch,
                cluster_config.runner.shards,
                cluster_config.runner.strategy,
            );
            let mut critical: f64 = 0.0;
            for (shard, indices) in plan.iter() {
                critical = critical.max(indices.iter().map(|&i| times[i]).sum());
                let entries: Vec<(usize, &Scenario)> =
                    indices.iter().map(|&i| (i, &batch[i])).collect();
                let pairs: Vec<(usize, ScenarioOutcome)> = indices
                    .iter()
                    .filter_map(|&i| Some((i, outcomes[i].clone()?)))
                    .collect();
                let stats = BatchStats {
                    shard,
                    scenarios: indices.len() as u64,
                    executed: indices.len() as u64,
                    ..BatchStats::default()
                };
                let t0 = Instant::now();
                let manifest = write_manifest(shard, &entries);
                let outcome_text = write_outcomes(&stats, &pairs);
                enc += t0.elapsed();
                let t0 = Instant::now();
                let parsed_manifest = parse_manifest(&manifest);
                let parsed_outcomes = parse_outcomes(&outcome_text);
                dec += t0.elapsed();
                bytes += manifest.len() + outcome_text.len();
                if rep == 0 {
                    let scenarios_back = parsed_manifest.ok().is_some_and(|(_, back)| {
                        back.iter()
                            .map(|(i, s)| (*i, s))
                            .eq(entries.iter().map(|(i, s)| (*i, *s)))
                    });
                    let outcomes_back = parsed_outcomes.ok().is_some_and(|(_, back)| back == pairs);
                    if !scenarios_back || !outcomes_back {
                        checker
                            .problems
                            .push(format!("manifest: shard {shard} did not round-trip"));
                    }
                }
            }
            if rep == 0 {
                critical_shard_ms += critical;
            }
        }
        encode_us.push(enc.as_secs_f64() * 1e6);
        decode_us.push(dec.as_secs_f64() * 1e6);
        manifest_bytes = bytes;
    }

    // Traced: two layer passes, then runner batches with telemetry on.
    telemetry::reset();
    telemetry::enable(Arc::new(WallClock::default()));
    let first = layer_pass(cycle, &mut checker);
    let second = layer_pass(cycle, &mut checker);
    let (traced_walls, _, traced_ok) = runner_phase(cycle, budget.mul_f64(0.3), &mut checker);
    telemetry::disable();
    telemetry::reset();
    let traced_rate = traced_ok as f64 / (traced_walls.iter().flatten().sum::<f64>() / 1e3);

    let names: BTreeSet<&String> = first
        .counters
        .keys()
        .chain(second.counters.keys())
        .collect();
    for name in names {
        let (once, again) = (first.counters.get(name), second.counters.get(name));
        if once != again {
            checker.problems.push(format!(
                "counter {name} did not repeat: {once:?} then {again:?}"
            ));
        }
    }
    let span_counts = |p: &LayerPass| -> Vec<(&'static str, u64)> {
        p.spans.iter().map(|(k, v)| (*k, v.1)).collect()
    };
    if span_counts(&first) != span_counts(&second) {
        checker
            .problems
            .push("span counts did not repeat across traced passes".to_owned());
    }
    for (i, (a, b)) in first.per_batch.iter().zip(&second.per_batch).enumerate() {
        let get = |m: &BTreeMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0);
        println!(
            "batch {i}: interpret_cache_hits {}/{} partition_hits {}/{} lookups {}/{}",
            get(a, "labchip.interpret_cache_hits"),
            get(b, "labchip.interpret_cache_hits"),
            get(a, "noc.partition_hits"),
            get(b, "noc.partition_hits"),
            get(a, "noc.partition_lookups"),
            get(b, "noc.partition_lookups"),
        );
    }

    let count = |name: &str| second.counters.get(name).copied().unwrap_or(0) as f64;
    let self_ms = |name: &str| {
        let a = first.spans.get(name).map_or(0, |v| v.0);
        let b = second.spans.get(name).map_or(0, |v| v.0);
        (a + b) as f64 / 2e6
    };
    let spans_named = |name: &str| second.spans.get(name).map_or(0, |v| v.1) as f64;
    let layer_ms =
        |f: fn(&LayerTimes) -> Duration| (ms(f(&first.times)) + ms(f(&second.times))) / 2.0;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_cycle = |v: f64, n: usize| v / n.max(1) as f64 * cycle.len() as f64;

    let serial_cycle_ms: f64 = serial.iter().flat_map(|(t, _)| t).sum();
    let runner_cycle_ms: f64 = runner_walls.iter().map(|w| median(w)).sum();
    let cluster_cycle_ms: f64 = cluster_walls.iter().map(|w| median(w)).sum();
    let cluster_n = cluster_reports.len();

    let metrics = vec![
        ("fluidics.compile_ms", layer_ms(|t| t.compile), "ms"),
        ("fluidics.schedule_ms", self_ms("fluidics.schedule"), "ms"),
        ("fluidics.route_ms", self_ms("fluidics.route"), "ms"),
        ("fluidics.program_ms", self_ms("fluidics.program"), "ms"),
        (
            "fluidics.route.expansions",
            count("fluidics.route.expansions"),
            "count",
        ),
        (
            "fluidics.route_attempts",
            spans_named("fluidics.route"),
            "count",
        ),
        ("fluidics.reroutes", count("fluidics.reroutes"), "count"),
        (
            "fluidics.abandoned_transports",
            count("fluidics.abandoned_transports"),
            "count",
        ),
        (
            "fluidics.route_success_ratio",
            ratio(
                spans_named("fluidics.program"),
                spans_named("fluidics.route"),
            ),
            "ratio",
        ),
        ("labchip.run_ms", layer_ms(|t| t.labchip_run), "ms"),
        ("labchip.compile_ms", self_ms("labchip.compile"), "ms"),
        ("labchip.sense_ms", self_ms("labchip.sense"), "ms"),
        ("labchip.interpret_ms", self_ms("labchip.interpret"), "ms"),
        (
            "labchip.interpret_cache_hits",
            count("labchip.interpret_cache_hits"),
            "count",
        ),
        (
            "labchip.plex_retries",
            count("labchip.plex_retries"),
            "count",
        ),
        (
            "labchip.zdd_peak_nodes",
            count("labchip.zdd_peak_nodes"),
            "count",
        ),
        (
            "labchip.zdd_cache_hits",
            count("labchip.zdd_cache_hits"),
            "count",
        ),
        ("noc.synthesize_ms", layer_ms(|t| t.noc_synthesize), "ms"),
        ("noc.routes_ms", layer_ms(|t| t.noc_routes), "ms"),
        (
            "noc.partition_hit_ratio",
            ratio(count("noc.partition_hits"), count("noc.partition_lookups")),
            "ratio",
        ),
        ("wsn.lifetime_ms", layer_ms(|t| t.wsn_lifetime), "ms"),
        ("wsn.rounds", count("wsn.rounds"), "count"),
        ("wsn.tree_rebuilds", count("wsn.tree_rebuilds"), "count"),
        ("wsn.harvest_ms", layer_ms(|t| t.wsn_harvest), "ms"),
        ("wsn.policy_evals", count("wsn.policy_evals"), "count"),
        ("grn.knockout_ms", layer_ms(|t| t.grn_knockout), "ms"),
        (
            "runner.idle_frac",
            1.0 - serial_cycle_ms / (WORKERS as f64 * runner_cycle_ms),
            "ratio",
        ),
        (
            "runner.balance",
            runner_stats.iter().map(BatchStats::balance).sum::<f64>()
                / runner_stats.len().max(1) as f64,
            "ratio",
        ),
        (
            "runner.steals",
            per_cycle(
                runner_stats.iter().map(|s| s.steals).sum::<u64>() as f64,
                runner_stats.len(),
            ),
            "count",
        ),
        (
            "runner.deduped",
            per_cycle(
                runner_stats.iter().map(|s| s.deduped).sum::<u64>() as f64,
                runner_stats.len(),
            ),
            "count",
        ),
        (
            "runner.executed",
            per_cycle(
                runner_stats.iter().map(|s| s.executed).sum::<u64>() as f64,
                runner_stats.len(),
            ),
            "count",
        ),
        ("runner.fingerprint_us", median(&fingerprint_us), "us"),
        ("manifest.encode_us", median(&encode_us), "us"),
        ("manifest.decode_us", median(&decode_us), "us"),
        ("manifest.bytes", manifest_bytes as f64, "bytes"),
        (
            "dist.assigned",
            per_cycle(
                cluster_reports.iter().map(|r| r.assigned).sum::<u64>() as f64,
                cluster_n,
            ),
            "count",
        ),
        (
            "dist.requeues",
            per_cycle(
                cluster_reports.iter().map(|r| r.requeues).sum::<u64>() as f64,
                cluster_n,
            ),
            "count",
        ),
        (
            "dist.heartbeat_misses",
            per_cycle(
                cluster_reports
                    .iter()
                    .map(|r| r.heartbeat_misses)
                    .sum::<u64>() as f64,
                cluster_n,
            ),
            "count",
        ),
        (
            "dist.recovered",
            per_cycle(
                cluster_reports
                    .iter()
                    .map(|r| r.recovered.len())
                    .sum::<usize>() as f64,
                cluster_n,
            ),
            "count",
        ),
        ("dist.critical_shard_ms", critical_shard_ms, "ms"),
        ("dist.overhead_ms", cluster_cycle_ms - runner_cycle_ms, "ms"),
        (
            "telemetry.overhead_frac",
            1.0 - traced_rate / untraced_rate,
            "ratio",
        ),
    ];
    Measured { metrics, checker }
}

// ---------------------------------------------------------------------------

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("corpus_e2e: {message}");
            std::process::exit(2);
        }
    };
    println!(
        "corpus_e2e: workload={} seed={} seconds={} trace={} workers={WORKERS}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let measured = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    let checker = &measured.checker;
    for problem in &checker.problems {
        println!("problem: {problem}");
    }
    println!(
        "failed_frac: {} ({} of {} attempted outcomes wrong or missing)",
        checker.failed as f64 / checker.attempted.max(1) as f64,
        checker.failed,
        checker.attempted
    );
    let mut fields = Vec::new();
    for (name, value, unit) in &measured.metrics {
        println!("{name}: {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = checker.failed == 0 && checker.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted.max(1),
        checker.failed,
        fields.join(", ")
    );
}
