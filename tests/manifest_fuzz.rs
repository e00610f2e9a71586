//! Fuzz-style hardening of the manifest wire format.
//!
//! The cluster scheduler feeds worker-supplied bytes straight into
//! `parse_manifest` / `parse_outcomes`, so a corrupt spool file or a
//! torn TCP frame must never be able to panic the process — parsing is
//! **total**: every input either decodes or returns an error.
//!
//! Strategy (vendored proptest has no tuple strategies, so each case
//! draws one `u64` seed and expands it with ChaCha8): take a valid
//! manifest and a valid outcome file, apply random byte mutations —
//! overwrites, truncations, splices — and parse the lossy-UTF-8 result.
//! A separate case parses pure random bytes. The unmutated texts must
//! keep round-tripping, pinning that the hardening did not reject valid
//! input.
//!
//! The hand-written decoder is also checked against the single field
//! walk that writes records: random scenarios of all six families and
//! random outcomes of all six variants must decode and re-encode to the
//! same bytes.

mod common;

use std::sync::OnceLock;

use common::random_policy;
use micronano::core::runner::manifest::{
    decode_outcome, decode_scenario, encode_outcome, encode_scenario, parse_manifest,
    parse_outcomes, write_manifest, write_outcomes,
};
use micronano::core::runner::{
    conformance_corpus, AssayKind, FluidicsScenario, GrnModel, HarvestScenario, KnockoutScenario,
    LabChipScenario, NocScenario, Runner, Scenario, ScenarioOutcome, ShardId, WsnScenario,
};
use micronano::noc::graph::{CommGraph, Flow};
use micronano::policy::PolicyAssignment;
use micronano::wsn::protocol::Protocol;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A valid manifest over the full corpus (cheap: no evaluation).
fn base_manifest() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let corpus = conformance_corpus(42);
        let entries: Vec<(usize, &Scenario)> = corpus.iter().enumerate().collect();
        write_manifest(ShardId(3), &entries)
    })
}

/// A valid outcome file over a cheap corpus subset (evaluated once).
fn base_outcomes() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let corpus: Vec<Scenario> = conformance_corpus(42)
            .into_iter()
            .filter(|s| matches!(s, Scenario::Knockout(_) | Scenario::Harvest(_)))
            .take(6)
            .collect();
        let mut report = Runner::serial().run(&corpus);
        report.stats.shard = ShardId(3);
        let pairs: Vec<(usize, ScenarioOutcome)> = (0..corpus.len()).zip(report.outcomes).collect();
        write_outcomes(&report.stats, &pairs)
    })
}

/// A float for a field decode passes through unvalidated: often NaN,
/// ±inf or −0.0, otherwise an ordinary value of either sign.
fn wild_f64(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..6u8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => rng.gen_range(-1e3..1e3),
    }
}

fn random_assay(rng: &mut ChaCha8Rng) -> AssayKind {
    match rng.gen_range(0..5u8) {
        0 => AssayKind::Multiplex,
        1 => AssayKind::SerialDilution,
        2 => AssayKind::Washing {
            wash_steps: rng.gen_range(0..8),
        },
        3 => AssayKind::MixingTree {
            fanin: rng.gen_range(0..8),
        },
        _ => AssayKind::DilutionGradient,
    }
}

/// A random valid communication graph: endpoints in range, no
/// self-loops, positive rates (the invariants decode enforces).
fn random_graph(rng: &mut ChaCha8Rng) -> CommGraph {
    let cores = rng.gen_range(2..12usize);
    let flows = (0..rng.gen_range(0..8usize))
        .map(|_| {
            let src = rng.gen_range(0..cores);
            let dst = (src + rng.gen_range(1..cores)) % cores;
            let rate = if rng.gen_range(0..8u8) == 0 {
                f64::INFINITY
            } else {
                rng.gen_range(1e-3..4.0)
            };
            Flow { src, dst, rate }
        })
        .collect();
    CommGraph::new(cores, flows)
}

fn random_knockout(rng: &mut ChaCha8Rng) -> Option<String> {
    match rng.gen_range(0..5u8) {
        0 => None,
        1 => Some(String::new()),
        2 => Some("two words".to_owned()),
        3 => Some("β-catenin".to_owned()),
        _ => Some(format!("GENE{}", rng.gen_range(0..100u32))),
    }
}

/// A random WSN scenario; two in three carry a policy assignment.
fn random_wsn(rng: &mut ChaCha8Rng) -> Scenario {
    Scenario::WsnLifetime(WsnScenario {
        nodes: rng.gen_range(0..80),
        side: wild_f64(rng),
        protocol: match rng.gen_range(0..3u8) {
            0 => Protocol::Direct,
            1 => Protocol::Tree {
                radio_range: wild_f64(rng),
                aggregate: rng.gen(),
            },
            _ => Protocol::Cluster {
                p: wild_f64(rng),
                aggregate: rng.gen(),
            },
        },
        failure_rate: wild_f64(rng),
        max_rounds: rng.gen(),
        seed: rng.gen(),
        policies: match rng.gen_range(0..3u8) {
            0 => None,
            1 => Some(PolicyAssignment::Uniform(random_policy(rng, 0))),
            _ => Some(PolicyAssignment::RoundRobin(
                (0..rng.gen_range(1..5usize))
                    .map(|_| random_policy(rng, 0))
                    .collect(),
            )),
        },
    })
}

fn random_harvest(rng: &mut ChaCha8Rng) -> Scenario {
    Scenario::Harvest(HarvestScenario {
        policy: random_policy(rng, 0),
        days: rng.gen(),
        cloudiness: wild_f64(rng),
        seed: rng.gen(),
    })
}

/// A harvest or WSN scenario: the families whose records carry policy
/// expressions, so most mutations land in the policy decoder.
fn random_policy_scenario(rng: &mut ChaCha8Rng) -> Scenario {
    if rng.gen() {
        random_harvest(rng)
    } else {
        random_wsn(rng)
    }
}

/// A random scenario of any of the six families, with every field the
/// decoder accepts as-is drawn wide: negative grid sides, NaN/±inf/−0.0
/// floats, arbitrary seeds and whorls, awkward knockout names.
fn random_scenario(rng: &mut ChaCha8Rng) -> Scenario {
    match rng.gen_range(0..6u8) {
        0 => Scenario::FluidicsCompile(FluidicsScenario {
            assay: random_assay(rng),
            plex: rng.gen_range(0..6),
            grid_side: rng.gen_range(-32..64),
            dead_fraction: wild_f64(rng),
            fault_seed: rng.gen(),
        }),
        1 => Scenario::LabChip(LabChipScenario {
            assay: random_assay(rng),
            seed: rng.gen(),
            samples_per_run: rng.gen_range(0..8),
            dead_fraction: wild_f64(rng),
            fault_seed: rng.gen(),
        }),
        2 => Scenario::NocPoint(NocScenario {
            app: random_graph(rng),
            max_cluster: rng.gen_range(0..9),
            shortcuts: rng.gen_range(0..9),
        }),
        3 => random_wsn(rng),
        4 => random_harvest(rng),
        _ => Scenario::Knockout(KnockoutScenario {
            model: if rng.gen() {
                GrnModel::THelper
            } else {
                GrnModel::Arabidopsis { whorl: rng.gen() }
            },
            knockout: random_knockout(rng),
        }),
    }
}

/// A random outcome of any of the six variants.
fn random_outcome(rng: &mut ChaCha8Rng) -> ScenarioOutcome {
    match rng.gen_range(0..6u8) {
        0 => ScenarioOutcome::Fluidics {
            compiled: rng.gen(),
            makespan: rng.gen(),
            moves: rng.gen(),
            stalls: rng.gen(),
            energy: rng.gen(),
            reroutes: rng.gen(),
            abandoned: rng.gen(),
        },
        1 => ScenarioOutcome::LabChip {
            ok: rng.gen(),
            makespan: rng.gen(),
            energy: rng.gen(),
            sensing_error: wild_f64(rng),
            biclusters: rng.gen(),
            recovery: wild_f64(rng),
            relevance: wild_f64(rng),
            samples_dropped: rng.gen(),
        },
        2 => ScenarioOutcome::Noc {
            feasible: rng.gen(),
            weighted_hops: wild_f64(rng),
            energy: wild_f64(rng),
            area: wild_f64(rng),
            deadlock_free: rng.gen(),
        },
        3 => ScenarioOutcome::Wsn {
            first_death: rng.gen(),
            half_death: rng.gen(),
            rounds: rng.gen(),
            sensed: rng.gen(),
            delivered: rng.gen(),
            avg_coverage: wild_f64(rng),
            energy_spent: wild_f64(rng),
        },
        4 => ScenarioOutcome::Harvest {
            work: wild_f64(rng),
            dead_slots: rng.gen(),
            total_slots: rng.gen(),
            wasted: wild_f64(rng),
            harvested: wild_f64(rng),
            final_battery: wild_f64(rng),
        },
        _ => ScenarioOutcome::Knockout {
            fixed_points: (0..rng.gen_range(0..6usize)).map(|_| rng.gen()).collect(),
            annotation: random_knockout(rng).unwrap_or_default(),
        },
    }
}

/// Applies `count` random mutations — overwrite, truncate or splice —
/// and returns the result as lossy UTF-8. A hex-digit overwrite keeps
/// float and integer tokens well-formed, so the record may still decode
/// with a changed value.
fn mutate(text: &str, rng: &mut ChaCha8Rng, count: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..count {
        if bytes.is_empty() {
            break;
        }
        match rng.gen_range(0..5u8) {
            0 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen::<u8>();
            }
            1 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = b"0123456789abcdef"[rng.gen_range(0..16)];
            }
            2 => {
                let at = rng.gen_range(0..bytes.len());
                bytes.truncate(at);
            }
            3 => {
                let at = rng.gen_range(0..=bytes.len());
                let extra: Vec<u8> = (0..rng.gen_range(1..16usize))
                    .map(|_| rng.gen::<u8>())
                    .collect();
                bytes.splice(at..at, extra);
            }
            _ => {
                let at = rng.gen_range(0..bytes.len());
                bytes.remove(at);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feeds one text to every parser in the wire format; only the return
/// values matter — nothing here may panic.
fn parse_everything(text: &str) {
    let _ = parse_manifest(text);
    let _ = parse_outcomes(text);
    for line in text.lines().take(64) {
        let _ = decode_scenario(line);
        let _ = decode_outcome(line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_manifests_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let count = rng.gen_range(1..24usize);
        parse_everything(&mutate(base_manifest(), &mut rng, count));
    }

    #[test]
    fn mutated_outcome_files_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let count = rng.gen_range(1..24usize);
        parse_everything(&mutate(base_outcomes(), &mut rng, count));
    }

    #[test]
    fn random_bytes_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = rng.gen_range(0..512usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        parse_everything(&String::from_utf8_lossy(&bytes));
    }

    // Scenario records survive arbitrary byte mutations: the decoder
    // either returns an error or a *validated* scenario — it must never
    // panic and never accept a policy that fails validation. Each case
    // mutates one policy-bearing record lightly, so it often still
    // decodes and reaches the policy checks, and one of any family
    // heavily.
    #[test]
    fn mutated_policy_records_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let records = [
            (encode_scenario(&random_policy_scenario(&mut rng)), 4),
            (encode_scenario(&random_scenario(&mut rng)), 16),
        ];
        for (record, max_mutations) in &records {
            let count = rng.gen_range(1..*max_mutations);
            let mutated = mutate(record, &mut rng, count);
            if let Ok(scenario) = decode_scenario(&mutated) {
                match &scenario {
                    Scenario::Harvest(h) => assert!(h.policy.validate().is_ok()),
                    Scenario::WsnLifetime(w) => {
                        if let Some(a) = &w.policies {
                            assert!(a.validate().is_ok());
                        }
                    }
                    _ => {}
                }
            }
            parse_everything(&mutated);
        }
    }

    // Garbage spliced specifically into the policy-token tail of a
    // record (the part after the scenario discriminant) never panics.
    #[test]
    fn garbage_policy_tails_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let record = encode_scenario(&random_policy_scenario(&mut rng));
        let mut cut = rng.gen_range(0..=record.len());
        while !record.is_char_boundary(cut) {
            cut -= 1;
        }
        let tail_len = rng.gen_range(0..24usize);
        let tokens = ["fixed", "greedy", "neutral", "forecast", "derate", "hyst",
                      "sched", "clamp", "policies", "uniform", "mix", "nan", "inf",
                      "-1", "0.5", "1e308", "99999999999999999999", ""];
        let mut garbled = record[..cut].to_owned();
        for _ in 0..tail_len {
            garbled.push(' ');
            garbled.push_str(tokens[rng.gen_range(0..tokens.len())]);
        }
        let _ = decode_scenario(&garbled);
        parse_everything(&garbled);
    }

    // Unmutated records of every scenario family and outcome variant
    // round-trip: decode then re-encode reproduces the exact wire bytes,
    // the fingerprint or digest is unchanged, and decoded scenarios are
    // equal in value (compared through `Debug`, so a NaN field matches
    // itself).
    #[test]
    fn policy_records_round_trip_byte_identically(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scenario = random_scenario(&mut rng);
        let record = encode_scenario(&scenario);
        let decoded = decode_scenario(&record)
            .unwrap_or_else(|m| panic!("valid record `{record}` failed to decode: {m}"));
        prop_assert_eq!(
            encode_scenario(&decoded),
            record,
            "re-encoding drifted from the original wire bytes"
        );
        prop_assert_eq!(decoded.fingerprint(), scenario.fingerprint());
        prop_assert_eq!(format!("{decoded:?}"), format!("{scenario:?}"));

        let outcome = random_outcome(&mut rng);
        let record = encode_outcome(&outcome);
        let decoded = decode_outcome(&record)
            .unwrap_or_else(|m| panic!("valid record `{record}` failed to decode: {m}"));
        prop_assert_eq!(
            encode_outcome(&decoded),
            record,
            "re-encoding drifted from the original wire bytes"
        );
        prop_assert_eq!(decoded.digest(), outcome.digest());
    }
}

#[test]
fn unmutated_bases_still_round_trip() {
    let (shard, entries) = parse_manifest(base_manifest()).expect("valid manifest parses");
    assert_eq!(shard, ShardId(3));
    assert_eq!(entries.len(), conformance_corpus(42).len());
    let (stats, outcomes) = parse_outcomes(base_outcomes()).expect("valid outcomes parse");
    assert_eq!(stats.shard, ShardId(3));
    assert_eq!(outcomes.len(), 6);
}
