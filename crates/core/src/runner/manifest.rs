//! Line-oriented wire format for sharded sweeps.
//!
//! A parent process hands each shard worker a **manifest** — a header,
//! a `#shard <id>` line, then one `<index> <record>` line per scenario,
//! keyed by its *global submission index* — and reads back an **outcome
//! file** with the same framing, the shard's [`BatchStats`] on
//! `#stats`/`#worker` lines, and one `<index> <record>` line per entry.
//! Both are plain UTF-8, one record per line, space-separated tokens:
//!
//! * a record is its family word (`fluidics`, `labchip`, `noc`, `wsn`,
//!   `harvest`, `grn`), then every field in fingerprint (scenarios) or
//!   digest (outcomes) order — the encoder replays the field walk of
//!   [`Scenario::fingerprint`] and [`ScenarioOutcome::digest`];
//! * floats travel as the 16-hex-digit IEEE-754 bit pattern, so
//!   round-trips are exact, NaN payloads included;
//! * strings travel hex-encoded with an `x` prefix (`x` alone is the
//!   empty string), so embedded whitespace cannot break tokenization;
//! * flags travel as `0`/`1`; a WSN record's optional policy assignment
//!   follows a `policies` keyword.
//!
//! The headers carry the version (`v2`), so a worker built for another
//! field order fails at the header instead of misreading fields.
//!
//! Re-encoding a decoded record is the identity for every record the
//! encoder wrote, with fingerprints and digests preserved. The decoder
//! is more lenient (`+5`, uppercase hex and short float hex all parse),
//! so the identity does not hold for every accepted input.
//!
//! Decoding is hand-written and **total**: truncated, mutated or
//! adversarial input returns an error, never panics. It caps policy
//! nesting and pre-allocation and validates NoC flows and policies.
//! `tests/manifest_fuzz.rs` enforces this with random mutations and
//! round-trips random records of every family. For stream transports,
//! manifests can also travel inside length-prefixed [`write_frame`] /
//! [`read_frame`] frames.

use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};

use mns_noc::graph::{CommGraph, Flow};
use mns_policy::{PolicyAssignment, PolicyExpr, MAX_POLICY_DEPTH};
use mns_wsn::protocol::Protocol;

use super::{
    AssayKind, BatchStats, FluidicsScenario, GrnModel, HarvestScenario, KnockoutScenario,
    LabChipScenario, NocScenario, Scenario, ScenarioOutcome, ShardId, Sink, Walk, WorkerBatchStats,
    WsnScenario,
};

/// First line of every shard manifest.
pub const MANIFEST_HEADER: &str = "# mns shard manifest v2";
/// First line of every shard outcome file.
pub const OUTCOMES_HEADER: &str = "# mns shard outcomes v2";

/// A parse failure, with the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line number of the offending record (0 = whole file).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

fn err(line: usize, message: impl Into<String>) -> ManifestError {
    ManifestError {
        line,
        message: message.into(),
    }
}

/// Tokenizer over one record line.
struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens {
            iter: line.split_whitespace(),
        }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.iter
            .next()
            .ok_or_else(|| "unexpected end of record".to_owned())
    }

    /// A decimal integer of the primitive type `T` (`u64`, `usize`, …).
    fn int<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad integer `{t}`"))
    }

    /// Floats travel as 16 hex digits of their IEEE-754 bit pattern.
    fn f64(&mut self) -> Result<f64, String> {
        let t = self.next()?;
        let bits = u64::from_str_radix(t, 16).map_err(|_| format!("bad f64 bits `{t}`"))?;
        Ok(f64::from_bits(bits))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.next()? {
            "0" => Ok(false),
            "1" => Ok(true),
            t => Err(format!("bad bool `{t}` (want 0 or 1)")),
        }
    }

    /// Strings travel hex-encoded with an `x` prefix. Decoding walks
    /// raw bytes — never string slices — so a multibyte character in a
    /// corrupted token cannot split a char boundary and panic.
    fn string(&mut self) -> Result<String, String> {
        let t = self.next()?;
        let hex = t
            .strip_prefix('x')
            .ok_or_else(|| format!("bad string token `{t}` (want x<hex>)"))?
            .as_bytes();
        if hex.len() % 2 != 0 {
            return Err(format!("odd-length string hex `{t}`"));
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for pair in hex.chunks_exact(2) {
            let (hi, lo) = (hex_digit(pair[0]), hex_digit(pair[1]));
            match (hi, lo) {
                (Some(hi), Some(lo)) => bytes.push(hi << 4 | lo),
                _ => return Err(format!("bad string hex `{t}`")),
            }
        }
        String::from_utf8(bytes).map_err(|_| format!("string token `{t}` is not UTF-8"))
    }

    fn done(&mut self) -> Result<(), String> {
        match self.iter.next() {
            None => Ok(()),
            Some(t) => Err(format!("trailing token `{t}`")),
        }
    }

    /// Like [`Tokens::next`], but end-of-record is `None` instead of an
    /// error — for optional record suffixes.
    fn opt_next(&mut self) -> Option<&'a str> {
        self.iter.next()
    }
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Pre-allocation ceiling for untrusted record-declared counts: a
/// corrupted count cannot force a huge (or overflowing) allocation —
/// the element loop runs out of tokens and errors long before the
/// vector ever needs to grow past its real size.
const DECODE_CAPACITY_CAP: usize = 4096;

/// The wire [`Sink`]: space-separated tokens — variant words, decimal
/// integers, floats as 16 hex digits of their bit pattern, strings as
/// `x`-prefixed hex, flags as `0`/`1`.
struct Wire(String);

impl Wire {
    fn encode(value: &impl Walk) -> String {
        let mut w = Wire(String::new());
        value.walk(&mut w);
        w.0
    }

    /// The buffer, ready for the next token: a separator is pushed
    /// unless the record is still empty.
    fn token(&mut self) -> &mut String {
        if !self.0.is_empty() {
            self.0.push(' ');
        }
        &mut self.0
    }
}

impl Sink for Wire {
    fn tag(&mut self, _code: u8, word: &'static str) {
        self.token().push_str(word);
    }

    fn u64(&mut self, v: u64) {
        let _ = write!(self.token(), "{v}");
    }

    fn i64(&mut self, v: i64) {
        let _ = write!(self.token(), "{v}");
    }

    fn f64(&mut self, v: f64) {
        let _ = write!(self.token(), "{:016x}", v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.token().push(if v { '1' } else { '0' });
    }

    fn str(&mut self, s: &str) {
        let out = self.token();
        out.push('x');
        for b in s.bytes() {
            let _ = write!(out, "{b:02x}");
        }
    }

    fn keyword(&mut self, word: &'static str) {
        self.token().push_str(word);
    }
}

/// Decodes the [`AssayKind`] token(s) of the assay walk.
fn decode_assay_kind(t: &mut Tokens) -> Result<AssayKind, String> {
    match t.next()? {
        "multiplex" => Ok(AssayKind::Multiplex),
        "dilution" => Ok(AssayKind::SerialDilution),
        "wash" => Ok(AssayKind::Washing {
            wash_steps: t.int()?,
        }),
        "mixtree" => Ok(AssayKind::MixingTree { fanin: t.int()? }),
        "gradient" => Ok(AssayKind::DilutionGradient),
        k => Err(format!("unknown assay kind `{k}`")),
    }
}

/// Decodes the prefix-notation tokens of the policy walk. Recursion
/// depth is bounded *during* parsing — before any validation pass —
/// so an adversarial record cannot overflow the stack, and the decoded
/// expression is re-validated by the caller at the record boundary.
fn decode_policy(t: &mut Tokens, depth: usize) -> Result<PolicyExpr, String> {
    if depth >= MAX_POLICY_DEPTH {
        return Err(format!("policy nests deeper than {MAX_POLICY_DEPTH}"));
    }
    match t.next()? {
        "fixed" => Ok(PolicyExpr::Fixed(t.f64()?)),
        "greedy" => Ok(PolicyExpr::Greedy {
            threshold: t.f64()?,
            duty_high: t.f64()?,
            duty_low: t.f64()?,
        }),
        "neutral" => Ok(PolicyExpr::EnergyNeutral { alpha: t.f64()? }),
        "forecast" => Ok(PolicyExpr::Forecast { alpha: t.f64()? }),
        "derate" => {
            let fade = t.f64()?;
            let floor = t.f64()?;
            Ok(PolicyExpr::Derate {
                inner: Box::new(decode_policy(t, depth + 1)?),
                fade,
                floor,
            })
        }
        "hyst" => {
            let low = t.f64()?;
            let high = t.f64()?;
            let on = Box::new(decode_policy(t, depth + 1)?);
            let off = Box::new(decode_policy(t, depth + 1)?);
            Ok(PolicyExpr::Hysteresis { low, high, on, off })
        }
        "sched" => {
            let n: usize = t.int()?;
            let mut pieces = Vec::with_capacity(n.min(DECODE_CAPACITY_CAP));
            for _ in 0..n {
                let start = t.int()?;
                pieces.push((start, decode_policy(t, depth + 1)?));
            }
            Ok(PolicyExpr::Scheduled { pieces })
        }
        "clamp" => {
            let lo = t.f64()?;
            let hi = t.f64()?;
            Ok(PolicyExpr::Clamp {
                inner: Box::new(decode_policy(t, depth + 1)?),
                lo,
                hi,
            })
        }
        p => Err(format!("unknown harvest policy `{p}`")),
    }
}

/// Decodes the `uniform <policy>` / `mix <n> <policy>*` suffix.
fn decode_assignment(t: &mut Tokens) -> Result<PolicyAssignment, String> {
    let assignment = match t.next()? {
        "uniform" => PolicyAssignment::Uniform(decode_policy(t, 0)?),
        "mix" => {
            let n: usize = t.int()?;
            let mut ps = Vec::with_capacity(n.min(DECODE_CAPACITY_CAP));
            for _ in 0..n {
                ps.push(decode_policy(t, 0)?);
            }
            PolicyAssignment::RoundRobin(ps)
        }
        a => return Err(format!("unknown policy assignment `{a}`")),
    };
    assignment
        .validate()
        .map_err(|e| format!("invalid policy assignment: {e}"))?;
    Ok(assignment)
}

/// Encodes one scenario as a single self-describing record (no newline):
/// the family word, then every field in fingerprint order.
pub fn encode_scenario(scenario: &Scenario) -> String {
    Wire::encode(scenario)
}

/// Decodes one scenario record produced by [`encode_scenario`].
pub fn decode_scenario(record: &str) -> Result<Scenario, String> {
    let mut t = Tokens::new(record);
    let scenario = match t.next()? {
        "fluidics" => Scenario::FluidicsCompile(FluidicsScenario {
            assay: decode_assay_kind(&mut t)?,
            plex: t.int()?,
            grid_side: t.int()?,
            dead_fraction: t.f64()?,
            fault_seed: t.int()?,
        }),
        "labchip" => Scenario::LabChip(LabChipScenario {
            assay: decode_assay_kind(&mut t)?,
            seed: t.int()?,
            samples_per_run: t.int()?,
            dead_fraction: t.f64()?,
            fault_seed: t.int()?,
        }),
        "noc" => {
            let cores = t.int()?;
            let nflows: usize = t.int()?;
            let mut flows = Vec::with_capacity(nflows.min(DECODE_CAPACITY_CAP));
            for _ in 0..nflows {
                let (src, dst, rate) = (t.int()?, t.int()?, t.f64()?);
                // `CommGraph::new` asserts these invariants; a corrupted
                // record must come back as an error, not a panic.
                if src >= cores || dst >= cores {
                    return Err(format!(
                        "flow endpoint {src}->{dst} out of range for {cores} cores"
                    ));
                }
                if src == dst {
                    return Err(format!("self-loop flow at core {src}"));
                }
                if rate.is_nan() || rate <= 0.0 {
                    return Err(format!("non-positive flow rate `{:016x}`", rate.to_bits()));
                }
                flows.push(Flow { src, dst, rate });
            }
            Scenario::NocPoint(NocScenario {
                app: CommGraph::new(cores, flows),
                max_cluster: t.int()?,
                shortcuts: t.int()?,
            })
        }
        "wsn" => {
            let nodes = t.int()?;
            let side = t.f64()?;
            let protocol = match t.next()? {
                "direct" => Protocol::Direct,
                "tree" => Protocol::Tree {
                    radio_range: t.f64()?,
                    aggregate: t.bool()?,
                },
                "cluster" => Protocol::Cluster {
                    p: t.f64()?,
                    aggregate: t.bool()?,
                },
                p => return Err(format!("unknown wsn protocol `{p}`")),
            };
            let failure_rate = t.f64()?;
            let max_rounds = t.int()?;
            let seed = t.int()?;
            let policies = match t.opt_next() {
                None => None,
                Some("policies") => Some(decode_assignment(&mut t)?),
                Some(tok) => return Err(format!("trailing token `{tok}`")),
            };
            Scenario::WsnLifetime(WsnScenario {
                nodes,
                side,
                protocol,
                failure_rate,
                max_rounds,
                seed,
                policies,
            })
        }
        "harvest" => {
            let policy = decode_policy(&mut t, 0)?;
            policy
                .validate()
                .map_err(|e| format!("invalid harvest policy: {e}"))?;
            Scenario::Harvest(HarvestScenario {
                policy,
                days: t.int()?,
                cloudiness: t.f64()?,
                seed: t.int()?,
            })
        }
        "grn" => {
            let model = match t.next()? {
                "thelper" => GrnModel::THelper,
                "arabidopsis" => GrnModel::Arabidopsis { whorl: t.int()? },
                m => return Err(format!("unknown grn model `{m}`")),
            };
            let knockout = match t.next()? {
                "wild" => None,
                "ko" => Some(t.string()?),
                k => return Err(format!("unknown knockout tag `{k}`")),
            };
            Scenario::Knockout(KnockoutScenario { model, knockout })
        }
        tag => return Err(format!("unknown scenario tag `{tag}`")),
    };
    t.done()?;
    Ok(scenario)
}

/// Encodes one outcome as a single self-describing record (no newline):
/// the family word, then every field in digest order.
pub fn encode_outcome(outcome: &ScenarioOutcome) -> String {
    Wire::encode(outcome)
}

/// Decodes one outcome record produced by [`encode_outcome`].
pub fn decode_outcome(record: &str) -> Result<ScenarioOutcome, String> {
    let mut t = Tokens::new(record);
    let outcome = match t.next()? {
        "fluidics" => ScenarioOutcome::Fluidics {
            compiled: t.bool()?,
            makespan: t.int()?,
            moves: t.int()?,
            stalls: t.int()?,
            energy: t.int()?,
            reroutes: t.int()?,
            abandoned: t.int()?,
        },
        "labchip" => ScenarioOutcome::LabChip {
            ok: t.bool()?,
            makespan: t.int()?,
            energy: t.int()?,
            sensing_error: t.f64()?,
            biclusters: t.int()?,
            recovery: t.f64()?,
            relevance: t.f64()?,
            samples_dropped: t.int()?,
        },
        "noc" => ScenarioOutcome::Noc {
            feasible: t.bool()?,
            weighted_hops: t.f64()?,
            energy: t.f64()?,
            area: t.f64()?,
            deadlock_free: t.bool()?,
        },
        "wsn" => ScenarioOutcome::Wsn {
            first_death: t.int()?,
            half_death: t.int()?,
            rounds: t.int()?,
            sensed: t.int()?,
            delivered: t.int()?,
            avg_coverage: t.f64()?,
            energy_spent: t.f64()?,
        },
        "harvest" => ScenarioOutcome::Harvest {
            work: t.f64()?,
            dead_slots: t.int()?,
            total_slots: t.int()?,
            wasted: t.f64()?,
            harvested: t.f64()?,
            final_battery: t.f64()?,
        },
        "grn" => {
            let n: usize = t.int()?;
            let mut fixed_points = Vec::with_capacity(n.min(DECODE_CAPACITY_CAP));
            for _ in 0..n {
                fixed_points.push(t.int()?);
            }
            ScenarioOutcome::Knockout {
                fixed_points,
                annotation: t.string()?,
            }
        }
        tag => return Err(format!("unknown outcome tag `{tag}`")),
    };
    t.done()?;
    Ok(outcome)
}

/// Renders a shard manifest: header, `#shard` line, then one
/// `<global index> <scenario record>` line per entry.
pub fn write_manifest(shard: ShardId, entries: &[(usize, &Scenario)]) -> String {
    let mut out = format!("{MANIFEST_HEADER}\n#shard {}\n", shard.0);
    for (index, scenario) in entries {
        out.push_str(&format!("{index} {}\n", encode_scenario(scenario)));
    }
    out
}

/// Parses a shard manifest back into `(shard, [(global index, scenario)])`.
pub fn parse_manifest(text: &str) -> Result<(ShardId, Vec<(usize, Scenario)>), ManifestError> {
    let (shard, entries) = parse_file(
        text,
        MANIFEST_HEADER,
        "manifest",
        |_| Ok(()),
        decode_scenario,
    )?;
    let shard = shard.ok_or_else(|| err(0, "missing #shard line"))?;
    Ok((shard, entries))
}

/// `(global index, record)` pairs in file order.
type Entries<T> = Vec<(usize, T)>;

/// The line loop both file formats share: the header check, the
/// `#shard` line, `<index> <record>` entries decoded by `decode`, and
/// blank lines skipped. Every other `#` line goes to `meta`, which may
/// reject it or ignore it as a future extension. Errors carry 1-based
/// line numbers.
fn parse_file<T>(
    text: &str,
    header: &str,
    what: &str,
    mut meta: impl FnMut(&str) -> Result<(), String>,
    decode: impl Fn(&str) -> Result<T, String>,
) -> Result<(Option<ShardId>, Entries<T>), ManifestError> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines
        .next()
        .ok_or_else(|| err(0, format!("empty {what}")))?;
    if first != header {
        return Err(err(1, format!("bad header `{first}`")));
    }
    let mut shard = None;
    let mut entries = Vec::new();
    for (i, line) in lines {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("#shard ") {
            let id = rest
                .trim()
                .parse()
                .map_err(|_| err(lineno, format!("bad shard id `{rest}`")))?;
            shard = Some(ShardId(id));
            continue;
        }
        if line.starts_with('#') {
            meta(line).map_err(|m| err(lineno, m))?;
            continue;
        }
        let (index, record) = line
            .split_once(' ')
            .ok_or_else(|| err(lineno, "want `<index> <record>`"))?;
        let index = index
            .parse()
            .map_err(|_| err(lineno, format!("bad index `{index}`")))?;
        entries.push((index, decode(record).map_err(|m| err(lineno, m))?));
    }
    Ok((shard, entries))
}

/// Renders a shard outcome file: header, `#shard`, a `#stats` line with
/// the layout-independent counters, one `#worker` line per worker row,
/// then one `<global index> <outcome record>` line per outcome.
pub fn write_outcomes(stats: &BatchStats, entries: &[(usize, ScenarioOutcome)]) -> String {
    let mut out = format!("{OUTCOMES_HEADER}\n#shard {}\n", stats.shard.0);
    out.push_str(&format!(
        "#stats {} {} {} {} {}\n",
        stats.scenarios, stats.executed, stats.cache_hits, stats.deduped, stats.steals
    ));
    for w in &stats.per_worker {
        out.push_str(&format!(
            "#worker {} {} {} {} {}\n",
            w.shard.0, w.worker, w.executed, w.steals, w.cache_hits
        ));
    }
    for (index, outcome) in entries {
        out.push_str(&format!("{index} {}\n", encode_outcome(outcome)));
    }
    out
}

/// Parses a shard outcome file back into its stats and
/// `(global index, outcome)` pairs.
pub fn parse_outcomes(
    text: &str,
) -> Result<(BatchStats, Vec<(usize, ScenarioOutcome)>), ManifestError> {
    let mut stats = BatchStats::default();
    let mut saw_stats = false;
    let meta = |line: &str| {
        if let Some(rest) = line.strip_prefix("#stats ") {
            let mut t = Tokens::new(rest);
            stats.scenarios = t.int()?;
            stats.executed = t.int()?;
            stats.cache_hits = t.int()?;
            stats.deduped = t.int()?;
            stats.steals = t.int()?;
            t.done()?;
            saw_stats = true;
        } else if let Some(rest) = line.strip_prefix("#worker ") {
            let mut t = Tokens::new(rest);
            let row = WorkerBatchStats {
                shard: ShardId(t.int()?),
                worker: t.int()?,
                executed: t.int()?,
                steals: t.int()?,
                cache_hits: t.int()?,
            };
            t.done()?;
            stats.per_worker.push(row);
        }
        Ok(())
    };
    let (shard, entries) = parse_file(text, OUTCOMES_HEADER, "outcome file", meta, decode_outcome)?;
    if !saw_stats {
        return Err(err(0, "missing #stats line"));
    }
    stats.shard = shard.unwrap_or_default();
    Ok((stats, entries))
}

/// Largest payload [`read_frame`] accepts (64 MiB): a corrupted or
/// hostile length prefix cannot force an arbitrary allocation.
pub const FRAME_MAX: usize = 64 << 20;

/// Writes `payload` as one length-prefixed frame: a 4-byte big-endian
/// length followed by the raw bytes. The framing is transport plumbing
/// only — the payload stays the exact line-oriented wire text, so the
/// manifest format itself is unchanged and version-gated by its header
/// line as before.
///
/// # Errors
///
/// Fails if `payload` exceeds [`FRAME_MAX`] or on writer I/O errors.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds FRAME_MAX", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).expect("FRAME_MAX fits in u32");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame written by [`write_frame`].
///
/// # Errors
///
/// Fails with [`io::ErrorKind::UnexpectedEof`] on a truncated prefix or
/// payload, [`io::ErrorKind::InvalidData`] on a length above
/// [`FRAME_MAX`], and passes reader I/O errors through.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > FRAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds FRAME_MAX"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::conformance_corpus;

    fn bits(v: f64) -> String {
        format!("{:016x}", v.to_bits())
    }

    #[test]
    fn corpus_scenarios_round_trip_by_fingerprint() {
        for scenario in conformance_corpus(42) {
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(
                scenario.fingerprint(),
                decoded.fingerprint(),
                "fingerprint drift through `{encoded}`"
            );
            assert_eq!(scenario, decoded);
        }
    }

    #[test]
    fn corpus_outcomes_round_trip_by_digest() {
        let corpus = conformance_corpus(42);
        let outcomes = crate::runner::Runner::serial().run(&corpus).outcomes;
        for outcome in outcomes {
            let encoded = encode_outcome(&outcome);
            let decoded = decode_outcome(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(
                outcome.digest(),
                decoded.digest(),
                "digest drift through `{encoded}`"
            );
        }
    }

    /// Every [`AssayKind`] variant with representative shape knobs.
    fn assay_kinds() -> Vec<AssayKind> {
        vec![
            AssayKind::Multiplex,
            AssayKind::SerialDilution,
            AssayKind::Washing { wash_steps: 0 },
            AssayKind::Washing { wash_steps: 3 },
            AssayKind::MixingTree { fanin: 2 },
            AssayKind::MixingTree { fanin: 4 },
            AssayKind::DilutionGradient,
        ]
    }

    #[test]
    fn every_assay_kind_round_trips_in_fluidics_records() {
        for kind in assay_kinds() {
            let scenario = Scenario::FluidicsCompile(FluidicsScenario {
                assay: kind,
                plex: 3,
                grid_side: 16,
                dead_fraction: 0.04,
                fault_seed: 11,
            });
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(scenario, decoded, "value drift through `{encoded}`");
            assert_eq!(scenario.fingerprint(), decoded.fingerprint());
            // Byte-identity: re-encoding the decoded scenario reproduces
            // the exact wire bytes, 16-hex float pattern included.
            assert_eq!(encoded, encode_scenario(&decoded));
        }
    }

    #[test]
    fn every_assay_kind_round_trips_in_labchip_records() {
        for kind in assay_kinds() {
            let scenario = Scenario::LabChip(LabChipScenario {
                assay: kind,
                seed: 42,
                samples_per_run: 2,
                dead_fraction: 0.05,
                fault_seed: 7,
            });
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(scenario, decoded, "value drift through `{encoded}`");
            assert_eq!(scenario.fingerprint(), decoded.fingerprint());
            assert_eq!(encoded, encode_scenario(&decoded));
        }
    }

    #[test]
    fn assay_kind_tokens_are_stable_and_rejections_clean() {
        // The kind token is part of the wire contract — a rename would
        // silently orphan committed manifests.
        let enc = |assay| {
            encode_scenario(&Scenario::FluidicsCompile(FluidicsScenario {
                assay,
                plex: 1,
                grid_side: 16,
                dead_fraction: 0.0,
                fault_seed: 0,
            }))
        };
        let rec = |kind: &str| format!("fluidics {kind} 1 16 0000000000000000 0");
        assert_eq!(enc(AssayKind::Multiplex), rec("multiplex"));
        assert_eq!(enc(AssayKind::SerialDilution), rec("dilution"));
        assert_eq!(enc(AssayKind::Washing { wash_steps: 2 }), rec("wash 2"));
        assert_eq!(enc(AssayKind::MixingTree { fanin: 3 }), rec("mixtree 3"));
        assert_eq!(enc(AssayKind::DilutionGradient), rec("gradient"));
        assert!(decode_scenario("fluidics martian 1 16 0000000000000000 0").is_err());
        assert!(
            decode_scenario("fluidics wash 1 16 0000000000000000 0").is_err(),
            "wash eats its steps token, leaving the record truncated"
        );
    }

    /// One literal record per scenario family. The bytes are the wire
    /// contract: any change to field order or token form shows up here.
    #[test]
    fn scenario_records_are_pinned_per_family() {
        let cases = [
            (
                Scenario::FluidicsCompile(FluidicsScenario {
                    assay: AssayKind::Washing { wash_steps: 2 },
                    plex: 3,
                    grid_side: 16,
                    dead_fraction: 0.0625,
                    fault_seed: 11,
                }),
                "fluidics wash 2 3 16 3fb0000000000000 11",
            ),
            (
                Scenario::LabChip(LabChipScenario {
                    assay: AssayKind::MixingTree { fanin: 4 },
                    seed: 42,
                    samples_per_run: 2,
                    dead_fraction: 0.125,
                    fault_seed: 7,
                }),
                "labchip mixtree 4 42 2 3fc0000000000000 7",
            ),
            (
                Scenario::NocPoint(NocScenario {
                    app: CommGraph::new(
                        3,
                        vec![
                            Flow {
                                src: 0,
                                dst: 1,
                                rate: 0.5,
                            },
                            Flow {
                                src: 2,
                                dst: 0,
                                rate: 1.5,
                            },
                        ],
                    ),
                    max_cluster: 2,
                    shortcuts: 1,
                }),
                "noc 3 2 0 1 3fe0000000000000 2 0 3ff8000000000000 2 1",
            ),
            (
                Scenario::WsnLifetime(WsnScenario {
                    nodes: 40,
                    side: 100.0,
                    protocol: Protocol::tree(16.0, true),
                    failure_rate: 0.0,
                    max_rounds: 300,
                    seed: 7,
                    policies: Some(PolicyAssignment::RoundRobin(vec![
                        PolicyExpr::Fixed(0.5),
                        PolicyExpr::Forecast { alpha: 0.25 },
                    ])),
                }),
                "wsn 40 4059000000000000 tree 4030000000000000 1 0000000000000000 300 7 \
                 policies mix 2 fixed 3fe0000000000000 forecast 3fd0000000000000",
            ),
            (
                Scenario::Harvest(HarvestScenario {
                    policy: PolicyExpr::Clamp {
                        inner: Box::new(PolicyExpr::Derate {
                            inner: Box::new(PolicyExpr::Forecast { alpha: 0.25 }),
                            fade: 0.125,
                            floor: 0.5,
                        }),
                        lo: 0.0625,
                        hi: 0.75,
                    },
                    days: 10,
                    cloudiness: 0.25,
                    seed: 42,
                }),
                "harvest clamp 3fb0000000000000 3fe8000000000000 \
                 derate 3fc0000000000000 3fe0000000000000 forecast 3fd0000000000000 \
                 10 3fd0000000000000 42",
            ),
            (
                Scenario::Knockout(KnockoutScenario {
                    model: GrnModel::Arabidopsis { whorl: 1 },
                    knockout: Some("AP3".to_owned()),
                }),
                "grn arabidopsis 1 ko x415033",
            ),
        ];
        for (scenario, record) in cases {
            assert_eq!(encode_scenario(&scenario), record);
            assert_eq!(decode_scenario(record).as_ref(), Ok(&scenario));
        }
    }

    /// One literal record per outcome variant.
    #[test]
    fn outcome_records_are_pinned_per_variant() {
        let cases = [
            (
                ScenarioOutcome::Fluidics {
                    compiled: true,
                    makespan: 31,
                    moves: 120,
                    stalls: 4,
                    energy: 900,
                    reroutes: 1,
                    abandoned: 0,
                },
                "fluidics 1 31 120 4 900 1 0",
            ),
            (
                ScenarioOutcome::LabChip {
                    ok: true,
                    makespan: 40,
                    energy: 1000,
                    sensing_error: 0.125,
                    biclusters: 3,
                    recovery: 1.0,
                    relevance: 0.75,
                    samples_dropped: 1,
                },
                "labchip 1 40 1000 3fc0000000000000 3 3ff0000000000000 3fe8000000000000 1",
            ),
            (
                ScenarioOutcome::Noc {
                    feasible: true,
                    weighted_hops: 1.5,
                    energy: 4.0,
                    area: 16.0,
                    deadlock_free: false,
                },
                "noc 1 3ff8000000000000 4010000000000000 4030000000000000 0",
            ),
            (
                ScenarioOutcome::Wsn {
                    first_death: 10,
                    half_death: 20,
                    rounds: 30,
                    sensed: 400,
                    delivered: 390,
                    avg_coverage: 0.75,
                    energy_spent: 2.0,
                },
                "wsn 10 20 30 400 390 3fe8000000000000 4000000000000000",
            ),
            (
                ScenarioOutcome::Harvest {
                    work: 8.0,
                    dead_slots: 3,
                    total_slots: 240,
                    wasted: 0.5,
                    harvested: 16.0,
                    final_battery: 1.0,
                },
                "harvest 4020000000000000 3 240 3fe0000000000000 4030000000000000 3ff0000000000000",
            ),
            (
                ScenarioOutcome::Knockout {
                    fixed_points: vec![5, 12],
                    annotation: "Th1/Th2".to_owned(),
                },
                "grn 2 5 12 x5468312f546832",
            ),
        ];
        for (outcome, record) in cases {
            assert_eq!(encode_outcome(&outcome), record);
            assert_eq!(decode_outcome(record).as_ref(), Ok(&outcome));
        }
    }

    #[test]
    fn floats_round_trip_exactly_including_nan() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let encoded = bits(v);
            let mut t = Tokens::new(&encoded);
            let back = t.f64().expect("bits parse");
            assert_eq!(v.to_bits(), back.to_bits(), "bits drift for {v}");
        }
    }

    #[test]
    fn strings_round_trip_including_empty_and_spaces() {
        for s in ["", "GATA3", "two words", "β-catenin"] {
            let mut wire = Wire(String::new());
            wire.str(s);
            let mut t = Tokens::new(&wire.0);
            assert_eq!(t.string().expect("string parse"), s);
        }
    }

    #[test]
    fn manifest_round_trips() {
        let corpus = conformance_corpus(42);
        let entries: Vec<(usize, &Scenario)> =
            corpus.iter().enumerate().map(|(i, s)| (i * 3, s)).collect();
        let text = write_manifest(ShardId(5), &entries);
        let (shard, parsed) = parse_manifest(&text).expect("manifest parses");
        assert_eq!(shard, ShardId(5));
        assert_eq!(parsed.len(), entries.len());
        for ((i0, s0), (i1, s1)) in entries.iter().zip(&parsed) {
            assert_eq!(i0, i1);
            assert_eq!(*s0, s1);
        }
    }

    #[test]
    fn outcome_file_round_trips() {
        let corpus = conformance_corpus(42);
        let report = crate::runner::Runner::serial().run(&corpus);
        let mut stats = report.stats.clone();
        stats.shard = ShardId(3);
        for w in &mut stats.per_worker {
            w.shard = ShardId(3);
        }
        let entries: Vec<(usize, ScenarioOutcome)> =
            report.outcomes.into_iter().enumerate().collect();
        let text = write_outcomes(&stats, &entries);
        let (back_stats, back) = parse_outcomes(&text).expect("outcome file parses");
        assert_eq!(back_stats, stats);
        assert_eq!(back.len(), entries.len());
        for ((i0, o0), (i1, o1)) in entries.iter().zip(&back) {
            assert_eq!(i0, i1);
            assert_eq!(o0.digest(), o1.digest());
        }
    }

    #[test]
    fn truncated_or_corrupt_records_are_rejected() {
        assert!(parse_manifest("").is_err());
        assert!(parse_manifest("# wrong header\n#shard 0\n").is_err());
        assert!(parse_manifest(&format!("{MANIFEST_HEADER}\n0 fluidics 1\n")).is_err());
        assert!(decode_scenario("fluidics 1 16 0000000000000000 0 extra").is_err());
        assert!(decode_scenario("martian 1 2 3").is_err());
        assert_eq!(
            decode_scenario("fluidics multiplex -1 16 0000000000000000 0").unwrap_err(),
            "bad integer `-1`"
        );
        assert!(decode_outcome("grn 2 5").is_err(), "truncated fixed points");
        assert!(parse_outcomes(&format!("{OUTCOMES_HEADER}\n#shard 0\n")).is_err());
    }

    // Each case below used to reach a panic (string-slice char split,
    // capacity overflow, `CommGraph::new` assertion); parsing must now
    // return an error for all of them. `tests/manifest_fuzz.rs` sweeps
    // the same surface with random mutations.
    #[test]
    fn adversarial_records_error_instead_of_panicking() {
        // Multibyte characters inside a string token: byte-slicing by
        // hex-pair index would split the char and panic.
        assert!(decode_scenario("grn thelper ko x€€").is_err());
        assert!(decode_scenario("grn thelper ko xβ4").is_err());
        // Untrusted element counts must not drive pre-allocation.
        assert!(decode_outcome("grn 18446744073709551615 x").is_err());
        assert!(decode_scenario("noc 4 18446744073709551615 1 1").is_err());
        // Flow invariants `CommGraph::new` would assert on.
        let rate = bits(1.0);
        assert!(decode_scenario(&format!("noc 2 1 0 5 {rate} 1 1")).is_err());
        assert!(decode_scenario(&format!("noc 2 1 0 0 {rate} 1 1")).is_err());
        let zero = bits(0.0);
        assert!(decode_scenario(&format!("noc 2 1 0 1 {zero} 1 1")).is_err());
        let nan = bits(f64::NAN);
        assert!(decode_scenario(&format!("noc 2 1 0 1 {nan} 1 1")).is_err());
        // A healthy noc record still decodes.
        let ok = format!("noc 2 1 0 1 {rate} 1 1");
        assert!(decode_scenario(&ok).is_ok());
    }

    /// Representative policy expressions, primitives through deep
    /// compositions.
    fn policy_exprs() -> Vec<PolicyExpr> {
        vec![
            PolicyExpr::Fixed(0.3),
            PolicyExpr::Greedy {
                threshold: 0.3,
                duty_high: 0.9,
                duty_low: 0.05,
            },
            PolicyExpr::EnergyNeutral { alpha: 0.01 },
            PolicyExpr::Forecast { alpha: 0.2 },
            PolicyExpr::Derate {
                inner: Box::new(PolicyExpr::Forecast { alpha: 0.2 }),
                fade: 0.05,
                floor: 0.5,
            },
            PolicyExpr::Hysteresis {
                low: 0.25,
                high: 0.6,
                on: Box::new(PolicyExpr::EnergyNeutral { alpha: 0.01 }),
                off: Box::new(PolicyExpr::Fixed(0.05)),
            },
            PolicyExpr::Scheduled {
                pieces: vec![
                    (0, PolicyExpr::Fixed(0.8)),
                    (
                        4,
                        PolicyExpr::Clamp {
                            inner: Box::new(PolicyExpr::EnergyNeutral { alpha: 0.05 }),
                            lo: 0.05,
                            hi: 0.9,
                        },
                    ),
                ],
            },
        ]
    }

    #[test]
    fn every_policy_expr_round_trips_byte_identically() {
        for policy in policy_exprs() {
            let scenario = Scenario::Harvest(HarvestScenario {
                policy,
                days: 10,
                cloudiness: 0.4,
                seed: 42,
            });
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(scenario, decoded, "value drift through `{encoded}`");
            assert_eq!(scenario.fingerprint(), decoded.fingerprint());
            assert_eq!(encoded, encode_scenario(&decoded));
        }
    }

    #[test]
    fn wsn_policy_assignments_round_trip_byte_identically() {
        for policies in [
            None,
            Some(PolicyAssignment::Uniform(PolicyExpr::Fixed(0.5))),
            Some(PolicyAssignment::RoundRobin(policy_exprs())),
        ] {
            let scenario = Scenario::WsnLifetime(WsnScenario {
                nodes: 40,
                side: 100.0,
                protocol: Protocol::cluster(0.1, true),
                failure_rate: 0.0,
                max_rounds: 300,
                seed: 7,
                policies,
            });
            let encoded = encode_scenario(&scenario);
            let decoded = decode_scenario(&encoded)
                .unwrap_or_else(|m| panic!("decode `{encoded}` failed: {m}"));
            assert_eq!(scenario, decoded, "value drift through `{encoded}`");
            assert_eq!(scenario.fingerprint(), decoded.fingerprint());
            assert_eq!(encoded, encode_scenario(&decoded));
        }
    }

    #[test]
    fn historical_harvest_tokens_are_unchanged() {
        // The primitive wire tokens predate the policy engine; committed
        // manifests depend on these exact bytes.
        let enc = |policy| {
            encode_scenario(&Scenario::Harvest(HarvestScenario {
                policy,
                days: 1,
                cloudiness: 0.0,
                seed: 0,
            }))
        };
        let rec = |policy: String| format!("harvest {policy} 1 0000000000000000 0");
        assert_eq!(
            enc(PolicyExpr::Fixed(0.3)),
            rec(format!("fixed {}", bits(0.3)))
        );
        assert_eq!(
            enc(PolicyExpr::Greedy {
                threshold: 0.3,
                duty_high: 0.9,
                duty_low: 0.05
            }),
            rec(format!("greedy {} {} {}", bits(0.3), bits(0.9), bits(0.05)))
        );
        assert_eq!(
            enc(PolicyExpr::EnergyNeutral { alpha: 0.01 }),
            rec(format!("neutral {}", bits(0.01)))
        );
    }

    #[test]
    fn adversarial_policy_records_error_instead_of_panicking() {
        let b = bits(0.5);
        // Unknown combinator.
        assert!(decode_scenario(&format!("harvest warp {b} 10 {b} 1")).is_err());
        // Out-of-range / non-finite parameters are rejected at the
        // parse boundary, not silently clamped mid-simulation.
        let nan = bits(f64::NAN);
        assert!(decode_scenario(&format!("harvest fixed {nan} 10 {b} 1")).is_err());
        let two = bits(2.0);
        assert!(decode_scenario(&format!("harvest fixed {two} 10 {b} 1")).is_err());
        let zero = bits(0.0);
        assert!(decode_scenario(&format!("harvest neutral {zero} 10 {b} 1")).is_err());
        // Malformed schedules.
        assert!(
            decode_scenario(&format!("harvest sched 0 10 {b} 1")).is_err(),
            "empty schedule"
        );
        assert!(
            decode_scenario(&format!("harvest sched 2 0 fixed {b} 0 fixed {b} 10 {b} 1")).is_err(),
            "non-increasing starts"
        );
        // Untrusted piece counts must not drive pre-allocation.
        assert!(decode_scenario("harvest sched 18446744073709551615 x").is_err());
        // Nesting beyond MAX_POLICY_DEPTH fails during parsing — before
        // recursion can threaten the stack.
        let mut deep = String::new();
        for _ in 0..64 {
            deep.push_str(&format!("clamp {zero} {b} "));
        }
        deep.push_str(&format!("fixed {b}"));
        assert!(decode_scenario(&format!("harvest {deep} 10 {b} 1")).is_err());
        // Truncated inner policy.
        assert!(decode_scenario(&format!("harvest derate {b} {b} 10 {b} 1")).is_err());
        // Bad wsn assignment suffixes.
        let side = bits(100.0);
        assert!(decode_scenario(&format!(
            "wsn 10 {side} direct {zero} 100 1 policies solo fixed {b}"
        ))
        .is_err());
        assert!(
            decode_scenario(&format!("wsn 10 {side} direct {zero} 100 1 policies mix 0")).is_err()
        );
        assert!(decode_scenario(&format!("wsn 10 {side} direct {zero} 100 1 junk")).is_err());
        // Healthy composed records still decode.
        assert!(decode_scenario(&format!(
            "harvest hyst {} {} neutral {} fixed {} 10 {b} 1",
            bits(0.25),
            bits(0.6),
            bits(0.01),
            bits(0.05)
        ))
        .is_ok());
        assert!(decode_scenario(&format!(
            "wsn 10 {side} direct {zero} 100 1 policies uniform fixed {b}"
        ))
        .is_ok());
    }

    #[test]
    fn frames_round_trip_and_reject_truncation() {
        let payload = write_manifest(ShardId(1), &[]);
        let mut buf = Vec::new();
        write_frame(&mut buf, payload.as_bytes()).expect("frame writes");
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor).expect("frame reads"),
            payload.as_bytes()
        );
        // Truncated payload and truncated prefix both fail cleanly.
        let mut short = &buf[..buf.len() - 1];
        assert_eq!(
            read_frame(&mut short).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        let mut tiny = &buf[..2];
        assert_eq!(
            read_frame(&mut tiny).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // A hostile length prefix is bounded by FRAME_MAX.
        let huge = u32::MAX.to_be_bytes();
        let mut hostile = &huge[..];
        assert_eq!(
            read_frame(&mut hostile).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Oversize writes are refused before touching the writer.
        let big = vec![0u8; FRAME_MAX + 1];
        assert!(write_frame(&mut Vec::new(), &big).is_err());
    }
}
