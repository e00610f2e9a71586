//! Transport-agnostic scheduler ⇄ worker messages.
//!
//! One codec serves every transport: the same [`Message`] bytes travel
//! inside a length-prefixed TCP frame
//! ([`manifest::write_frame`](mns_core::runner::manifest::write_frame))
//! or as the whole content of a spooled file. The envelope is a single
//! ASCII header line; messages that carry payloads (`assign`, `result`)
//! append them after the newline with their byte lengths declared in the
//! header, so decoding never scans for terminators inside payload text.
//!
//! Like the manifest format itself, decoding is **total**: corrupt bytes
//! come back as `Err`, never a panic — a hostile or truncated message is
//! just another worker failure for the scheduler to requeue.

use mns_core::runner::ShardId;

/// One scheduler ⇄ worker message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → scheduler: registration handshake. Must be the first
    /// message a worker sends on any transport.
    Hello {
        /// The worker's launch name (see [`valid_worker_name`]).
        worker: String,
    },
    /// Worker → scheduler: liveness beacon with a monotonic sequence
    /// number (spool transports diff the number, never file mtimes).
    Heartbeat {
        /// Sending worker.
        worker: String,
        /// Monotonic per-worker sequence number.
        seq: u64,
    },
    /// Scheduler → worker: evaluate one shard manifest.
    Assign {
        /// Shard being assigned.
        shard: ShardId,
        /// 1-based delivery attempt (stale results are matched on it).
        attempt: u32,
        /// The full line-oriented manifest text.
        manifest: String,
    },
    /// Worker → scheduler: a completed shard's outcome file (and
    /// optionally its telemetry snapshot wire text).
    Result {
        /// Reporting worker.
        worker: String,
        /// Shard the outcomes belong to.
        shard: ShardId,
        /// The attempt this result answers.
        attempt: u32,
        /// The outcome-file wire text.
        outcomes: String,
        /// `MetricsSnapshot::to_wire` text when metrics were requested.
        metrics: Option<String>,
    },
    /// Scheduler → worker: drain and exit cleanly.
    Shutdown,
}

/// Whether `name` is a legal worker name: non-empty, at most 64 bytes,
/// drawn from `[A-Za-z0-9_-]` — safe inside file names and header lines
/// on every transport.
pub fn valid_worker_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

impl Message {
    /// Encodes the message into its wire text.
    pub fn encode(&self) -> String {
        match self {
            Message::Hello { worker } => format!("hello {worker}"),
            Message::Heartbeat { worker, seq } => format!("hb {worker} {seq}"),
            Message::Assign {
                shard,
                attempt,
                manifest,
            } => format!(
                "assign {} {attempt} {}\n{manifest}",
                shard.0,
                manifest.len()
            ),
            Message::Result {
                worker,
                shard,
                attempt,
                outcomes,
                metrics,
            } => {
                let metrics = metrics.as_deref().unwrap_or("");
                format!(
                    "result {worker} {} {attempt} {} {}\n{outcomes}{metrics}",
                    shard.0,
                    outcomes.len(),
                    metrics.len()
                )
            }
            Message::Shutdown => "shutdown".to_owned(),
        }
    }

    /// Decodes wire text produced by [`Message::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field; truncated
    /// payloads, bad lengths and invalid worker names all fail here.
    pub fn decode(text: &str) -> Result<Message, String> {
        let (head, body) = match text.split_once('\n') {
            Some((head, body)) => (head, body),
            None => (text, ""),
        };
        let mut fields = head.split_whitespace();
        let kind = fields.next().ok_or("empty message")?;
        let message = match kind {
            "hello" => Message::Hello {
                worker: take_worker(&mut fields)?,
            },
            "hb" => Message::Heartbeat {
                worker: take_worker(&mut fields)?,
                seq: take_u64(&mut fields, "seq")?,
            },
            "assign" => {
                let shard = ShardId(take_u32(&mut fields, "shard")?);
                let attempt = take_u32(&mut fields, "attempt")?;
                let len = take_usize(&mut fields, "manifest length")?;
                if body.len() != len {
                    return Err(format!(
                        "assign declares {len} payload bytes, got {}",
                        body.len()
                    ));
                }
                Message::Assign {
                    shard,
                    attempt,
                    manifest: body.to_owned(),
                }
            }
            "result" => {
                let worker = take_worker(&mut fields)?;
                let shard = ShardId(take_u32(&mut fields, "shard")?);
                let attempt = take_u32(&mut fields, "attempt")?;
                let olen = take_usize(&mut fields, "outcomes length")?;
                let mlen = take_usize(&mut fields, "metrics length")?;
                if body.len() != olen.checked_add(mlen).ok_or("payload length overflow")? {
                    return Err(format!(
                        "result declares {olen}+{mlen} payload bytes, got {}",
                        body.len()
                    ));
                }
                // `get` (not slicing) so a length landing inside a
                // multibyte char errors instead of panicking.
                let outcomes = body.get(..olen).ok_or("outcome split off char boundary")?;
                let metrics = body.get(olen..).ok_or("metrics split off char boundary")?;
                Message::Result {
                    worker,
                    shard,
                    attempt,
                    outcomes: outcomes.to_owned(),
                    metrics: (mlen > 0).then(|| metrics.to_owned()),
                }
            }
            "shutdown" => Message::Shutdown,
            other => return Err(format!("unknown message kind `{other}`")),
        };
        if let Some(extra) = fields.next() {
            return Err(format!("trailing header token `{extra}`"));
        }
        if matches!(
            message,
            Message::Hello { .. } | Message::Heartbeat { .. } | Message::Shutdown
        ) && !body.is_empty()
        {
            return Err(format!("unexpected payload after `{kind}` header"));
        }
        Ok(message)
    }
}

fn take_worker(fields: &mut std::str::SplitWhitespace) -> Result<String, String> {
    let name = fields.next().ok_or("missing worker name")?;
    if !valid_worker_name(name) {
        return Err(format!("invalid worker name `{name}`"));
    }
    Ok(name.to_owned())
}

fn take_u64(fields: &mut std::str::SplitWhitespace, what: &str) -> Result<u64, String> {
    let t = fields.next().ok_or_else(|| format!("missing {what}"))?;
    t.parse().map_err(|_| format!("bad {what} `{t}`"))
}

fn take_u32(fields: &mut std::str::SplitWhitespace, what: &str) -> Result<u32, String> {
    let t = fields.next().ok_or_else(|| format!("missing {what}"))?;
    t.parse().map_err(|_| format!("bad {what} `{t}`"))
}

fn take_usize(fields: &mut std::str::SplitWhitespace, what: &str) -> Result<usize, String> {
    let t = fields.next().ok_or_else(|| format!("missing {what}"))?;
    t.parse().map_err(|_| format!("bad {what} `{t}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(message: Message) {
        let wire = message.encode();
        let back = Message::decode(&wire).unwrap_or_else(|m| panic!("decode `{wire}`: {m}"));
        assert_eq!(message, back, "drift through `{wire}`");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Message::Hello {
            worker: "w0".into(),
        });
        round_trip(Message::Heartbeat {
            worker: "w1".into(),
            seq: 981,
        });
        round_trip(Message::Assign {
            shard: ShardId(3),
            attempt: 2,
            manifest: "# mns shard manifest v2\n#shard 3\n".into(),
        });
        round_trip(Message::Result {
            worker: "w2".into(),
            shard: ShardId(1),
            attempt: 1,
            outcomes: "# mns shard outcomes v2\nline two\n".into(),
            metrics: None,
        });
        round_trip(Message::Result {
            worker: "w2".into(),
            shard: ShardId(1),
            attempt: 4,
            outcomes: "outcomes text\n".into(),
            metrics: Some("# mns metrics v1\n".into()),
        });
        round_trip(Message::Shutdown);
    }

    #[test]
    fn empty_payloads_round_trip() {
        round_trip(Message::Assign {
            shard: ShardId(0),
            attempt: 1,
            manifest: String::new(),
        });
        round_trip(Message::Result {
            worker: "w0".into(),
            shard: ShardId(0),
            attempt: 1,
            outcomes: String::new(),
            metrics: None,
        });
    }

    #[test]
    fn corrupt_messages_error_instead_of_panicking() {
        for wire in [
            "",
            "warp 1 2",
            "hello",
            "hello two words",
            "hello ../../etc/passwd",
            "hb w0",
            "hb w0 notanumber",
            "hb w0 1 extra",
            "hello w0\nsurprise payload",
            "assign 0 1",
            "assign 0 1 10\nshort",
            "assign 0 1 2\ntoo long here",
            "result w0 0 1 5 0\nab",
            "result w0 0 1 99999999999999999999 0\n",
            "result w0 0 1 1 18446744073709551615\nx",
        ] {
            assert!(Message::decode(wire).is_err(), "`{wire}` must not decode");
        }
        // A length that splits a multibyte char must error, not panic.
        let wire = "result w0 0 1 1 2\n€";
        assert!(Message::decode(wire).is_err());
    }

    #[test]
    fn worker_names_are_filesystem_safe() {
        assert!(valid_worker_name("w0"));
        assert!(valid_worker_name("node-3_b"));
        assert!(!valid_worker_name(""));
        assert!(!valid_worker_name("a b"));
        assert!(!valid_worker_name("a/b"));
        assert!(!valid_worker_name("café"));
        assert!(!valid_worker_name(&"x".repeat(65)));
    }
}
