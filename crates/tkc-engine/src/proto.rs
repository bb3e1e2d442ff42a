//! The line protocol's pure parsing layer: bytes → [`Command`], with no
//! I/O and no panics.
//!
//! Everything client-controlled is funneled through [`parse_command`] /
//! [`parse_batch_line`], which makes this module the fuzz target for the
//! wire surface: for *any* byte sequence the parser either yields a
//! well-formed command or a [`ParseError`] whose `Display` is the exact
//! `ERR ...` text the server puts on the wire. Invalid UTF-8 is handled
//! lossily (replacement characters parse like any other garbage), token
//! lengths are bounded before any allocation-for-normalization happens,
//! and numeric fields reject anything that does not fit a `u32`.

use std::fmt;

use crate::wal::WalOp;

/// Largest batch a single `BATCH n` command may announce.
pub const MAX_BATCH: u32 = 1_000_000;

/// Longest verb we will normalize; anything longer is unknown by
/// construction (the longest real verb is 8 bytes).
const MAX_VERB_BYTES: usize = 16;

/// How much of a bad token is echoed back in an error message.
const ECHO_BYTES: usize = 32;

/// One parsed wire command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `KAPPA u v` — κ of one edge from the snapshot.
    Kappa(u32, u32),
    /// `MAXK` — largest κ in the snapshot.
    MaxK,
    /// `TRUSS k` — maximal Triangle K-Core summary at level `k`.
    Truss(u32),
    /// `INSERT u v` — durable edge insert (read-your-write κ).
    Insert(u32, u32),
    /// `REMOVE u v` — durable edge remove.
    Remove(u32, u32),
    /// `BATCH n` — `n` op lines follow on the connection.
    Batch(u32),
    /// `EPOCH` — force an epoch publication.
    Epoch,
    /// `STATS` — plain-text counters.
    Stats,
    /// `METRICS` — Prometheus exposition.
    Metrics,
    /// `HEALTH` — engine state (`serving` / `read_only <reason>` / ...).
    Health,
    /// `SLO` — per-verb latency-objective status lines.
    Slo,
    /// `TRACE n` — the last `n` finished spans as JSONL.
    Trace(u32),
    /// `PROMOTE` — fence the old primary and make this follower
    /// writable at a higher term.
    Promote,
    /// `PING`.
    Ping,
    /// `QUIT` — close this connection.
    Quit,
    /// `SHUTDOWN` — graceful server stop.
    Shutdown,
}

/// Why a line failed to parse. `Display` is the wire text after `ERR `.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line had a known verb but bad arguments; carries the usage
    /// string.
    Usage(&'static str),
    /// The verb is not in the protocol (echoes a bounded prefix).
    Unknown(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Usage(u) => write!(f, "usage: {u}"),
            ParseError::Unknown(verb) => write!(f, "unknown command {verb:?}"),
        }
    }
}

/// Truncates arbitrary client bytes to a short, printable echo.
fn echo(token: &str) -> String {
    token
        .chars()
        .take(ECHO_BYTES)
        .map(|c| if c.is_ascii_graphic() { c } else { '?' })
        .collect()
}

/// Parses one (already `\n`-stripped, possibly hostile) command line.
/// Empty / all-whitespace lines yield `None` — the server skips them.
pub fn parse_command(line: &str) -> Option<Result<Command, ParseError>> {
    let mut parts = line.split_whitespace();
    let raw_verb = parts.next()?;
    let verb = if raw_verb.len() <= MAX_VERB_BYTES {
        raw_verb.to_ascii_uppercase()
    } else {
        return Some(Err(ParseError::Unknown(echo(raw_verb))));
    };
    let mut arg = || -> Option<u32> { parts.next()?.parse().ok() };
    Some(match verb.as_str() {
        "KAPPA" => match (arg(), arg()) {
            (Some(u), Some(v)) => Ok(Command::Kappa(u, v)),
            _ => Err(ParseError::Usage("KAPPA u v")),
        },
        "MAXK" => Ok(Command::MaxK),
        "TRUSS" => match arg() {
            Some(k) => Ok(Command::Truss(k)),
            None => Err(ParseError::Usage("TRUSS k")),
        },
        "INSERT" => match (arg(), arg()) {
            (Some(u), Some(v)) => Ok(Command::Insert(u, v)),
            _ => Err(ParseError::Usage("INSERT u v")),
        },
        "REMOVE" => match (arg(), arg()) {
            (Some(u), Some(v)) => Ok(Command::Remove(u, v)),
            _ => Err(ParseError::Usage("REMOVE u v")),
        },
        "BATCH" => match arg() {
            Some(n) if n <= MAX_BATCH => Ok(Command::Batch(n)),
            _ => Err(ParseError::Usage("BATCH n (n <= 1000000)")),
        },
        "SLO" => Ok(Command::Slo),
        "TRACE" => match arg() {
            Some(n) if n >= 1 => Ok(Command::Trace(n)),
            _ => Err(ParseError::Usage("TRACE n (n >= 1)")),
        },
        "EPOCH" => Ok(Command::Epoch),
        "STATS" => Ok(Command::Stats),
        "METRICS" => Ok(Command::Metrics),
        "HEALTH" => Ok(Command::Health),
        "PROMOTE" => Ok(Command::Promote),
        "PING" => Ok(Command::Ping),
        "QUIT" => Ok(Command::Quit),
        "SHUTDOWN" => Ok(Command::Shutdown),
        _ => Err(ParseError::Unknown(echo(&verb))),
    })
}

/// Parses one `+ u v` / `- u v` batch body line.
pub fn parse_batch_line(t: &str) -> Option<WalOp> {
    let mut parts = t.split_whitespace();
    let sign = parts.next()?;
    let u: u32 = parts.next()?.parse().ok()?;
    let v: u32 = parts.next()?.parse().ok()?;
    match sign {
        "+" => Some(WalOp::Insert(u, v)),
        "-" => Some(WalOp::Remove(u, v)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn happy_paths_parse() {
        assert_eq!(
            parse_command("KAPPA 3 7").unwrap().unwrap(),
            Command::Kappa(3, 7)
        );
        assert_eq!(
            parse_command("  insert 0 1 ").unwrap().unwrap(),
            Command::Insert(0, 1)
        );
        assert_eq!(
            parse_command("BATCH 1000000").unwrap().unwrap(),
            Command::Batch(1_000_000)
        );
        assert_eq!(parse_command("ping").unwrap().unwrap(), Command::Ping);
        assert_eq!(parse_command("promote").unwrap().unwrap(), Command::Promote);
        assert_eq!(parse_command("slo").unwrap().unwrap(), Command::Slo);
        assert_eq!(
            parse_command("TRACE 25").unwrap().unwrap(),
            Command::Trace(25)
        );
        assert_eq!(
            parse_command("trace 0").unwrap().unwrap_err().to_string(),
            "usage: TRACE n (n >= 1)"
        );
        assert_eq!(
            parse_command("TRACE").unwrap().unwrap_err().to_string(),
            "usage: TRACE n (n >= 1)"
        );
        assert!(parse_command("").is_none());
        assert!(parse_command("   \t  ").is_none());
    }

    #[test]
    fn errors_render_wire_text() {
        assert_eq!(
            parse_command("KAPPA one two")
                .unwrap()
                .unwrap_err()
                .to_string(),
            "usage: KAPPA u v"
        );
        assert_eq!(
            parse_command("FROBNICATE")
                .unwrap()
                .unwrap_err()
                .to_string(),
            "unknown command \"FROBNICATE\""
        );
        assert_eq!(
            parse_command("BATCH 1000001")
                .unwrap()
                .unwrap_err()
                .to_string(),
            "usage: BATCH n (n <= 1000000)"
        );
    }

    #[test]
    fn hostile_tokens_are_bounded_and_sanitized() {
        let long = "A".repeat(10_000);
        let Err(ParseError::Unknown(echoed)) = parse_command(&long).unwrap() else {
            panic!("expected unknown command");
        };
        assert!(echoed.len() <= 32);
        // Control bytes never echo raw.
        let Err(ParseError::Unknown(echoed)) = parse_command("\u{1}\u{2}evil").unwrap() else {
            panic!("expected unknown command");
        };
        assert!(echoed.chars().all(|c| c.is_ascii_graphic() || c == '?'));
    }

    #[test]
    fn numeric_overflow_is_usage_not_panic() {
        assert!(parse_command("INSERT 4294967296 0").unwrap().is_err());
        assert!(parse_command("TRUSS -1").unwrap().is_err());
        assert!(parse_batch_line("+ 4294967296 0").is_none());
        assert!(parse_batch_line("+ 1").is_none());
        assert!(parse_batch_line("* 1 2").is_none());
        assert_eq!(parse_batch_line("- 1 2"), Some(WalOp::Remove(1, 2)));
    }
}
