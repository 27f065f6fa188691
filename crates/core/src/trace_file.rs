//! JSON trace files: replay real multi-client workloads through `serve`.
//!
//! A trace file describes the same thing [`ServingTrace`] holds in memory —
//! per-client knobs and engagement token sequences — so captured workloads
//! can be replayed instead of only synthetic ones:
//!
//! ```json
//! {
//!   "clients": [
//!     {
//!       "target_ms": 300,
//!       "preload_kb": 16,
//!       "slo_ms": 450,
//!       "arrival_us": 150,
//!       "engagements": [[101, 7, 23], [45, 45]]
//!     }
//!   ]
//! }
//! ```
//!
//! `engagements` is required; `target_ms` (default 200), `preload_kb`
//! (default 16), `slo_ms` (default: none — the client is a plain
//! target-latency session, not SLO-admitted; `0` and `null` also mean
//! none), `arrival_us` (default 0
//! — the client's arrival offset on the simulated timeline, which the
//! contended track replays and shared-IO batching compares against the
//! batch window), and `idle_us` (default 0 — simulated think time
//! between the client's engagements, opening idle flash windows that a
//! configured prefetcher fills) are optional. No other client key is
//! accepted, and none may appear twice: `"arival_us"` or a second
//! `"target_ms"` is a schema error naming `clients[i].<key>`, not a value
//! silently ignored. Top-level keys other than `clients` (a `comment`, say)
//! are ignored. An example lives at `examples/traces/smoke.json`.
//!
//! The workspace has no `serde`, so this module carries a minimal
//! recursive-descent JSON reader (objects, arrays, unsigned integers,
//! strings, booleans, null) — enough for the schema above, with
//! position-annotated syntax errors. Schema diagnostics name the client
//! index and field: a negative `arrival_us`, a fractional `slo_ms`, or a
//! time value large enough to overflow the simulated timeline is reported
//! as e.g. `clients[3].arrival_us must be an unsigned integer, got '-250'`
//! rather than a generic parse failure. A diagnostic's text is built only
//! when it is returned.
//!
//! **Memory.** Each array and object of the JSON tree is one exact-size
//! allocation, and each client's engagements are copied out of the tree in
//! one pass into its [`Engagements`]' two blocks, so a parsed trace of `C`
//! clients holds `1 + 2·C` heap blocks once the tree is dropped.

use std::fmt;
use std::path::Path;

use sti_device::SimTime;

use crate::serving::{ClientTrace, Engagements, ServingTrace};

/// Errors from reading a JSON trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The JSON was malformed, with a byte offset.
    Syntax {
        /// Byte offset of the error.
        at: usize,
        /// What went wrong.
        reason: String,
    },
    /// The JSON parsed but did not match the trace schema.
    Schema(String),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "io error: {e}"),
            TraceFileError::Syntax { at, reason } => {
                write!(f, "syntax error at byte {at}: {reason}")
            }
            TraceFileError::Schema(why) => write!(f, "schema error: {why}"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// A parsed JSON value (the subset the trace schema needs).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// Unsigned integers only: every number in a trace is a count, token
    /// id, or time value.
    Num(u64),
    /// A numeric token that is not an unsigned integer in range (negative,
    /// fractional, exponent, or wider than `u64`). Kept as text so the
    /// schema layer can reject it **naming the field**, instead of a
    /// generic parse failure at a byte offset.
    BadNum(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// How deep arrays and objects may nest. The schema nests five levels;
/// the bound turns a hostile file of open brackets into a syntax error
/// instead of a stack overflow in the recursive descent.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
    /// Elements of the arrays open around the cursor, innermost last. An
    /// array's elements gather here and move out in one exact-size
    /// allocation when it closes, instead of each array growing its own
    /// `Vec` by doubling.
    items: Vec<Json>,
    /// The same for the fields of the objects open around the cursor.
    fields: Vec<(String, Json)>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), pos: 0, depth: 0, items: Vec::new(), fields: Vec::new() }
    }

    fn error(&self, reason: impl Into<String>) -> TraceFileError {
        TraceFileError::Syntax { at: self.pos, reason: reason.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceFileError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, TraceFileError> {
        match self.peek().ok_or_else(|| self.error("unexpected end of input"))? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self
                        .error(format!("arrays and objects nest deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                nested
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b'0'..=b'9' | b'-' => self.number(),
            b't' if self.eat_literal("true") => Ok(Json::Bool(true)),
            b'f' if self.eat_literal("false") => Ok(Json::Bool(false)),
            b'n' if self.eat_literal("null") => Ok(Json::Null),
            other => Err(self.error(format!(
                "unexpected '{}' (only objects, arrays, strings, unsigned integers, booleans, \
                 and null are supported)",
                other as char
            ))),
        }
    }

    fn object(&mut self) -> Result<Json, TraceFileError> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let start = self.fields.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            self.fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.fields.drain(start..).collect()));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, TraceFileError> {
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let start = self.items.len();
        loop {
            let item = self.value()?;
            self.items.push(item);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.drain(start..).collect()));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, TraceFileError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece, so a
            // string without escapes costs one allocation. Both stops are
            // ASCII, so the run ends on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(
                std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                    .expect("input is valid UTF-8"),
            );
            self.pos += run;
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash.
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => {
                            return Err(
                                self.error(format!("unsupported escape '\\{}'", other as char))
                            )
                        }
                    });
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, TraceFileError> {
        // Consume the whole numeric token — sign, digits, fraction,
        // exponent. Anything that is not a u64 becomes `BadNum`, so the
        // schema layer can name the offending client and field.
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'-' | b'+')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("numeric tokens are ASCII");
        Ok(text.parse::<u64>().map(Json::Num).unwrap_or_else(|_| Json::BadNum(text.to_string())))
    }
}

fn parse_json(text: &str) -> Result<Json, TraceFileError> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    if p.peek().is_some() {
        return Err(p.error("trailing content after the top-level value"));
    }
    Ok(value)
}

impl Json {
    fn field<'a>(&'a self, name: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer. `what` names it in the error; it
    /// is formatted only on that path.
    fn as_num(&self, what: fmt::Arguments<'_>) -> Result<u64, TraceFileError> {
        match self {
            Json::Num(n) => Ok(*n),
            Json::BadNum(text) => Err(TraceFileError::Schema(format!(
                "{what} must be an unsigned integer, got '{text}'"
            ))),
            other => Err(TraceFileError::Schema(format!("{what} must be a number, got {other:?}"))),
        }
    }

    /// [`Json::as_num`] with an inclusive upper bound: values that would
    /// overflow later unit conversions or timeline arithmetic are rejected
    /// here, naming the field, instead of silently wrapping in release
    /// builds.
    fn as_bounded_num(
        &self,
        what: fmt::Arguments<'_>,
        max: u64,
        unit: &str,
    ) -> Result<u64, TraceFileError> {
        let n = self.as_num(what)?;
        if n > max {
            return Err(TraceFileError::Schema(format!(
                "{what} is out of range: {n} {unit} overflows the simulated timeline \
                 (max {max} {unit})"
            )));
        }
        Ok(n)
    }
}

/// Largest accepted millisecond value: `ms → µs` conversion and downstream
/// timeline sums must stay inside `u64` (≈ 584 simulated years of headroom).
const MAX_TIME_MS: u64 = u64::MAX / 1_000_000;
/// Largest accepted arrival offset in microseconds (same headroom rule).
const MAX_ARRIVAL_US: u64 = u64::MAX / 1_000;
/// Largest accepted preload budget in KiB: `kb << 10` must not wrap.
const MAX_PRELOAD_KB: u64 = u64::MAX >> 10;

/// The keys a client object may carry: any other key, or one of these
/// twice, is a schema error (a misspelt `arrival_us` would otherwise
/// replay silently at arrival zero).
const CLIENT_KEYS: [&str; 6] =
    ["target_ms", "preload_kb", "slo_ms", "arrival_us", "idle_us", "engagements"];

fn client_from_json(index: usize, json: &Json) -> Result<ClientTrace, TraceFileError> {
    let Json::Obj(fields) = json else {
        return Err(TraceFileError::Schema(format!("clients[{index}] must be an object")));
    };
    for (i, (key, _)) in fields.iter().enumerate() {
        if !CLIENT_KEYS.contains(&key.as_str()) {
            return Err(TraceFileError::Schema(format!(
                "clients[{index}].{key} is not a client field (expected one of {})",
                CLIENT_KEYS.join(", ")
            )));
        }
        if fields[..i].iter().any(|(earlier, _)| earlier == key) {
            return Err(TraceFileError::Schema(format!(
                "clients[{index}].{key} appears more than once"
            )));
        }
    }
    let target_ms = match json.field("target_ms") {
        Some(v) => {
            v.as_bounded_num(format_args!("clients[{index}].target_ms"), MAX_TIME_MS, "ms")?
        }
        None => 200,
    };
    let preload_kb = match json.field("preload_kb") {
        Some(v) => {
            v.as_bounded_num(format_args!("clients[{index}].preload_kb"), MAX_PRELOAD_KB, "KiB")?
        }
        None => 16,
    };
    // `0` means "no SLO", matching the CLI's 0-is-off flag convention (a
    // literal zero SLO could never be met and would always be rejected).
    let slo = match json.field("slo_ms") {
        Some(Json::Null) | None => None,
        Some(v) => {
            match v.as_bounded_num(format_args!("clients[{index}].slo_ms"), MAX_TIME_MS, "ms")? {
                0 => None,
                ms => Some(SimTime::from_ms(ms)),
            }
        }
    };
    let arrival_us = match json.field("arrival_us") {
        Some(v) => {
            v.as_bounded_num(format_args!("clients[{index}].arrival_us"), MAX_ARRIVAL_US, "µs")?
        }
        None => 0,
    };
    // Think time between the client's engagements; zero (the default)
    // keeps the legacy back-to-back issue schedule.
    let idle_us = match json.field("idle_us") {
        Some(v) => {
            v.as_bounded_num(format_args!("clients[{index}].idle_us"), MAX_ARRIVAL_US, "µs")?
        }
        None => 0,
    };
    let engagements_json = json.field("engagements").ok_or_else(|| {
        TraceFileError::Schema(format!("clients[{index}] is missing \"engagements\""))
    })?;
    let Json::Arr(rows) = engagements_json else {
        return Err(TraceFileError::Schema(format!(
            "clients[{index}].engagements must be an array of token arrays"
        )));
    };
    // One pass writes every row into the flat buffer, sized from the tree
    // (a row that is not an array counts zero here and fails in order below).
    let token_count =
        rows.iter().map(|row| if let Json::Arr(tokens) = row { tokens.len() } else { 0 }).sum();
    check_token_count(index, token_count)?;
    let mut tokens = Vec::with_capacity(token_count);
    let mut ends = Vec::with_capacity(rows.len());
    for (e, row) in rows.iter().enumerate() {
        let Json::Arr(row) = row else {
            return Err(TraceFileError::Schema(format!(
                "clients[{index}].engagements[{e}] must be a token array"
            )));
        };
        if row.is_empty() {
            return Err(TraceFileError::Schema(format!(
                "clients[{index}].engagements[{e}] is empty"
            )));
        }
        for t in row {
            let n = t.as_num(format_args!("clients[{index}].engagements[{e}] token"))?;
            let token = u32::try_from(n).map_err(|_| {
                TraceFileError::Schema(format!(
                    "clients[{index}].engagements[{e}]: token {n} exceeds u32"
                ))
            })?;
            tokens.push(token);
        }
        // In range: the rows hold `token_count` tokens in all.
        ends.push(tokens.len() as u32);
    }
    Ok(ClientTrace {
        target: SimTime::from_ms(target_ms),
        preload_bytes: preload_kb << 10,
        slo,
        arrival: SimTime::from_us(arrival_us),
        idle: SimTime::from_us(idle_us),
        engagements: Engagements::from_parts(tokens, ends),
    })
}

/// Refuses a client of more than `u32::MAX` tokens, whose row ends would
/// not fit [`Engagements`]' `u32` offsets.
fn check_token_count(index: usize, token_count: usize) -> Result<(), TraceFileError> {
    let too_many =
        format_args!("clients[{index}] has {token_count} tokens, more than {}", u32::MAX);
    u32::try_from(token_count).map(drop).map_err(|_| TraceFileError::Schema(too_many.to_string()))
}

/// Parses a trace from JSON text.
///
/// # Errors
///
/// Fails on malformed JSON or a value that does not match the schema.
pub fn parse_trace(text: &str) -> Result<ServingTrace, TraceFileError> {
    let root = parse_json(text)?;
    let clients_json = root
        .field("clients")
        .ok_or_else(|| TraceFileError::Schema("top level is missing \"clients\"".into()))?;
    let Json::Arr(items) = clients_json else {
        return Err(TraceFileError::Schema("\"clients\" must be an array".into()));
    };
    if items.is_empty() {
        return Err(TraceFileError::Schema("a trace needs at least one client".into()));
    }
    let mut clients = Vec::with_capacity(items.len());
    for (i, client) in items.iter().enumerate() {
        clients.push(client_from_json(i, client)?);
    }
    Ok(ServingTrace { clients })
}

/// Reads and parses a trace file.
///
/// # Errors
///
/// Fails on IO errors, malformed JSON, or schema mismatches.
pub fn load_trace(path: impl AsRef<Path>) -> Result<ServingTrace, TraceFileError> {
    parse_trace(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client's row ends are `u32`s: one more token than they can count
    /// is a schema error naming the client, checked on the length alone
    /// (a file that long is not written here).
    #[test]
    fn a_client_of_more_than_u32_max_tokens_is_refused() {
        let most = u32::MAX as usize;
        assert!(check_token_count(3, most).is_ok());
        let err = check_token_count(3, most + 1).unwrap_err();
        assert!(matches!(&err, TraceFileError::Schema(why) if why.starts_with("clients[3] has")));
        assert!(err.to_string().contains(&(most + 1).to_string()), "{err}");
    }

    #[test]
    fn parses_the_documented_schema() {
        let trace = parse_trace(
            r#"{
                "clients": [
                    { "target_ms": 300, "preload_kb": 8, "slo_ms": 450, "arrival_us": 150,
                      "idle_us": 2000, "engagements": [[101, 7, 23], [45, 45]] },
                    { "engagements": [[9]] }
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(trace.clients.len(), 2);
        assert_eq!(trace.total_engagements(), 3);
        let c0 = &trace.clients[0];
        assert_eq!(c0.target, SimTime::from_ms(300));
        assert_eq!(c0.preload_bytes, 8 << 10);
        assert_eq!(c0.slo, Some(SimTime::from_ms(450)));
        assert_eq!(c0.arrival, SimTime::from_us(150));
        assert_eq!(c0.idle, SimTime::from_us(2000));
        assert_eq!(c0.engagements[0], vec![101, 7, 23]);
        let c1 = &trace.clients[1];
        assert_eq!(c1.target, SimTime::from_ms(200), "defaults apply");
        assert_eq!(c1.preload_bytes, 16 << 10);
        assert_eq!(c1.slo, None);
        assert_eq!(c1.arrival, SimTime::ZERO, "unspecified arrival is time zero");
        assert_eq!(c1.idle, SimTime::ZERO, "unspecified idle is back-to-back");
    }

    #[test]
    fn zero_and_null_slo_both_mean_no_slo() {
        for input in [
            r#"{ "clients": [ { "slo_ms": 0, "engagements": [[1]] } ] }"#,
            r#"{ "clients": [ { "slo_ms": null, "engagements": [[1]] } ] }"#,
        ] {
            let trace = parse_trace(input).unwrap();
            assert_eq!(trace.clients[0].slo, None, "{input}");
        }
    }

    #[test]
    fn rejects_malformed_json_with_position() {
        let err = parse_trace("{ \"clients\": [ }").unwrap_err();
        assert!(matches!(err, TraceFileError::Syntax { .. }), "{err}");
        let err = parse_trace("{ \"clients\": [] } trailing").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn arrays_nested_past_the_bound_are_a_syntax_error_not_a_stack_overflow() {
        let err = parse_trace(&"[".repeat(200_000)).unwrap_err();
        match err {
            TraceFileError::Syntax { at, reason } => {
                assert_eq!(at, MAX_DEPTH, "the first bracket past the bound");
                assert!(reason.contains("deeper than 64 levels"), "{reason}");
            }
            other => panic!("expected a syntax error, got {other}"),
        }
        // At the bound the reader still parses; the schema rejects the file.
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(matches!(parse_trace(&at_bound), Err(TraceFileError::Schema(_))));
    }

    #[test]
    fn objects_nested_past_the_bound_are_a_syntax_error_not_a_stack_overflow() {
        let err = parse_trace(&"{\"a\":".repeat(200_000)).unwrap_err();
        assert!(matches!(err, TraceFileError::Syntax { .. }), "{err}");
        assert!(err.to_string().contains("deeper than 64 levels"), "{err}");
    }

    #[test]
    fn rejects_schema_violations() {
        for (input, needle) in [
            (r#"{}"#, "missing \"clients\""),
            (r#"{ "clients": [] }"#, "at least one client"),
            (r#"{ "clients": [ {} ] }"#, "missing \"engagements\""),
            (r#"{ "clients": [ { "engagements": [[]] } ] }"#, "empty"),
            (r#"{ "clients": [ { "engagements": [[4294967296]] } ] }"#, "exceeds u32"),
            (r#"{ "clients": [ { "target_ms": "fast", "engagements": [[1]] } ] }"#, "number"),
            (r#"{ "clients": [ { "arrival_us": "soon", "engagements": [[1]] } ] }"#, "number"),
        ] {
            let err = parse_trace(input).unwrap_err();
            assert!(err.to_string().contains(needle), "{input} -> {err}");
        }
    }

    #[test]
    fn rejects_floats_and_negatives_naming_the_field() {
        // Non-integer numeric tokens are schema errors that name the
        // offending client and field, not generic byte-offset failures.
        for (input, needle) in [
            (
                r#"{ "clients": [ { "engagements": [[1.5]] } ] }"#,
                "clients[0].engagements[0] token must be an unsigned integer, got '1.5'",
            ),
            (
                r#"{ "clients": [ { "engagements": [[-3]] } ] }"#,
                "clients[0].engagements[0] token must be an unsigned integer, got '-3'",
            ),
            (
                r#"{ "clients": [ { "engagements": [[1]] }, { "arrival_us": -250, "engagements": [[1]] } ] }"#,
                "clients[1].arrival_us must be an unsigned integer, got '-250'",
            ),
            (
                r#"{ "clients": [ { "slo_ms": 1.25e3, "engagements": [[1]] } ] }"#,
                "clients[0].slo_ms must be an unsigned integer, got '1.25e3'",
            ),
            (
                r#"{ "clients": [ { "slo_ms": 99999999999999999999999, "engagements": [[1]] } ] }"#,
                "clients[0].slo_ms must be an unsigned integer",
            ),
        ] {
            let err = parse_trace(input).unwrap_err();
            assert!(matches!(err, TraceFileError::Schema(_)), "{input} -> {err}");
            assert!(err.to_string().contains(needle), "{input} -> {err}");
        }
    }

    #[test]
    fn rejects_out_of_range_times_naming_the_field() {
        // Values that would overflow the ms→µs conversion (silent wrapping
        // in release builds before this guard) are rejected with the client
        // index and field named.
        let too_many_ms = MAX_TIME_MS + 1;
        let err = parse_trace(&format!(
            r#"{{ "clients": [ {{ "engagements": [[1]] }}, {{ "slo_ms": {too_many_ms}, "engagements": [[1]] }} ] }}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains("clients[1].slo_ms is out of range"), "{err}");
        let err = parse_trace(&format!(
            r#"{{ "clients": [ {{ "target_ms": {too_many_ms}, "engagements": [[1]] }} ] }}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains("clients[0].target_ms is out of range"), "{err}");
        let too_late = MAX_ARRIVAL_US + 1;
        let err = parse_trace(&format!(
            r#"{{ "clients": [ {{ "arrival_us": {too_late}, "engagements": [[1]] }} ] }}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains("clients[0].arrival_us is out of range"), "{err}");
        let too_big = MAX_PRELOAD_KB + 1;
        let err = parse_trace(&format!(
            r#"{{ "clients": [ {{ "preload_kb": {too_big}, "engagements": [[1]] }} ] }}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains("clients[0].preload_kb is out of range"), "{err}");
        // The bounds themselves are accepted.
        let trace = parse_trace(&format!(
            r#"{{ "clients": [ {{ "slo_ms": {MAX_TIME_MS}, "arrival_us": {MAX_ARRIVAL_US}, "engagements": [[1]] }} ] }}"#
        ))
        .unwrap();
        assert_eq!(trace.clients[0].slo, Some(SimTime::from_ms(MAX_TIME_MS)));
    }

    #[test]
    fn unknown_or_repeated_client_keys_are_schema_errors_naming_the_key() {
        for (input, needle) in [
            (
                r#"{ "clients": [ { "engagements": [[1]] }, { "arival_us": 5000, "engagements": [[1]] } ] }"#,
                "clients[1].arival_us is not a client field (expected one of target_ms, \
                 preload_kb, slo_ms, arrival_us, idle_us, engagements)",
            ),
            (
                r#"{ "clients": [ { "target_ms": 300, "engagements": [[1]], "target_ms": 100 } ] }"#,
                "clients[0].target_ms appears more than once",
            ),
            (
                r#"{ "clients": [ { "engagements": [[1]], "engagements": [[2]] } ] }"#,
                "clients[0].engagements appears more than once",
            ),
            (
                r#"{ "clients": [ { "comment": "x", "engagements": [[1]] } ] }"#,
                "clients[0].comment",
            ),
        ] {
            let err = parse_trace(input).unwrap_err();
            assert!(matches!(err, TraceFileError::Schema(_)), "{input} -> {err}");
            assert!(err.to_string().contains(needle), "{input} -> {err}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        // Unknown top-level keys are tolerated (the shipped traces carry a
        // `comment`), including string values with escapes.
        let trace = parse_trace(
            r#"{ "comment": "a \"quoted\"\nnote", "clients": [ { "engagements": [[1]] } ] }"#,
        )
        .unwrap();
        assert_eq!(trace.clients.len(), 1);
    }

    #[test]
    fn load_trace_reads_the_shipped_example() {
        // The example under examples/traces is part of the public contract
        // (the CI smoke job replays it).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/traces/smoke.json");
        let trace = load_trace(path).unwrap();
        assert!(trace.total_engagements() >= 4);
        assert!(trace.clients.iter().any(|c| c.slo.is_some()), "example exercises SLO clients");
        assert!(
            trace.clients.iter().any(|c| c.arrival > SimTime::ZERO),
            "example exercises trace-driven arrival offsets"
        );
    }
}
