//! A blocking client for the service protocol, used by `htd submit` /
//! `htd cancel`-style tooling and the end-to-end tests.
//!
//! [`submit`] streams a netlist to a daemon and surfaces every NDJSON frame
//! through a callback as it arrives, returning the terminal report;
//! [`submit_with_options`] adds tenancy, per-job budgets and bounded retry
//! with deterministic jitter ([`RetryPolicy`]); [`stats`] and [`cancel`]
//! wrap the plain JSON endpoints.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::json::Json;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing or reading the socket failed.
    Io(String),
    /// The server's answer did not follow the protocol.
    Protocol(String),
    /// The server answered with its structured error schema (admission
    /// rejections, parse errors) or streamed a terminal `error` frame
    /// (cancellation, flow failures).
    Server {
        /// The machine-readable error code (`overloaded`, `cancelled`, ...).
        code: String,
        /// The human-readable message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(message) => write!(f, "connection failed: {message}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Bounded retry with exponential backoff and deterministic jitter.
///
/// Retries apply only to *pre-acceptance* failures — a refused connection,
/// `503 overloaded`, `503 draining` — never to a job that was already
/// accepted (re-submitting it would start a second run of the same
/// netlist).  The jitter is seeded, not sampled from a global
/// RNG, so a given policy always produces the same schedule: tests assert
/// on it, and two clients desynchronise simply by seeding differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times to retry after the first attempt fails.
    pub retries: u32,
    /// Backoff base: attempt `i` sleeps `base * 2^i` plus jitter in
    /// `[0, base)`.
    pub base: Duration,
    /// Seed of the jitter sequence.
    pub seed: u64,
}

impl RetryPolicy {
    /// The full backoff schedule this policy will sleep through, one entry
    /// per retry.
    #[must_use]
    pub fn schedule(&self) -> Vec<Duration> {
        let mut state = self.seed | 1;
        let base_ms = u64::try_from(self.base.as_millis()).unwrap_or(u64::MAX);
        (0..self.retries)
            .map(|attempt| {
                // xorshift64: cheap, dependency-free, deterministic.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let backoff = self.base.saturating_mul(1u32 << attempt.min(16));
                let jitter_ms = if base_ms == 0 { 0 } else { state % base_ms };
                backoff.saturating_add(Duration::from_millis(jitter_ms))
            })
            .collect()
    }
}

/// Options for [`submit_with_options`]; the default submits exactly like
/// [`submit`] — no tenant header, unlimited budget, no retries.
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    /// Sent as the `X-HTD-Tenant` header for fair-share scheduling.
    pub tenant: Option<String>,
    /// Per-job wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-job solver-conflict budget.
    pub conflict_ceiling: Option<u64>,
    /// Retry refused/overloaded/draining submissions on this schedule.
    pub retry: Option<RetryPolicy>,
}

/// The result of a successful [`submit`]: the job's identity and terminal
/// frames.
#[derive(Debug)]
pub struct Submission {
    /// The server-assigned job id.
    pub job: u64,
    /// The report text streamed in the terminal frame — byte-identical to
    /// `htd detect --normalize` output for the same netlist.
    pub report_text: String,
    /// The one-line summary (`<design>: SECURE`, ...).
    pub summary: String,
    /// The `stats` frame, when the server sent one (wall-clock, queue
    /// depth, solver/session counters).
    pub stats: Option<Json>,
}

/// Submits a netlist to the daemon at `addr` and drains the NDJSON stream,
/// invoking `on_line` with every raw frame line as it arrives.
///
/// # Errors
///
/// [`ClientError::Server`] when the daemon rejects the submission or the job
/// ends in a terminal `error` frame; [`ClientError::Protocol`] when the
/// stream ends without a report; [`ClientError::Io`] on socket failures.
pub fn submit(
    addr: &str,
    netlist: &str,
    on_line: &mut dyn FnMut(&str),
) -> Result<Submission, ClientError> {
    submit_with_options(addr, netlist, &SubmitOptions::default(), on_line)
}

/// [`submit`] with tenancy, a per-job budget, and bounded retry.
///
/// With a [`RetryPolicy`], pre-acceptance failures (refused connection,
/// `503 overloaded`, `503 draining`) are retried on the policy's backoff
/// schedule; any failure after the job was accepted — including a terminal
/// `error` or `budget_exhausted` frame — is surfaced immediately.
///
/// # Errors
///
/// As [`submit`], after the retry schedule (if any) is exhausted.
pub fn submit_with_options(
    addr: &str,
    netlist: &str,
    options: &SubmitOptions,
    on_line: &mut dyn FnMut(&str),
) -> Result<Submission, ClientError> {
    let schedule = options.retry.map(|policy| policy.schedule());
    let mut delays = schedule.iter().flatten();
    loop {
        match submit_once(addr, netlist, options, on_line) {
            Ok(submission) => return Ok(submission),
            Err((error, accepted)) => {
                let retryable = !accepted && is_retryable(&error);
                match delays.next() {
                    Some(delay) if retryable => std::thread::sleep(*delay),
                    _ => return Err(error),
                }
            }
        }
    }
}

/// Whether a pre-acceptance failure is worth retrying: transient admission
/// pushback or a connection that never got through.
fn is_retryable(error: &ClientError) -> bool {
    match error {
        ClientError::Io(_) => true,
        ClientError::Server { code, .. } => code == "overloaded" || code == "draining",
        ClientError::Protocol(_) => false,
    }
}

/// One submission attempt; errors carry whether the job had already been
/// accepted (accepted jobs must not be retried).
fn submit_once(
    addr: &str,
    netlist: &str,
    options: &SubmitOptions,
    on_line: &mut dyn FnMut(&str),
) -> Result<Submission, (ClientError, bool)> {
    let mut fields = vec![("netlist", Json::str(netlist))];
    if options.deadline_ms.is_some() || options.conflict_ceiling.is_some() {
        let mut budget = Vec::new();
        if let Some(ms) = options.deadline_ms {
            budget.push(("deadline_ms", Json::UInt(ms)));
        }
        if let Some(ceiling) = options.conflict_ceiling {
            budget.push(("conflict_ceiling", Json::UInt(ceiling)));
        }
        fields.push(("budget", Json::obj(budget)));
    }
    let body = Json::obj(fields).to_string();
    let stream = request(
        addr,
        "POST",
        "/jobs",
        Some(&body),
        options.tenant.as_deref(),
    )
    .map_err(|e| (e, false))?;
    let mut reader = BufReader::new(stream);
    let (status, error_body) = read_status_and_headers(&mut reader).map_err(|e| (e, false))?;
    if status != 200 {
        return Err((server_error(status, &error_body, &mut reader), false));
    }

    let mut job = None;
    let mut stats = None;
    let mut line = String::new();
    // From here on the job was accepted: failures must not be retried.
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err((ClientError::Io(e.to_string()), true)),
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        on_line(trimmed);
        let frame = Json::parse(trimmed).map_err(|e| {
            (
                ClientError::Protocol(format!("bad frame {trimmed:?}: {e}")),
                true,
            )
        })?;
        match frame.get("event").and_then(Json::as_str) {
            Some("accepted") => job = frame.get("job").and_then(Json::as_u64),
            Some("stats") => stats = Some(frame),
            Some("report") => {
                let text = frame
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        (
                            ClientError::Protocol("report frame without `text`".to_owned()),
                            true,
                        )
                    })?
                    .to_owned();
                let summary = frame
                    .get("summary")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned();
                // Drain to EOF before returning: the server half-closes the
                // stream only after the job record reaches its terminal
                // state, so a caller's follow-up (an immediate `cancel` or
                // `stats`) observes a settled job, not a closing race.
                let mut rest = String::new();
                let _ = reader.read_to_string(&mut rest);
                return Ok(Submission {
                    job: job.unwrap_or(0),
                    report_text: text,
                    summary,
                    stats,
                });
            }
            Some("error") => {
                // Settle the job record before surfacing the failure, as on
                // the report path above.
                let mut rest = String::new();
                let _ = reader.read_to_string(&mut rest);
                return Err((
                    ClientError::Server {
                        code: frame
                            .get("code")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_owned(),
                        message: frame
                            .get("message")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                    },
                    true,
                ));
            }
            Some("budget_exhausted") => {
                // Terminal like `error`: the verdict is unknown; the frames
                // streamed so far are valid partial progress.
                let mut rest = String::new();
                let _ = reader.read_to_string(&mut rest);
                return Err((
                    ClientError::Server {
                        code: "budget_exhausted".to_owned(),
                        message: frame
                            .get("message")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                    },
                    true,
                ));
            }
            _ => {}
        }
    }
    Err((
        ClientError::Protocol("stream ended before a report or error frame".to_owned()),
        true,
    ))
}

/// Fetches the daemon's `GET /stats` document.
///
/// # Errors
///
/// [`ClientError`] on socket, protocol or server failures.
pub fn stats(addr: &str) -> Result<Json, ClientError> {
    plain_json(addr, "GET", "/stats")
}

/// Cancels a job via `DELETE /jobs/<id>`; returns the server's answer
/// (`{"job":...,"state":...,"cancelled":...}`).
///
/// # Errors
///
/// [`ClientError::Server`] with code `not_found` for unknown job ids, plus
/// the usual socket and protocol failures.
pub fn cancel(addr: &str, job: u64) -> Result<Json, ClientError> {
    plain_json(addr, "DELETE", &format!("/jobs/{job}"))
}

fn plain_json(addr: &str, method: &str, path: &str) -> Result<Json, ClientError> {
    let stream = request(addr, method, path, None, None)?;
    let mut reader = BufReader::new(stream);
    let (status, reason) = read_status_and_headers(&mut reader)?;
    if status != 200 {
        return Err(server_error(status, &reason, &mut reader));
    }
    let mut body = String::new();
    reader
        .read_to_string(&mut body)
        .map_err(|e| ClientError::Io(e.to_string()))?;
    Json::parse(body.trim()).map_err(|e| ClientError::Protocol(format!("bad response body: {e}")))
}

fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    tenant: Option<&str>,
) -> Result<TcpStream, ClientError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
    write_request(&mut stream, method, path, body.unwrap_or(""), tenant)
        .map_err(|e| ClientError::Io(e.to_string()))?;
    Ok(stream)
}

/// Writes one request, head and body built whole and sent in one write.
fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
    tenant: Option<&str>,
) -> io::Result<()> {
    let tenant_header = tenant.map_or(String::new(), |t| format!("X-HTD-Tenant: {t}\r\n"));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: htd\r\nContent-Type: application/json\r\n\
         {tenant_header}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(request.as_bytes())?;
    writer.flush()
}

/// Reads the status line and headers; returns the status code and reason.
fn read_status_and_headers(
    reader: &mut BufReader<TcpStream>,
) -> Result<(u16, String), ClientError> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| ClientError::Io(e.to_string()))?;
    let mut parts = line.trim_end().splitn(3, ' ');
    let (Some(version), Some(code), reason) = (parts.next(), parts.next(), parts.next()) else {
        return Err(ClientError::Protocol(format!("bad status line {line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ClientError::Protocol(format!("bad status line {line:?}")));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| ClientError::Protocol(format!("bad status code {code:?}")))?;
    let reason = reason.unwrap_or("").to_owned();
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim_end().is_empty() => break,
            Ok(_) => {}
            Err(e) => return Err(ClientError::Io(e.to_string())),
        }
    }
    Ok((status, reason))
}

/// Builds a [`ClientError::Server`] from an error response body (falling
/// back to the HTTP reason phrase when the body is unusable).
fn server_error(status: u16, reason: &str, reader: &mut BufReader<TcpStream>) -> ClientError {
    let mut body = String::new();
    let _ = reader.read_to_string(&mut body);
    if let Ok(parsed) = Json::parse(body.trim()) {
        if let Some(error) = parsed.get("error") {
            return ClientError::Server {
                code: error
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_owned(),
                message: error
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            };
        }
    }
    ClientError::Server {
        code: format!("http_{status}"),
        message: reason.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_schedule_is_deterministic_for_a_seed() {
        let policy = RetryPolicy {
            retries: 4,
            base: Duration::from_millis(10),
            seed: 42,
        };
        assert_eq!(policy.schedule(), policy.schedule());
        // Not seed 43: the low bit is forced to 1, so 42 and 43 coincide.
        let other = RetryPolicy { seed: 99, ..policy };
        assert_ne!(policy.schedule(), other.schedule());
    }

    #[test]
    fn retry_schedule_backs_off_exponentially_with_bounded_jitter() {
        let base = Duration::from_millis(10);
        let policy = RetryPolicy {
            retries: 5,
            base,
            seed: 7,
        };
        let schedule = policy.schedule();
        assert_eq!(schedule.len(), 5);
        for (attempt, delay) in schedule.iter().enumerate() {
            let backoff = base * (1 << attempt);
            assert!(
                *delay >= backoff,
                "attempt {attempt}: {delay:?} < {backoff:?}"
            );
            assert!(
                *delay < backoff + base,
                "attempt {attempt}: jitter exceeds base: {delay:?}"
            );
        }
    }

    #[test]
    fn zero_retries_produce_an_empty_schedule() {
        let policy = RetryPolicy {
            retries: 0,
            base: Duration::from_millis(10),
            seed: 1,
        };
        assert!(policy.schedule().is_empty());
    }

    #[test]
    fn a_request_goes_out_in_one_write() {
        let body = Json::obj([("netlist", Json::str("design d\ninput a 1\n"))]).to_string();
        let mut out = crate::http::CountingWriter::default();
        write_request(&mut out, "POST", "/jobs", &body, Some("alice")).unwrap();
        assert_eq!(out.writes, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(
            text,
            format!(
                "POST /jobs HTTP/1.1\r\nHost: htd\r\nContent-Type: application/json\r\n\
                 X-HTD-Tenant: alice\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        );
        // The server's own reader takes it back apart.
        let parsed = crate::http::read_request(&mut text.as_bytes(), 1 << 20).unwrap();
        assert_eq!(parsed.tenant.as_deref(), Some("alice"));
        assert_eq!(parsed.body, body);
    }

    #[test]
    fn only_pre_acceptance_pushback_is_retryable() {
        assert!(is_retryable(&ClientError::Io("refused".into())));
        for code in ["overloaded", "draining"] {
            assert!(is_retryable(&ClientError::Server {
                code: code.into(),
                message: String::new(),
            }));
        }
        for code in ["budget_exhausted", "cancelled", "bad_request", "internal"] {
            assert!(!is_retryable(&ClientError::Server {
                code: code.into(),
                message: String::new(),
            }));
        }
        assert!(!is_retryable(&ClientError::Protocol("bad frame".into())));
    }
}
