//! Just enough HTTP/1.1 to carry the service protocol over a raw
//! [`std::net::TcpStream`]: request-line + header parsing with a bounded
//! body, and plain / streaming response writers that each send their
//! response in one write.
//!
//! Every response closes the connection (`Connection: close`), which is what
//! makes the NDJSON stream EOF-terminated — no chunked transfer encoding,
//! no keep-alive state machine.  Request bodies must be framed by
//! `Content-Length`; a `Transfer-Encoding` body is refused, and a client
//! that sends `Expect: 100-continue` gets its interim `100 Continue` before
//! the body is read.

use std::io::{self, BufRead, BufWriter, Write};

use crate::json::Json;

/// Maximum allowed size of a single header line (request line included).
const MAX_LINE_BYTES: usize = 64 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// The request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, e.g. `/jobs` or `/jobs/3`.
    pub path: String,
    /// The `X-HTD-Tenant` header, when the client sent one.  The server
    /// keys fair-share scheduling by it, falling back to the peer address.
    pub tenant: Option<String>,
    /// The decoded body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The socket failed or the peer closed before a full request arrived.
    Io(io::Error),
    /// The request was syntactically malformed (maps to `400`).
    Malformed(String),
    /// The declared body exceeds the server's cap (maps to `413`).
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
    /// The body is framed by `Transfer-Encoding` instead of
    /// `Content-Length` (maps to `411`).
    LengthRequired(String),
}

impl From<io::Error> for RequestError {
    fn from(err: io::Error) -> Self {
        RequestError::Io(err)
    }
}

/// Reads one already-buffered request from `reader`, capping the body at
/// `max_body` bytes: [`read_request_with_interim`] with nowhere to send an
/// interim response, so an `Expect: 100-continue` goes unanswered.
///
/// # Errors
///
/// As [`read_request_with_interim`].
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, RequestError> {
    read_request_with_interim(reader, &mut io::sink(), max_body)
}

/// Reads one request from `reader`, capping the body at `max_body` bytes.
///
/// When the request carries `Expect: 100-continue` and passes the header
/// checks, the interim `HTTP/1.1 100 Continue` response is written to
/// `interim` before the body is read, so a client waiting for it sends the
/// body at once instead of after its own timeout.  A request refused on its
/// headers (oversized, or framed by `Transfer-Encoding`) gets no interim
/// response: the caller answers it with the final status.
///
/// # Errors
///
/// [`RequestError::Malformed`] on syntax errors, [`RequestError::TooLarge`]
/// when `Content-Length` exceeds the cap, [`RequestError::LengthRequired`]
/// when the request has a `Transfer-Encoding` header,
/// [`RequestError::Io`] when the underlying stream fails.
pub fn read_request_with_interim(
    reader: &mut impl BufRead,
    interim: &mut impl Write,
    max_body: usize,
) -> Result<Request, RequestError> {
    let line = read_line(reader)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Malformed(format!(
            "bad request line: {line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    let method = method.to_owned();
    let path = path.to_owned();

    let mut content_length = 0usize;
    let mut tenant = None;
    let mut transfer_encoding = None;
    // HTTP/1.0 requests must have the expectation ignored (RFC 9110 10.1.1).
    let mut expect_continue = false;
    let continue_allowed = version != "HTTP/1.0";
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header: {line:?}")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                RequestError::Malformed(format!("bad Content-Length: {:?}", value.trim()))
            })?;
        } else if name.trim().eq_ignore_ascii_case("x-htd-tenant") {
            let value = value.trim();
            if !value.is_empty() {
                tenant = Some(value.to_owned());
            }
        } else if name.trim().eq_ignore_ascii_case("transfer-encoding") {
            transfer_encoding = Some(value.trim().to_owned());
        } else if name.trim().eq_ignore_ascii_case("expect") {
            expect_continue = continue_allowed && value.trim().eq_ignore_ascii_case("100-continue");
        }
    }
    if let Some(coding) = transfer_encoding {
        return Err(RequestError::LengthRequired(format!(
            "request bodies with Transfer-Encoding {coding:?} are not supported; \
             send the body with a Content-Length header"
        )));
    }
    if content_length > max_body {
        return Err(RequestError::TooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    if expect_continue {
        interim.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        interim.flush()?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| RequestError::Malformed("body is not valid UTF-8".to_owned()))?;
    Ok(Request {
        method,
        path,
        tenant,
        body,
    })
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the terminator.
fn read_line(reader: &mut impl BufRead) -> Result<String, RequestError> {
    let mut raw = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if raw.is_empty() {
                    return Err(RequestError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a full request",
                    )));
                }
                break;
            }
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                raw.push(byte[0]);
                if raw.len() > MAX_LINE_BYTES {
                    return Err(RequestError::Malformed("header line too long".to_owned()));
                }
            }
        }
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map_err(|_| RequestError::Malformed("header line is not valid UTF-8".to_owned()))
}

/// Writes a complete JSON response with `Content-Length` framing, built
/// whole and sent in one write.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_json(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    body: &Json,
) -> io::Result<()> {
    let payload = body.to_string();
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{payload}\n",
        payload.len() + 1
    );
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// Writes the structured error schema: `{"error":{"code":...,"message":...}}`.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_error(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    code: &str,
    message: &str,
) -> io::Result<()> {
    let body = Json::obj([(
        "error",
        Json::obj([("code", Json::str(code)), ("message", Json::str(message))]),
    )]);
    write_json(writer, status, reason, &body)
}

/// Starts an EOF-terminated NDJSON stream: the status line, the headers and
/// the stream's `first` frame, sent in one write.  The caller then writes
/// one JSON document per line and closes the socket.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_stream_head(writer: &mut impl Write, first: &Json) -> io::Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(
        out,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n{first}"
    )?;
    out.flush()
}

/// A writer that records its bytes and counts the `write` calls that
/// reach it, for the tests that pin how many pieces a response goes out in.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) writes: usize,
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    /// Parses `raw` and returns what was written back before the body.
    fn parse_with_interim(raw: &str) -> (Result<Request, RequestError>, String) {
        let mut interim = Vec::new();
        let result =
            read_request_with_interim(&mut BufReader::new(raw.as_bytes()), &mut interim, 1024);
        (result, String::from_utf8(interim).unwrap())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "body");
    }

    #[test]
    fn extracts_the_tenant_header_case_insensitively() {
        let req =
            parse("POST /jobs HTTP/1.1\r\nx-htd-tenant:  alice \r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        assert_eq!(req.tenant.as_deref(), Some("alice"));
        let req = parse("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.tenant, None);
        // An empty tenant value is treated as absent, not as a tenant named "".
        let req = parse("GET /stats HTTP/1.1\r\nX-HTD-Tenant:\r\n\r\n").unwrap();
        assert_eq!(req.tenant, None);
    }

    #[test]
    fn parses_bare_lf_requests() {
        let req = parse("GET /stats HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let err = parse("POST /jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n").unwrap_err();
        match err {
            RequestError::TooLarge { declared, limit } => {
                assert_eq!(declared, 4096);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn answers_expect_100_continue_before_the_body() {
        let (req, interim) = parse_with_interim(
            "POST /jobs HTTP/1.1\r\nExpect: 100-Continue\r\nContent-Length: 4\r\n\r\nbody",
        );
        assert_eq!(req.unwrap().body, "body");
        assert_eq!(interim, "HTTP/1.1 100 Continue\r\n\r\n");
        // No expectation, or an HTTP/1.0 client: no interim response.
        let (_, interim) =
            parse_with_interim("POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody");
        assert_eq!(interim, "");
        let (_, interim) = parse_with_interim(
            "POST /jobs HTTP/1.0\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\nbody",
        );
        assert_eq!(interim, "");
        // An oversized declaration is refused without inviting the body.
        let (req, interim) = parse_with_interim(
            "POST /jobs HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 4096\r\n\r\n",
        );
        assert!(matches!(req, Err(RequestError::TooLarge { .. })));
        assert_eq!(interim, "");
    }

    #[test]
    fn rejects_transfer_encoded_bodies_before_reading_them() {
        let (req, interim) = parse_with_interim(
            "POST /jobs HTTP/1.1\r\nExpect: 100-continue\r\nTransfer-Encoding: chunked\r\n\r\n\
             4\r\nbody\r\n0\r\n\r\n",
        );
        match req {
            Err(RequestError::LengthRequired(message)) => {
                assert!(message.contains("chunked"), "{message}");
            }
            other => panic!("expected LengthRequired, got {other:?}"),
        }
        assert_eq!(interim, "");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            parse("NONSENSE\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /stats SPDY/3\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn a_json_response_goes_out_in_one_write() {
        let body = Json::obj([
            ("job", Json::UInt(3)),
            ("state", Json::str("running \"AES-T100\"\n")),
        ]);
        let mut out = CountingWriter::default();
        write_json(&mut out, 200, "OK", &body).unwrap();
        assert_eq!(out.writes, 1);
        let payload = format!("{body}\n");
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{payload}",
                payload.len()
            )
        );
    }

    #[test]
    fn error_responses_use_the_structured_schema() {
        let mut out = Vec::new();
        write_error(
            &mut out,
            503,
            "Service Unavailable",
            "overloaded",
            "queue full",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        let body = text.split("\r\n\r\n").nth(1).unwrap().trim();
        let parsed = Json::parse(body).unwrap();
        assert_eq!(
            parsed
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
    }
}
