//! The minimal HTTP/1.1 gateway riding the same epoll event loop as the
//! line protocol.
//!
//! The gateway is a *translation layer*, not a second server: an
//! incremental parser ([`HttpParser`]) assembles requests from whatever
//! fragmentation the transport produced and maps each route onto the
//! existing line-protocol op it is equivalent to —
//!
//! | route | op |
//! |---|---|
//! | `POST /v1/jobs` (JSON body) | `submit` |
//! | `GET /v1/jobs/{id}` | `poll` |
//! | `GET /v1/metrics` | `metrics` |
//!
//! — so deferral (`wait: true`), FIFO-per-connection responses, and
//! backpressure all work identically on both listeners, and
//! the response **body** is byte-for-byte the line-protocol response (one
//! JSON object plus a trailing newline). `tests/serve.rs` asserts that an
//! HTTP-submitted job and a line-submitted job return identical results.
//!
//! The limits mirror the line protocol's: the header section and the
//! body are each capped at 1 MiB ([`MAX_HEAD`], [`MAX_BODY`]); a request
//! that violates framing (malformed request line, oversized section,
//! `Transfer-Encoding`) is answered with the matching status code and
//! the connection closes — once framing is untrustworthy, so is
//! everything after it. Well-framed requests keep the connection alive
//! per HTTP/1.1 defaults (`Connection: close`, or HTTP/1.0 without
//! `keep-alive`, closes after the response) and may be pipelined.

use crate::json::Json;
use std::collections::VecDeque;

/// Cap on the request line + headers (bytes, terminator included) —
/// the same 1 MiB bound the line protocol places on a request line.
pub const MAX_HEAD: usize = 1 << 20;

/// Cap on a request body (`Content-Length` bytes).
pub const MAX_BODY: usize = 1 << 20;

/// One parsed HTTP request, reduced to what the event loop does with it.
#[derive(Clone, Debug, PartialEq)]
pub enum HttpItem {
    /// The request maps onto a line-protocol op: handle `line` exactly as
    /// if it had arrived on a line connection; frame the eventual
    /// response for HTTP with `close` deciding the `Connection` header.
    Op {
        /// The translated line-protocol request.
        line: String,
        /// Close the connection after the response (client asked, or
        /// HTTP/1.0 default).
        close: bool,
    },
    /// The request was answered by the gateway itself (routing or framing
    /// error): no op runs, `status`/`body` go straight out.
    Direct {
        /// HTTP status code.
        status: u16,
        /// Response body (serialized like every protocol response).
        body: Json,
        /// Close the connection after the response (always set for
        /// framing violations).
        close: bool,
    },
}

/// Per-connection HTTP state: the incremental parser plus the FIFO of
/// per-request close flags (popped as responses are framed — responses
/// are FIFO per connection, so the fronts always correspond).
#[derive(Debug, Default)]
pub struct HttpState {
    /// The incremental request parser.
    pub parser: HttpParser,
    /// `close` flag of each translated-op request still awaiting its
    /// response, in request order.
    pub close_flags: VecDeque<bool>,
}

impl HttpState {
    /// Fresh state for a newly accepted HTTP connection.
    pub fn new() -> HttpState {
        HttpState::default()
    }
}

/// Where the parser is within the current request.
#[derive(Debug, Default)]
enum ParseState {
    /// Accumulating the request line + headers.
    #[default]
    Head,
    /// Head parsed; waiting for `need` body bytes.
    Body { method: String, path: String, close: bool, need: usize },
    /// A framing violation was answered; all further input is ignored
    /// (the connection is closing).
    Dead,
}

/// Incremental HTTP/1.1 request parser. Feed it bytes as they arrive;
/// it yields complete requests ([`HttpItem`]s) in order, however the
/// input was fragmented or pipelined.
#[derive(Debug, Default)]
pub struct HttpParser {
    buf: Vec<u8>,
    state: ParseState,
}

/// A framing violation's response: status, message, and death.
fn violation(status: u16, msg: impl Into<String>) -> HttpItem {
    HttpItem::Direct {
        status,
        body: Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(msg.into()))]),
        close: true,
    }
}

impl HttpParser {
    /// A fresh parser.
    pub fn new() -> HttpParser {
        HttpParser::default()
    }

    /// Feeds received bytes in; returns every request completed by them.
    /// After a framing violation the returned item closes the connection
    /// and the parser goes dead (later bytes are discarded).
    pub fn ingest(&mut self, bytes: &[u8]) -> Vec<HttpItem> {
        if matches!(self.state, ParseState::Dead) {
            return Vec::new();
        }
        self.buf.extend_from_slice(bytes);
        let mut items = Vec::new();
        loop {
            match std::mem::take(&mut self.state) {
                ParseState::Dead => unreachable!("checked above; never re-entered"),
                ParseState::Head => {
                    let Some((head_len, term_len)) = find_head_end(&self.buf) else {
                        if self.buf.len() > MAX_HEAD {
                            items.push(violation(
                                431,
                                format!("header section exceeds {MAX_HEAD} bytes"),
                            ));
                            self.state = ParseState::Dead;
                            self.buf.clear();
                        } else {
                            self.state = ParseState::Head;
                        }
                        return items;
                    };
                    if head_len + term_len > MAX_HEAD {
                        items.push(violation(
                            431,
                            format!("header section exceeds {MAX_HEAD} bytes"),
                        ));
                        self.state = ParseState::Dead;
                        self.buf.clear();
                        return items;
                    }
                    let head = self.buf[..head_len].to_vec();
                    self.buf.drain(..head_len + term_len);
                    match parse_head(&head) {
                        Ok((method, path, close, need)) => {
                            self.state = ParseState::Body { method, path, close, need };
                        }
                        Err(item) => {
                            items.push(item);
                            self.state = ParseState::Dead;
                            self.buf.clear();
                            return items;
                        }
                    }
                }
                ParseState::Body { method, path, close, need } => {
                    if self.buf.len() < need {
                        self.state = ParseState::Body { method, path, close, need };
                        return items;
                    }
                    let body: Vec<u8> = self.buf.drain(..need).collect();
                    items.push(route(&method, &path, &body, close));
                    self.state = ParseState::Head; // pipelining: keep going
                }
            }
        }
    }
}

/// Finds the end of the header section: `(head_len, terminator_len)`
/// where the head is `buf[..head_len]` and the body starts at
/// `head_len + terminator_len`. Accepts `\r\n\r\n` and bare `\n\n` (and
/// the mixed `\n\r\n`).
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] != b'\n' {
            i += 1;
            continue;
        }
        match buf.get(i + 1) {
            Some(b'\n') => return Some((i + 1, 1)),
            Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some((i + 1, 2)),
            _ => i += 1,
        }
    }
    None
}

/// Parses the request line + headers. Returns
/// `(method, path, close_after_response, content_length)` or the
/// violation to answer with.
#[allow(clippy::type_complexity)]
fn parse_head(head: &[u8]) -> Result<(String, String, bool, usize), HttpItem> {
    let text = std::str::from_utf8(head)
        .map_err(|_| violation(400, "request head is not valid UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(violation(400, format!("malformed request line `{request_line}`")));
    };
    let mut keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(violation(505, format!("unsupported protocol version `{version}`"))),
    };
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(violation(400, format!("malformed header line `{line}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| violation(400, format!("bad Content-Length `{value}`")))?;
                if content_length > MAX_BODY {
                    return Err(violation(
                        413,
                        format!("request body exceeds {MAX_BODY} bytes"),
                    ));
                }
            }
            "transfer-encoding" => {
                return Err(violation(
                    501,
                    "Transfer-Encoding is not supported; send Content-Length",
                ));
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.split(',').any(|t| t.trim() == "close") {
                    keep_alive = false;
                } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    // Strip any query string: the routes don't take parameters.
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok((method.to_string(), path, !keep_alive, content_length))
}

/// Maps one complete request onto its line-protocol op (or a direct
/// routing/validation answer).
fn route(method: &str, path: &str, body: &[u8], close: bool) -> HttpItem {
    match (method, path) {
        ("GET", "/v1/metrics") => {
            HttpItem::Op { line: r#"{"op": "metrics"}"#.to_string(), close }
        }
        ("POST", "/v1/jobs") => match submit_line(body) {
            Ok(line) => HttpItem::Op { line, close },
            Err(msg) => HttpItem::Direct {
                status: 400,
                body: Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(msg))]),
                close,
            },
        },
        (_, p) if p.strip_prefix("/v1/jobs/").is_some_and(|id| !id.is_empty()) => {
            let id = p.strip_prefix("/v1/jobs/").expect("guard above");
            if method != "GET" {
                return method_not_allowed(method, p, "GET", close);
            }
            match id.parse::<u64>() {
                Ok(n) => {
                    HttpItem::Op { line: format!(r#"{{"op": "poll", "job": {n}}}"#), close }
                }
                Err(_) => HttpItem::Direct {
                    status: 404,
                    body: Json::obj([
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str(format!("unknown job {id}"))),
                    ]),
                    close,
                },
            }
        }
        (_, "/v1/metrics") => method_not_allowed(method, path, "GET", close),
        (_, "/v1/jobs") => method_not_allowed(method, path, "POST", close),
        _ => HttpItem::Direct {
            status: 404,
            body: Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::Str(format!("no route for {method} {path}"))),
            ]),
            close,
        },
    }
}

fn method_not_allowed(method: &str, path: &str, allowed: &str, close: bool) -> HttpItem {
    HttpItem::Direct {
        status: 405,
        body: Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::Str(format!("{method} not allowed on {path}; use {allowed}"))),
        ]),
        close,
    }
}

/// Builds the `submit` op line from a `POST /v1/jobs` body: the body must
/// be a JSON object; its members pass through verbatim with
/// `"op": "submit"` prepended (any client-supplied `op` is dropped), so
/// validation and defaults live in `protocol::SubmitSpec` — one
/// implementation for both listeners.
fn submit_line(body: &[u8]) -> Result<String, String> {
    let text =
        std::str::from_utf8(body).map_err(|_| "request body is not valid UTF-8".to_string())?;
    let parsed = Json::parse(text).map_err(|e| format!("request body: {e}"))?;
    let Json::Obj(pairs) = parsed else {
        return Err("request body must be a JSON object".to_string());
    };
    let mut members = vec![("op".to_string(), Json::Str("submit".to_string()))];
    members.extend(pairs.into_iter().filter(|(k, _)| k != "op"));
    Ok(Json::Obj(members).to_string())
}

/// The HTTP status a line-protocol response maps to: `ok: true` → 200;
/// an `unknown job` error → 404; any other protocol error → 400.
pub fn status_for(response: &Json) -> u16 {
    if matches!(response.get("ok"), Some(Json::Bool(true))) {
        return 200;
    }
    match response.get("error").and_then(Json::as_str) {
        Some(e) if e.starts_with("unknown job") => 404,
        _ => 400,
    }
}

/// The standard reason phrase for the statuses the gateway emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}

/// Frames one response: status line, `Content-Type`/`Content-Length`/
/// `Connection` headers, and the body — which is byte-for-byte the
/// line-protocol response (one JSON object + `\n`), keeping the two
/// listeners' payloads identical.
pub fn frame_response(status: u16, response: &Json, close: bool) -> Vec<u8> {
    let body = format!("{response}\n");
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_line(item: &HttpItem) -> &str {
        match item {
            HttpItem::Op { line, .. } => line,
            HttpItem::Direct { .. } => panic!("expected Op, got {item:?}"),
        }
    }

    fn direct_status(item: &HttpItem) -> u16 {
        match item {
            HttpItem::Direct { status, .. } => *status,
            HttpItem::Op { .. } => panic!("expected Direct, got {item:?}"),
        }
    }

    #[test]
    fn routes_map_onto_line_protocol_ops() {
        let mut p = HttpParser::new();
        let items = p.ingest(b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(items.len(), 1);
        assert_eq!(op_line(&items[0]), r#"{"op": "metrics"}"#);
        assert!(matches!(items[0], HttpItem::Op { close: false, .. }), "1.1 keeps alive");

        let items = p.ingest(b"GET /v1/jobs/42 HTTP/1.1\r\n\r\n");
        assert_eq!(op_line(&items[0]), r#"{"op": "poll", "job": 42}"#);

        let body = br#"{"kernels": ["compress"], "insts": 20000}"#;
        let req = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut items = p.ingest(req.as_bytes());
        items.extend(p.ingest(body));
        assert_eq!(items.len(), 1);
        assert_eq!(
            op_line(&items[0]),
            r#"{"op": "submit", "kernels": ["compress"], "insts": 20000}"#
        );
    }

    #[test]
    fn client_supplied_op_member_cannot_smuggle_another_operation() {
        let body = br#"{"op": "shutdown", "kernels": ["compress"], "insts": 20000}"#;
        let req =
            format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
        let mut p = HttpParser::new();
        let mut bytes = req.into_bytes();
        bytes.extend_from_slice(body);
        let items = p.ingest(&bytes);
        assert_eq!(
            op_line(&items[0]),
            r#"{"op": "submit", "kernels": ["compress"], "insts": 20000}"#
        );
    }

    #[test]
    fn fragmentation_and_pipelining_both_reassemble() {
        let mut p = HttpParser::new();
        // Byte-at-a-time: nothing completes early.
        let req = b"GET /v1/metrics HTTP/1.1\r\n\r\n";
        for &b in &req[..req.len() - 1] {
            assert!(p.ingest(&[b]).is_empty());
        }
        let items = p.ingest(&req[req.len() - 1..]);
        assert_eq!(items.len(), 1);

        // Two pipelined requests in one read.
        let two = b"GET /v1/jobs/1 HTTP/1.1\r\n\r\nGET /v1/jobs/2 HTTP/1.1\r\n\r\n";
        let items = p.ingest(two);
        assert_eq!(items.len(), 2);
        assert_eq!(op_line(&items[0]), r#"{"op": "poll", "job": 1}"#);
        assert_eq!(op_line(&items[1]), r#"{"op": "poll", "job": 2}"#);
    }

    #[test]
    fn framing_violations_answer_and_kill_the_parser() {
        // Malformed request line.
        let mut p = HttpParser::new();
        let items = p.ingest(b"NOT-HTTP\r\n\r\n");
        assert_eq!(direct_status(&items[0]), 400);
        assert!(p.ingest(b"GET /v1/metrics HTTP/1.1\r\n\r\n").is_empty(), "parser is dead");

        // Oversized header section (never terminated).
        let mut p = HttpParser::new();
        let mut items = Vec::new();
        let filler = vec![b'a'; 64 * 1024];
        for _ in 0..=(MAX_HEAD / filler.len()) + 1 {
            items = p.ingest(&filler);
            if !items.is_empty() {
                break;
            }
        }
        assert_eq!(direct_status(&items[0]), 431);

        // Oversized body via Content-Length.
        let mut p = HttpParser::new();
        let req = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(direct_status(&p.ingest(req.as_bytes())[0]), 413);

        // Chunked transfer is refused, not guessed at.
        let mut p = HttpParser::new();
        let items =
            p.ingest(b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(direct_status(&items[0]), 501);
    }

    #[test]
    fn routing_errors_answer_without_killing_the_connection() {
        let mut p = HttpParser::new();
        let items = p.ingest(b"GET /nope HTTP/1.1\r\n\r\nDELETE /v1/jobs/3 HTTP/1.1\r\n\r\n");
        assert_eq!(items.len(), 2, "connection survives routing errors");
        assert_eq!(direct_status(&items[0]), 404);
        assert_eq!(direct_status(&items[1]), 405);
        // Non-numeric job ids are unknown jobs, not server errors.
        let items = p.ingest(b"GET /v1/jobs/abc HTTP/1.1\r\n\r\n");
        assert_eq!(direct_status(&items[0]), 404);
        // Malformed POST bodies answer 400 but keep the framing.
        let items = p.ingest(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n[1]");
        assert_eq!(direct_status(&items[0]), 400);
        let items = p.ingest(b"GET /v1/metrics HTTP/1.1\r\n\r\n");
        assert_eq!(op_line(&items[0]), r#"{"op": "metrics"}"#);
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        let mut p = HttpParser::new();
        let items = p.ingest(b"GET /v1/metrics HTTP/1.0\r\n\r\n");
        assert!(matches!(items[0], HttpItem::Op { close: true, .. }), "1.0 defaults to close");
        let items = p.ingest(b"GET /v1/metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(matches!(items[0], HttpItem::Op { close: false, .. }));
        let items = p.ingest(b"GET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(matches!(items[0], HttpItem::Op { close: true, .. }));
    }

    #[test]
    fn response_framing_carries_the_line_protocol_body_verbatim() {
        let response = Json::obj([("ok", Json::Bool(true)), ("jobs", Json::Arr(vec![]))]);
        assert_eq!(status_for(&response), 200);
        let bytes = frame_response(200, &response, false);
        let text = String::from_utf8(bytes).expect("ascii");
        let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert!(head.contains("Connection: keep-alive"));
        assert_eq!(body, format!("{response}\n"), "body == line-protocol response");

        let err = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::Str("unknown job 7".to_string())),
        ]);
        assert_eq!(status_for(&err), 404);
        let err = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::Str("queue full".to_string())),
        ]);
        assert_eq!(status_for(&err), 400);
    }
}
