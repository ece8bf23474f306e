//! A deliberately small HTTP/1.1 implementation.
//!
//! The daemon speaks just enough HTTP for `curl` and the bundled client:
//! one request per connection (`Connection: close`), `Content-Length`
//! bodies only (no chunked transfer), and a bounded request size so a
//! misbehaving client cannot balloon memory. This is a wire format, not a
//! web framework — routing lives in [`crate::server`].

/// Largest accepted request head + body, in bytes.
pub const MAX_BODY: usize = 1 << 20;
/// Largest accepted request-line/header line, in bytes.
pub const MAX_LINE: usize = 8 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query string retained, if any).
    pub path: String,
    /// Lowercased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Progress of the incremental request parser used by the nonblocking
/// connection reactor; see [`parse_request`].
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer does not yet hold a complete request.
    Partial,
    /// A complete request, plus the number of buffer bytes it consumed.
    /// Anything after `consumed` is pipelined garbage — this server is
    /// `Connection: close`, so it is never read.
    Complete(Box<Request>, usize),
    /// The bytes can never become a valid request; the payload is the
    /// reason to answer 400 with before closing.
    Invalid(&'static str),
}

/// Incrementally parses one request from an accumulation buffer.
///
/// This never blocks: callers append whatever a nonblocking read produced
/// and re-invoke. Size bounds are enforced on
/// the *partial* input too — a header line that already exceeds
/// [`MAX_LINE`] or more than 100 header lines is rejected immediately,
/// without waiting for a newline, so a flooding client cannot grow the
/// buffer past the bounds by simply never terminating a line.
pub fn parse_request(buf: &[u8]) -> ParseStatus {
    // Robustness (and RFC 9112 §2.2): ignore CRLF noise before the
    // request line.
    let start = buf.iter().position(|&b| b != b'\r' && b != b'\n').unwrap_or(buf.len());
    let buf_trimmed = &buf[start..];
    // Walk complete lines looking for the blank line ending the head.
    let mut offset = 0usize; // into buf_trimmed
    let mut lines: Vec<&[u8]> = Vec::new();
    let head_len = loop {
        let rest = &buf_trimmed[offset..];
        match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if nl > MAX_LINE {
                    return ParseStatus::Invalid("header line too long");
                }
                let mut line = &rest[..nl];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                offset += nl + 1;
                if line.is_empty() {
                    break offset;
                }
                lines.push(line);
                // Request line + at most 100 header lines.
                if lines.len() > 101 {
                    return ParseStatus::Invalid("too many headers");
                }
            }
            None => {
                // No newline yet: bound the dangling partial line too.
                if rest.len() > MAX_LINE {
                    return ParseStatus::Invalid("header line too long");
                }
                if lines.len() > 101 {
                    return ParseStatus::Invalid("too many headers");
                }
                return ParseStatus::Partial;
            }
        }
    };
    let mut text_lines = Vec::with_capacity(lines.len());
    for line in &lines {
        match std::str::from_utf8(line) {
            Ok(s) => text_lines.push(s),
            Err(_) => return ParseStatus::Invalid("header is not UTF-8"),
        }
    }
    let Some((&request_line, header_lines)) = text_lines.split_first() else {
        return ParseStatus::Invalid("missing method");
    };
    let mut parts = request_line.split_whitespace();
    let Some(method) = parts.next() else {
        return ParseStatus::Invalid("missing method");
    };
    let method = method.to_uppercase();
    let Some(path) = parts.next() else {
        return ParseStatus::Invalid("missing path");
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1") {
        return ParseStatus::Invalid("unsupported HTTP version");
    }
    let mut headers = Vec::new();
    for line in header_lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_lowercase(), value.trim().to_string()));
        }
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return ParseStatus::Invalid("bad content-length"),
        },
    };
    if content_length > MAX_BODY {
        return ParseStatus::Invalid("body too large");
    }
    if buf_trimmed.len() < head_len + content_length {
        return ParseStatus::Partial;
    }
    let body = buf_trimmed[head_len..head_len + content_length].to_vec();
    let consumed = start + head_len + content_length;
    ParseStatus::Complete(
        Box::new(Request { method, path: path.to_string(), headers, body }),
        consumed,
    )
}

/// An HTTP response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Media type of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Optional `Retry-After` header value, in seconds — attached to
    /// 429/503 shed responses so well-behaved clients pace their retries.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After` header (builder style).
    #[must_use]
    pub fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// The full wire form of the response, for buffered nonblocking
    /// writers.
    pub fn to_bytes(&self) -> Vec<u8> {
        let retry = match self.retry_after {
            Some(secs) => format!("retry-after: {secs}\r\n"),
            None => String::new(),
        };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}connection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            retry,
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_wire_format() {
        let text = String::from_utf8(Response::json(200, "{}".to_string()).to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let bytes = Response::json(429, "{}".into()).with_retry_after(7).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 7\r\n"));
    }

    #[test]
    fn incremental_parser_handles_byte_at_a_time_arrival() {
        let raw = b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut]) {
                ParseStatus::Partial => {}
                other => panic!("prefix of {cut} bytes must be Partial, got {other:?}"),
            }
        }
        match parse_request(raw) {
            ParseStatus::Complete(req, consumed) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/campaigns");
                assert_eq!(req.header("host"), Some("x"));
                assert_eq!(req.body, b"abcd");
                assert_eq!(consumed, raw.len());
            }
            other => panic!("full request must be Complete, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_bytes_after_a_request_are_not_consumed() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGARBAGE \0\xff pipelined";
        match parse_request(raw) {
            ParseStatus::Complete(req, consumed) => {
                assert_eq!(req.path, "/healthz");
                assert_eq!(&raw[consumed..], b"GARBAGE \0\xff pipelined");
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_oversized_header_line_is_rejected_early() {
        // Dangling header line at exactly the bound, no newline: still
        // waiting (a terminating CRLF could arrive next).
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE));
        assert!(matches!(parse_request(&raw), ParseStatus::Partial));
        // One byte over, still no newline: rejected immediately.
        raw.push(b'a');
        match parse_request(&raw) {
            ParseStatus::Invalid(reason) => assert_eq!(reason, "header line too long"),
            other => panic!("oversized line must be Invalid, got {other:?}"),
        }
    }

    #[test]
    fn header_count_flood_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            raw.extend_from_slice(format!("x-{i}: v\r\n").as_bytes());
        }
        match parse_request(&raw) {
            ParseStatus::Invalid(reason) => assert_eq!(reason, "too many headers"),
            other => panic!("header flood must be Invalid, got {other:?}"),
        }
    }

    #[test]
    fn incremental_oversized_body_is_rejected() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse_request(raw.as_bytes()), ParseStatus::Invalid("body too large")));
    }
}
