//! Shared hand-rolled HTTP/1.1 plumbing for the hand-rolled servers.
//!
//! Both the metrics exporter ([`crate::server`]) and the
//! `prefall-fleet` ingest listener speak the same ten lines of HTTP:
//! a request line, a bounded header block, an optional
//! `Content-Length`-framed body, a `Content-Length`-framed response.
//! This module is that dialect, written once:
//!
//! * [`Conn`] — owns an accepted socket. Its [`Write`] side only
//!   queues replies; its [`Read`] side, which a [`BufReader`] pulls
//!   from, sends every queued reply in one `write_all` before it
//!   touches the socket, then arms the read timeout with the time left
//!   to the request's deadline. The server therefore never blocks on a
//!   read with replies unsent: a lone request is answered at once, a
//!   pipelined burst in one segment. The socket is no-delay, so a
//!   flushed reply is never held back for the peer's ACK.
//! * [`read_request`] — parses one request under a hard wall-clock
//!   *deadline*: every socket read is armed with the time remaining,
//!   so a client that trickles one byte per second (the slowloris
//!   pattern) is cut off when the budget runs out instead of pinning
//!   the serving thread for minutes.
//! * [`respond`] / [`respond_with`] — `Content-Length`-framed
//!   responses, each handed to the writer in one piece; the latter with
//!   keep-alive and extra headers (the fleet's `Retry-After`
//!   backpressure hint).
//! * [`is_timeout`] — a read or write deadline shows up as `TimedOut`
//!   *or* `WouldBlock` depending on platform; callers count either as
//!   a connection timeout.
//!
//! The dialect is deliberately small: no chunked encoding, no TLS, no
//! multiline headers. Both servers bind loopback in every shipped
//! configuration.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on any single header or request line.
const MAX_LINE: u64 = 4096;
/// Cap on the number of header lines drained per request.
const MAX_HEADERS: usize = 64;
/// Queued replies past this size are sent without waiting for the next
/// read, so a flood of tiny pipelined requests cannot grow the queue
/// without bound.
const MAX_PENDING: usize = 64 * 1024;

/// One parsed request: the start line, the two headers the servers
/// care about, and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, e.g. `GET` or `POST`.
    pub method: String,
    /// Request target, query string included.
    pub path: String,
    /// The `Content-Length`-framed body (empty when none was sent).
    pub body: Vec<u8>,
    /// Whether the client may send another request on this connection
    /// (`HTTP/1.1` default, overridden by `Connection:` headers).
    pub keep_alive: bool,
}

/// `true` when an I/O error is a read/write timeout — the deadlines of
/// a [`Conn`] surface as `TimedOut` on some platforms and `WouldBlock`
/// on others.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// A served connection: the socket, the deadline of the request being
/// read, and the replies queued since the last read.
///
/// Wrap it in a [`BufReader`] and hand that to [`read_request`]; write
/// replies to [`BufReader::get_mut`]. Queued replies go out in one
/// `write_all` when the reader next needs the socket, on
/// [`Write::flush`], and on drop.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    deadline: Instant,
    pending: Vec<u8>,
}

impl Conn {
    /// Takes over an accepted stream: blocking mode, `TCP_NODELAY`, and
    /// `write_timeout` on every send, so a peer that stops reading is cut
    /// off instead of pinning the serving thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket option calls' failures.
    pub fn new(stream: TcpStream, write_timeout: Duration) -> io::Result<Self> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(write_timeout))?;
        Ok(Self {
            stream,
            // Replaced by `read_request` before the first read.
            deadline: Instant::now() + write_timeout,
            pending: Vec::new(),
        })
    }

    /// Sends the queued replies in one `write_all`. The queue is emptied
    /// even when the send fails: the connection is then dead, and a
    /// retry on drop would only wait out the write deadline again.
    fn send_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.pending);
        self.pending.clear();
        sent
    }
}

impl Read for Conn {
    /// Flushes, then arms the read timeout with the time left to the
    /// deadline (`TimedOut` once it has passed), then reads.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.send_pending()?;
        let remaining = self
            .deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::TimedOut, "connection deadline exceeded")
            })?;
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

impl Write for Conn {
    /// Queues `buf`; nothing reaches the socket until the next read,
    /// flush or drop, unless the queue outgrows its cap.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.pending.len() + buf.len() > MAX_PENDING {
            self.send_pending()?;
        }
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.send_pending()
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.send_pending();
    }
}

/// Reads and parses one HTTP request, enforcing `deadline` on every
/// socket read. Returns `Ok(None)` on a clean end-of-stream before
/// any bytes (the peer closed an idle keep-alive connection).
///
/// The reader is caller-owned so keep-alive loops retain buffered
/// pipelined bytes between calls; requests already buffered are parsed
/// without touching the socket, or its timeout.
///
/// # Errors
///
/// * [`io::ErrorKind::TimedOut`] / `WouldBlock` when the deadline cuts
///   a read short, or a queued reply could not be sent in time (see
///   [`is_timeout`]);
/// * [`io::ErrorKind::InvalidData`] for malformed framing or a body
///   larger than `max_body` — callers should answer 400/413 and close;
/// * any underlying socket error.
pub fn read_request(
    reader: &mut BufReader<Conn>,
    deadline: Instant,
    max_body: usize,
) -> io::Result<Option<HttpRequest>> {
    reader.get_mut().deadline = deadline;
    let mut request_line = String::new();
    if reader
        .by_ref()
        .take(MAX_LINE)
        .read_line(&mut request_line)?
        == 0
    {
        return Ok(None);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }

    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    let mut header = String::new();
    for _ in 0..MAX_HEADERS {
        header.clear();
        if reader.by_ref().take(MAX_LINE).read_line(&mut header)? == 0
            || header == "\r\n"
            || header == "\n"
        {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    if content_length > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body exceeds cap",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Writes a `Connection: close` text response — the exporter's shape.
pub fn respond(
    out: &mut impl Write,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    head_only: bool,
) -> io::Result<()> {
    respond_with(
        out,
        code,
        reason,
        content_type,
        body.as_bytes(),
        head_only,
        false,
        &[],
    )
}

/// The general form: keep-alive control and extra headers (the fleet's
/// `Retry-After` hint rides here). Header and body reach `out` in one
/// `write_all`, so no writer ever sends a response in parts.
#[allow(clippy::too_many_arguments)]
pub fn respond_with(
    out: &mut impl Write,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    head_only: bool,
    keep_alive: bool,
    extra: &[(&str, String)],
) -> io::Result<()> {
    let mut msg = Vec::with_capacity(160 + body.len());
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        msg,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        let _ = write!(msg, "{name}: {value}\r\n");
    }
    msg.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
    if !head_only {
        msg.extend_from_slice(body);
    }
    out.write_all(&msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A client socket and the server's side of it, ready to serve.
    fn pair() -> (TcpStream, BufReader<Conn>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let conn = Conn::new(server, Duration::from_secs(1)).unwrap();
        (client, BufReader::new(conn))
    }

    #[test]
    fn parses_a_request_with_body_and_keep_alive() {
        let (mut client, mut reader) = pair();
        write!(
            client,
            "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
        )
        .unwrap();
        let req = read_request(
            &mut reader,
            Instant::now() + Duration::from_secs(1),
            1 << 20,
        )
        .unwrap()
        .expect("one request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/ingest");
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let (mut client, mut reader) = pair();
        write!(client, "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        write!(client, "GET /b HTTP/1.0\r\n\r\n").unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        let a = read_request(&mut reader, deadline, 0).unwrap().unwrap();
        assert!(!a.keep_alive);
        let b = read_request(&mut reader, deadline, 0).unwrap().unwrap();
        assert!(!b.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        let (client, mut reader) = pair();
        drop(client);
        let got = read_request(&mut reader, Instant::now() + Duration::from_secs(1), 0).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn stalled_request_times_out_at_the_deadline() {
        let (mut client, mut reader) = pair();
        // A slowloris: the request line never finishes.
        write!(client, "GET /metr").unwrap();
        client.flush().unwrap();
        let start = Instant::now();
        let err = read_request(&mut reader, start + Duration::from_millis(120), 0)
            .expect_err("must time out");
        assert!(is_timeout(&err), "unexpected error kind: {err:?}");
        assert!(start.elapsed() < Duration::from_secs(2), "bounded wait");
    }

    #[test]
    fn oversized_bodies_are_refused_before_allocation() {
        let (mut client, mut reader) = pair();
        write!(
            client,
            "POST /ingest HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
        )
        .unwrap();
        let err = read_request(&mut reader, Instant::now() + Duration::from_secs(1), 1024)
            .expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn respond_with_carries_extra_headers() {
        let mut out = Vec::new();
        respond_with(
            &mut out,
            429,
            "Too Many Requests",
            "text/plain",
            b"backoff\n",
            false,
            true,
            &[("Retry-After", "2".to_string())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nbackoff\n"), "{text}");
    }

    /// A writer that counts the calls made on it.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

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

    #[test]
    fn every_response_is_one_write() {
        let mut out = CountingWriter::default();
        respond(&mut out, 200, "OK", "text/plain", "hello\n", false).unwrap();
        assert_eq!(out.writes, 1, "GET");
        assert!(out.bytes.ends_with(b"\r\n\r\nhello\n"));

        let mut out = CountingWriter::default();
        respond(&mut out, 200, "OK", "text/plain", "hello\n", true).unwrap();
        assert_eq!(out.writes, 1, "HEAD");
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.contains("Content-Length: 6\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "HEAD carries no body: {text}");

        let mut out = CountingWriter::default();
        respond_with(
            &mut out,
            429,
            "Too Many Requests",
            "text/plain",
            b"backoff\n",
            false,
            true,
            &[
                ("Retry-After", "1".to_string()),
                ("Retry-After-Ms", "250".to_string()),
            ],
        )
        .unwrap();
        assert_eq!(out.writes, 1, "429 with extra headers");
    }

    #[test]
    fn replies_wait_for_the_next_read_and_leave_in_one_piece() {
        let (mut client, mut reader) = pair();
        let burst = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n";
        client.write_all(burst.as_bytes()).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();

        let deadline = Instant::now() + Duration::from_secs(1);
        let mut expected = Vec::new();
        for name in ["/a", "/b", "/c"] {
            let req = read_request(&mut reader, deadline, 0).unwrap().unwrap();
            assert_eq!(req.path, name);
            let body = format!("{name}\n");
            respond_with(
                reader.get_mut(),
                200,
                "OK",
                "text/plain",
                body.as_bytes(),
                false,
                true,
                &[],
            )
            .unwrap();
            respond_with(
                &mut expected,
                200,
                "OK",
                "text/plain",
                body.as_bytes(),
                false,
                true,
                &[],
            )
            .unwrap();
        }

        // All three requests came in one read, so nothing has been sent.
        client.set_nonblocking(true).unwrap();
        let mut probe = [0u8; 1];
        let err = client
            .read(&mut probe)
            .expect_err("no reply before the next read");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

        // The next read must reach the socket: it sends the queue first.
        assert!(read_request(&mut reader, deadline, 0).unwrap().is_none());
        client.set_nonblocking(false).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let mut got = vec![0u8; expected.len()];
        client.read_exact(&mut got).unwrap();
        assert_eq!(got, expected, "replies in request order");
    }

    #[test]
    fn flush_and_drop_send_queued_replies() {
        let (mut client, mut reader) = pair();
        client
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        respond(reader.get_mut(), 200, "OK", "text/plain", "one\n", false).unwrap();
        reader.get_mut().flush().unwrap();
        respond(reader.get_mut(), 200, "OK", "text/plain", "two\n", false).unwrap();
        drop(reader);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.contains("\r\n\r\none\n"), "{text}");
        assert!(text.ends_with("\r\n\r\ntwo\n"), "{text}");
    }
}
