//! The benchmark's load generator: a keep-alive HTTP/1.1 client for
//! `POST /infer` and an open loop.
//!
//! In the open loop request `i` is due at `start + i / rate`. Its latency is
//! measured from that due time, not from when it was sent, so a stalled
//! client or server charges its wait to every request queued behind it; how
//! late the generator itself sent each request is recorded separately.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// Latency charged to a failed or refused request: the serving front's
/// request deadline, so a failure counts as a miss in every percentile.
pub const MISS_MS: f64 = 2_000.0;

/// Largest response head or body the client accepts.
const MAX_RESPONSE_BYTES: usize = 16 << 20;

/// The parsed head of one HTTP response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead {
    /// Bytes of the status line and headers, blank line included.
    pub head_len: usize,
    /// Status code.
    pub status: u16,
    /// `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Whether the server will close the connection after this response.
    pub close: bool,
}

/// Parses a response head from the front of `buf`: `Ok(None)` while the
/// blank line ending it has not arrived yet.
pub fn parse_head(buf: &[u8]) -> Result<Option<ResponseHead>, String> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > MAX_RESPONSE_BYTES {
            return Err("response head too large".to_string());
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| format!("bad content-length {value:?}"))?;
            if content_length > MAX_RESPONSE_BYTES {
                return Err(format!("content-length {content_length} too large"));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(format!("unsupported transfer-encoding {value:?}"));
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok(Some(ResponseHead {
        head_len: end + 4,
        status,
        content_length,
        close,
    }))
}

/// The body of a `POST /infer` for `words` with sampling seed `seed`.
pub fn infer_body(words: &[u32], seed: u64) -> String {
    let mut body = String::with_capacity(16 + 7 * words.len());
    body.push_str("{\"words\":[");
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&w.to_string());
    }
    body.push_str("],\"seed\":");
    body.push_str(&seed.to_string());
    body.push('}');
    body
}

/// One keep-alive connection to an HTTP front-end.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// A client for `addr`; the connection opens on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Sends `POST /infer` and returns the status and body.
    pub fn infer(&mut self, words: &[u32], seed: u64) -> Result<(u16, Vec<u8>), String> {
        let body = infer_body(words, seed);
        let request = format!(
            "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let result = self.exchange(request.as_bytes());
        if result.is_err() {
            // Start the next request on a fresh connection.
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .map_err(|e| e.to_string())?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        self.stream
            .as_mut()
            .expect("connection opened above")
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.read_response()
    }

    /// Reads one response off the connection, keeping any bytes past its
    /// end for the next one.
    fn read_response(&mut self) -> Result<(u16, Vec<u8>), String> {
        let stream = self.stream.as_mut().ok_or("no open connection")?;
        let mut chunk = [0u8; 16 * 1024];
        let head = loop {
            if let Some(head) = parse_head(&self.buf)? {
                if self.buf.len() >= head.head_len + head.content_length {
                    break head;
                }
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let end = head.head_len + head.content_length;
        let body = self.buf[head.head_len..end].to_vec();
        self.buf.drain(..end);
        if head.close {
            self.stream = None;
        }
        Ok((head.status, body))
    }
}

/// The open-loop schedule: request `i` is due `i / rate` seconds after the
/// start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Offered rate, requests per second.
    pub rate: f64,
}

impl Schedule {
    /// Offset of request `i`'s due time from the start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Latency and lateness of one open-loop request, in milliseconds, from
/// its due time, the time it was sent and the time its reply arrived (all
/// offsets from the schedule's start). A failed request counts as a miss.
pub fn open_loop_timing(due: Duration, sent: Duration, done: Duration, ok: bool) -> (f64, f64) {
    let latency = done.saturating_sub(due).as_secs_f64() * 1e3;
    let late = sent.saturating_sub(due).as_secs_f64() * 1e3;
    (if ok { latency } else { latency.max(MISS_MS) }, late)
}

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Latency per request, ms (failures at [`MISS_MS`] or more).
    pub latency_ms: Samples,
    /// How late the generator sent each request, ms.
    pub late_ms: Samples,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
}

/// Sends requests open-loop at `schedule` on `client` until `stop` is set;
/// `send(client, i)` issues request `i` and reports success.
pub fn open_loop<F>(
    client: &mut Client,
    schedule: Schedule,
    stop: &AtomicBool,
    mut send: F,
) -> PhaseOutcome
where
    F: FnMut(&mut Client, usize) -> bool,
{
    let start = Instant::now();
    let mut out = PhaseOutcome::default();
    for i in 0.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let due = schedule.due(i);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let sent = start.elapsed();
        let ok = send(client, i);
        let (latency, late) = open_loop_timing(due, sent, start.elapsed(), ok);
        out.latency_ms.push(latency);
        out.late_ms.push(late);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_waits_for_the_blank_line() {
        assert_eq!(
            parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"),
            Ok(None)
        );
        let head = parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap()
            .unwrap();
        assert_eq!(
            head,
            ResponseHead {
                head_len: 38,
                status: 200,
                content_length: 2,
                close: false
            }
        );
    }

    #[test]
    fn head_reads_connection_close_and_case_insensitive_names() {
        let head = parse_head(
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\nConnection: Close\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            (head.status, head.content_length, head.close),
            (429, 0, true)
        );
        let old = parse_head(b"HTTP/1.0 200 OK\r\n\r\n").unwrap().unwrap();
        assert!(old.close);
    }

    #[test]
    fn head_rejects_what_the_client_cannot_frame() {
        assert!(parse_head(b"SMTP 200 OK\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nno-colon\r\n\r\n").is_err());
    }

    #[test]
    fn keep_alive_responses_are_framed_back_to_back() {
        // Two pipelined responses on one connection, served by a listener
        // that writes them in one burst; the client must split them by
        // Content-Length and keep the second for the next exchange.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut chunk = [0u8; 4096];
            while seen.windows(4).filter(|w| *w == b"\r\n\r\n").count() < 1 {
                let n = conn.read(&mut chunk).unwrap();
                seen.extend_from_slice(&chunk[..n]);
            }
            conn.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirstHTTP/1.1 503 Service Unavailable\r\nContent-Length: 6\r\nConnection: close\r\n\r\nsecond",
            )
            .unwrap();
        });
        let mut client = Client::new(addr);
        let (status, body) = client.infer(&[1, 2], 3).unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"first"[..]));
        // The second response is already buffered; it closes the connection.
        let (status, body) = client.read_response().unwrap();
        assert_eq!((status, body.as_slice()), (503, &b"second"[..]));
        assert!(client.stream.is_none());
        server.join().unwrap();
    }

    #[test]
    fn infer_body_is_the_wire_request() {
        assert_eq!(infer_body(&[4, 0, 17], 9), r#"{"words":[4,0,17],"seed":9}"#);
        assert_eq!(infer_body(&[], 0), r#"{"words":[],"seed":0}"#);
    }

    #[test]
    fn schedule_spaces_requests_evenly() {
        let s = Schedule { rate: 250.0 };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(250), Duration::from_secs(1));
        assert_eq!(s.due(1), Duration::from_millis(4));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let ms = Duration::from_millis;
        // Sent on time, answered after 3 ms.
        assert_eq!(open_loop_timing(ms(10), ms(10), ms(13), true), (3.0, 0.0));
        // Sent 5 ms late behind a stall: the wait is charged to latency.
        assert_eq!(open_loop_timing(ms(10), ms(15), ms(18), true), (8.0, 5.0));
        // A failure is a miss, however fast it was refused.
        assert_eq!(
            open_loop_timing(ms(10), ms(10), ms(11), false),
            (MISS_MS, 0.0)
        );
    }

    #[test]
    fn open_loop_sends_until_stopped_and_records_lateness() {
        let mut client = Client::new("127.0.0.1:9".parse().unwrap());
        let stop = AtomicBool::new(false);
        let out = open_loop(&mut client, Schedule { rate: 2_000.0 }, &stop, |_, i| {
            // Every tenth request stalls the client for 5 ms.
            if i % 10 == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            if i == 39 {
                stop.store(true, Ordering::Relaxed);
            }
            i != 7
        });
        assert_eq!(out.attempted, 40);
        assert_eq!(out.failed, 1);
        assert_eq!(out.latency_ms.len(), 40);
        assert_eq!(out.late_ms.len(), 40);
        assert!(out.latency_ms.percentile(100.0).unwrap() >= MISS_MS);
        // The stalls make later requests go out late.
        assert!(out.late_ms.percentile(100.0).unwrap() > 0.0);
    }
}
