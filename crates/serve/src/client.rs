//! The crate's HTTP/1.1 client: one keep-alive connection to one peer,
//! `Content-Length` framing both ways, and a bounded response size.
//!
//! Each [`HttpTransport`](crate::HttpTransport) sender thread owns one
//! [`HttpClient`]; `saber-loadgen`'s recording pass, the `http_overhead`
//! bench and the `http_serve` example drive a listener through it too, so
//! the workspace reads HTTP responses in exactly one place — and the load
//! harness measures the client code the router actually runs.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use saber_core::LdaModel;
//! use saber_serve::client::HttpClient;
//! use saber_serve::http::{HttpConfig, HttpServer};
//! use saber_serve::{wire, HttpTransportConfig, ServeConfig, TopicServer};
//!
//! let mut model = LdaModel::new(10, 2, 0.1, 0.01).unwrap();
//! for v in 0..10 {
//!     model.word_topic_mut()[(v, v % 2)] = 20;
//! }
//! model.refresh_probabilities();
//! let server = Arc::new(TopicServer::from_model(&model, ServeConfig::default()).unwrap());
//! let http = HttpServer::bind("127.0.0.1:0", server, None, HttpConfig::default()).unwrap();
//!
//! let mut client = HttpClient::new(http.local_addr(), &HttpTransportConfig::default());
//! let body = wire::encode_infer_request(&[0, 2, 4], 7).to_string();
//! let (status, _) = client.send("POST", "/infer", &[], body.as_bytes()).unwrap();
//! assert_eq!(status, 200);
//! drop(client); // close the keep-alive connection before shutting down
//! http.shutdown();
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::{HttpTransportConfig, ServeError};

/// Largest HTTP response body the client accepts (a defensive bound; real
/// responses are a few KB).
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// One lazily (re)established keep-alive connection to `addr`.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    connect_timeout: Duration,
    io_timeout: Duration,
    connection: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    /// A client for `addr` with the connect and per-I/O timeouts of
    /// `config`. Nothing is connected until the first exchange.
    pub fn new(addr: SocketAddr, config: &HttpTransportConfig) -> Self {
        HttpClient {
            addr,
            connect_timeout: config.connect_timeout,
            io_timeout: config.io_timeout,
            connection: None,
        }
    }

    /// Sends one request (`Host` set to the peer address, then `headers`
    /// in order) and reads its response: status and body. Connects first
    /// when no connection is open; any failure closes the connection, so
    /// the next call starts on a fresh one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] naming the peer when connecting, writing
    /// or reading fails, or the response is malformed or larger than the
    /// client accepts.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), ServeError> {
        let request = request_bytes(method, path, &self.addr.to_string(), headers, body);
        self.exchange(&request)
    }

    /// [`HttpClient::send`] for a request already built by
    /// [`request_bytes`].
    pub(crate) fn exchange(&mut self, request: &[u8]) -> Result<(u16, Vec<u8>), ServeError> {
        // Every I/O failure names the peer it happened against, so a
        // router's 502 can attribute the fan-out leg that broke.
        let addr = self.addr;
        let transport_err = |detail: String| ServeError::Transport {
            detail,
            shard: None,
            addr: Some(addr.to_string()),
        };
        let reader = match &mut self.connection {
            Some(reader) => reader,
            None => {
                let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
                    .map_err(|e| transport_err(format!("cannot connect to shard: {e}")))?;
                let _ = stream.set_read_timeout(Some(self.io_timeout));
                let _ = stream.set_write_timeout(Some(self.io_timeout));
                let _ = stream.set_nodelay(true);
                self.connection.insert(BufReader::new(stream))
            }
        };
        let result = reader
            .get_mut()
            .write_all(request)
            .and_then(|_| reader.get_mut().flush())
            .map_err(|e| transport_err(format!("write to shard failed: {e}")))
            .and_then(|_| {
                read_response(reader)
                    .map_err(|e| transport_err(format!("read from shard failed: {e}")))
            });
        if result.is_err() {
            self.connection = None;
        }
        result
    }
}

/// Builds one HTTP/1.1 request as bytes (keep-alive implied): the request
/// line, `Host`, `Content-Length`, then `headers` in order, then `body`.
pub(crate) fn request_bytes(
    method: &str,
    path: &str,
    host: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut request = head.into_bytes();
    request.extend_from_slice(body);
    request
}

/// Reads one `Content-Length`-framed HTTP/1.1 response.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<u8>)> {
    use std::io::{Error, ErrorKind};
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "malformed status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "EOF in headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Error::new(ErrorKind::InvalidData, "bad content-length"))?;
            }
        }
    }
    if content_length > MAX_RESPONSE_BYTES {
        return Err(Error::new(ErrorKind::InvalidData, "response too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}
