//! The lock-step NDJSON client.

use crate::protocol::{encode, Line, LineDecoder, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A minimal blocking client for the NDJSON protocol: lock-step
/// request/response over one TCP connection. Used by the examples and
/// the wire tests; any `netcat`-style tool works just as well.
pub struct Client {
    stream: TcpStream,
    decoder: LineDecoder,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an already-connected stream (tests that drive the socket by
    /// hand before switching to lock-step frames).
    pub fn from_stream(stream: TcpStream) -> io::Result<Client> {
        Ok(Client {
            stream,
            decoder: LineDecoder::new(Self::MAX_RESPONSE_BYTES),
        })
    }

    /// Sends one request and waits for its response frame.
    pub fn send(&mut self, req: &Request) -> io::Result<Response> {
        self.send_line(&encode(req))
    }

    /// Sends a raw line (malformed-frame testing) and waits for the
    /// response.
    pub fn send_line(&mut self, line: &str) -> io::Result<Response> {
        self.stream.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.stream.write_all(b"\n")?;
        }
        self.stream.flush()?;
        self.read_response()
    }

    /// Cap on one *response* line. Far above the request cap: a long
    /// session's `schedule`/`metrics` frames carry the whole committed
    /// history (~65 bytes per assignment), and the server is trusted.
    pub const MAX_RESPONSE_BYTES: usize = 1 << 30;

    /// Reads one response frame.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut chunk = [0u8; 8192];
        loop {
            match self.decoder.next_line(false) {
                Some(Line::Frame(line)) => {
                    return serde_json::from_slice(line).map_err(|e| invalid(e.to_string()))
                }
                Some(Line::TooLong(n)) => {
                    return Err(invalid(format!("oversized response ({n} bytes)")))
                }
                None => {}
            }
            // The daemon only ever writes whole lines, so EOF mid-line is
            // a lost connection, not a frame.
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                n => self.decoder.push(&chunk[..n]),
            }
        }
    }
}
