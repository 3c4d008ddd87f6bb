//! A small blocking client for the predictd wire protocol, used by
//! `predictctl`, the integration tests, the CI smoke job, and the
//! `loadgen` traffic generator.
//!
//! Besides the one-request-at-a-time [`Client::request`] path, the
//! client exposes a split pipelined surface — queue lines with
//! [`Client::send_raw`], [`Client::flush`] once per burst, then drain
//! replies with [`Client::recv_raw_into`] into a reused buffer — so a
//! load generator can keep many requests in flight per connection
//! without allocating per request.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::binproto;
use crate::proto::{Request, Response};

/// Largest reply frame the client will accept. The daemon's default
/// request limit is 1 MiB (`ServerConfig::max_frame_bytes`); 16 MiB
/// leaves headroom for large responses while keeping a corrupt or
/// hostile length word from forcing a multi-gigabyte allocation.
pub const MAX_REPLY_FRAME_BYTES: usize = 16 << 20;

/// What can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The daemon answered, but not with a decodable response line.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected predictd client. `request` keeps one request in flight;
/// the `send_raw`/`flush`/`recv_raw_into` surface pipelines many.
///
/// [`Client::connect`] speaks newline-JSON; [`Client::connect_binary`]
/// negotiates the length-prefixed binary codec by sending the
/// [`binproto::PREAMBLE`] right after connect. Either way, [`Client::request`]
/// transparently uses the connection's codec, and the pipelined raw
/// surfaces (`send_raw`/`recv_raw_into` for JSON, [`Client::send_frame`]/
/// [`Client::recv_frame_into`] for binary) keep many requests in flight.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    binary: bool,
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `"127.0.0.1:7171"`),
    /// speaking newline-JSON.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: BufWriter::new(stream), binary: false })
    }

    /// Connects speaking the binary codec: sends the 4-byte preamble,
    /// then exchanges length-prefixed frames.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let mut client = Client::connect(addr)?;
        client.binary = true;
        client.writer.write_all(&binproto::PREAMBLE)?;
        Ok(client)
    }

    /// Connects speaking the binary codec with a bounded connect and
    /// bounded per-call reads/writes (`None` = block forever) — what
    /// the gateway's health checker and blocking executor use toward
    /// its backends, so one dead or wedged backend stalls a call for at
    /// most the timeout. Every resolved address is tried in order; the
    /// last connect error is returned if all fail.
    pub fn connect_binary_timeout(
        addr: impl ToSocketAddrs,
        connect: std::time::Duration,
        io: Option<std::time::Duration>,
    ) -> Result<Self, ClientError> {
        let mut last: Option<std::io::Error> = None;
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, connect) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(io)?;
                    stream.set_write_timeout(io)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    let mut client =
                        Client { reader, writer: BufWriter::new(stream), binary: true };
                    client.writer.write_all(&binproto::PREAMBLE)?;
                    return Ok(client);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        })))
    }

    /// Sends one request and decodes the response, using whichever
    /// codec the connection negotiated.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        if self.binary {
            let mut frame = Vec::with_capacity(256);
            if !binproto::encode_request(req, &mut frame) {
                return Err(ClientError::Protocol("request exceeds frame limits".to_string()));
            }
            self.send_frame(&frame)?;
            self.flush()?;
            let mut body = Vec::with_capacity(256);
            self.recv_frame_into(&mut body)?;
            return binproto::decode_response(&body)
                .map_err(|e| ClientError::Protocol(e.to_string()));
        }
        let line = serde_json::to_string(req).map_err(|e| ClientError::Protocol(e.to_string()))?;
        let reply = self.request_raw(&line)?;
        serde_json::from_str(&reply).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Queues one already-encoded binary frame (length prefix included)
    /// without flushing, for pipelining.
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClientError> {
        self.writer.write_all(frame)?;
        Ok(())
    }

    /// Reads one binary frame body (tag + payload, the length prefix
    /// stripped) into `body` (cleared first), reusing the caller's
    /// buffer. Frames longer than [`MAX_REPLY_FRAME_BYTES`] are
    /// rejected before any allocation: the length word arrives off the
    /// wire, and a corrupt or hostile peer must not be able to make the
    /// client allocate 4 GiB.
    pub fn recv_frame_into(&mut self, body: &mut Vec<u8>) -> Result<(), ClientError> {
        let mut len4 = [0u8; 4];
        self.reader.read_exact(&mut len4).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ClientError::Protocol("connection closed by daemon".to_string())
            } else {
                ClientError::Io(e)
            }
        })?;
        let len = usize::try_from(u32::from_le_bytes(len4)).unwrap_or(usize::MAX);
        if len > MAX_REPLY_FRAME_BYTES {
            return Err(ClientError::Protocol(format!(
                "reply frame of {len} bytes exceeds the {MAX_REPLY_FRAME_BYTES}-byte limit"
            )));
        }
        body.clear();
        body.resize(len, 0);
        self.reader.read_exact(body)?;
        Ok(())
    }

    /// Sends one raw request line and returns the raw response line —
    /// the escape hatch `predictctl raw` uses.
    pub fn request_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.send_raw(line)?;
        self.flush()?;
        let mut reply = String::new();
        self.recv_raw_into(&mut reply)?;
        Ok(reply)
    }

    /// Queues one raw request line without flushing, for pipelining.
    pub fn send_raw(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(())
    }

    /// Flushes all queued request lines to the daemon.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one raw response line into `reply` (cleared first),
    /// reusing the caller's buffer. The trailing newline is trimmed.
    pub fn recv_raw_into(&mut self, reply: &mut String) -> Result<(), ClientError> {
        reply.clear();
        let n = self.reader.read_line(reply)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed by daemon".to_string()));
        }
        reply.truncate(reply.trim_end().len());
        Ok(())
    }
}
