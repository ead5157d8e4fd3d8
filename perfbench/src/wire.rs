//! A wire-protocol v2 client split into a send half and a receive half,
//! so an open-loop generator can send on its schedule from one thread
//! while another thread reads responses as they arrive (`ClientV2` owns
//! both directions of its socket).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use runtime::net::frame::{self, Frame, ItemResponse};

/// Largest response frame the benchmark accepts.
const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// The sending half: writes pre-encoded request frames.
pub struct SendHalf(TcpStream);

/// The receiving half: reads and decodes response frames.
pub struct RecvHalf(BufReader<TcpStream>);

/// Connect to `addr`, negotiate v2, and return both halves plus the v2
/// id of `workload`. Reads give up after `timeout`.
///
/// # Errors
///
/// Socket errors, or `InvalidData` when the server does not negotiate v2
/// or does not announce `workload`.
pub fn connect(
    addr: SocketAddr,
    workload: &str,
    timeout: Duration,
) -> io::Result<(SendHalf, RecvHalf, u16)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    stream.write_all(b"v2\n")?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let names = line.trim_end().strip_prefix("ok v2 ").ok_or_else(|| {
        invalid(format!(
            "server did not negotiate v2: '{}'",
            line.trim_end()
        ))
    })?;
    let id = names
        .split(',')
        .position(|name| name == workload)
        .ok_or_else(|| invalid(format!("workload '{workload}' not announced: {names}")))?;
    let id = u16::try_from(id).map_err(|_| invalid("workload id exceeds u16".to_string()))?;
    Ok((SendHalf(stream), RecvHalf(reader), id))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl SendHalf {
    /// Write one encoded frame.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }
}

impl RecvHalf {
    /// Read one response frame: its items and its size on the wire.
    ///
    /// # Errors
    ///
    /// Socket errors; `InvalidData` on an undecodable frame, a
    /// whole-frame error or a non-response frame.
    pub fn recv(&mut self) -> io::Result<(Vec<ItemResponse>, usize)> {
        let mut header = [0u8; 4];
        self.0.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(invalid(format!("untrustworthy frame length {len}")));
        }
        let mut buf = vec![0u8; 4 + len];
        buf[..4].copy_from_slice(&header);
        self.0.read_exact(&mut buf[4..])?;
        match frame::decode(&buf, MAX_FRAME_BYTES) {
            frame::DecodeStep::Frame(Frame::Response(response), _) => {
                Ok((response.items, buf.len()))
            }
            frame::DecodeStep::Frame(Frame::Error(message), _) => {
                Err(invalid(format!("server error frame: {message}")))
            }
            frame::DecodeStep::Frame(Frame::Request(_), _) => {
                Err(invalid("request frame from the server".to_string()))
            }
            frame::DecodeStep::Corrupt(message, _) | frame::DecodeStep::Fatal(message) => {
                Err(invalid(message))
            }
            frame::DecodeStep::Incomplete => Err(invalid("short frame".to_string())),
        }
    }
}
