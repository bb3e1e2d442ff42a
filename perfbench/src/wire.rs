//! Client side of the `tkc serve` line protocol.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One connection. Replies are read line by line; multi-line replies end
/// with a lone `.`.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// How long any single reply may take before it counts as a timeout.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Conn {
    /// Connects, retrying refused connects until `patience` runs out.
    pub fn connect(addr: &str, patience: Duration) -> Result<Conn, String> {
        let deadline = Instant::now() + patience;
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    s.set_nodelay(true).map_err(|e| e.to_string())?;
                    s.set_read_timeout(Some(REPLY_TIMEOUT))
                        .map_err(|e| e.to_string())?;
                    let writer = s.try_clone().map_err(|e| e.to_string())?;
                    return Ok(Conn {
                        reader: BufReader::new(s),
                        writer,
                        line: String::new(),
                    });
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(format!("connect {addr}: {e}")),
            }
        }
    }

    /// A second handle on the same socket, for a sender thread.
    pub fn writer(&self) -> std::io::Result<TcpStream> {
        self.writer.try_clone()
    }

    pub fn send(&mut self, text: &str) -> std::io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    pub fn read_line(&mut self) -> std::io::Result<String> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end().to_string())
    }

    /// Sends one command line and returns the first reply line.
    pub fn request(&mut self, cmd: &str) -> std::io::Result<String> {
        self.send(&format!("{cmd}\n"))?;
        self.read_line()
    }

    /// `STATS` as a key → value map.
    pub fn stats(&mut self) -> Result<HashMap<String, String>, String> {
        let first = self.request("STATS").map_err(|e| format!("STATS: {e}"))?;
        if first != "OK" {
            return Err(format!("STATS answered {first:?}"));
        }
        let mut out = HashMap::new();
        loop {
            let line = self.read_line().map_err(|e| format!("STATS: {e}"))?;
            if line == "." {
                return Ok(out);
            }
            if let Some((k, v)) = line.split_once(' ') {
                out.insert(k.to_string(), v.to_string());
            }
        }
    }

    /// One numeric `STATS` key.
    pub fn stat(&mut self, key: &str) -> Result<u64, String> {
        self.stats()?
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("STATS has no numeric {key}"))
    }

    /// One sample of a Prometheus series from `METRICS` (`series` is the
    /// full name including labels, if any).
    pub fn metric(&mut self, series: &str) -> Result<f64, String> {
        let first = self
            .request("METRICS")
            .map_err(|e| format!("METRICS: {e}"))?;
        if first != "OK" {
            return Err(format!("METRICS answered {first:?}"));
        }
        let mut found = None;
        loop {
            let line = self.read_line().map_err(|e| format!("METRICS: {e}"))?;
            if line == "." {
                return found.ok_or_else(|| format!("METRICS has no {series}"));
            }
            if let Some(rest) = line.strip_prefix(series) {
                if let Some(v) = rest.strip_prefix(' ') {
                    found = v.trim().parse().ok();
                }
            }
        }
    }
}
