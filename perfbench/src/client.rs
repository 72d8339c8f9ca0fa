//! A minimal blocking HTTP/1.1 keep-alive client: just enough framing
//! (status line, `Content-Length` bodies) to drive the daemon like a real
//! caller would, over one TCP connection per closed loop.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            addr,
            buf: Vec::with_capacity(512),
        })
    }

    /// Reconnects after a transport failure.
    pub fn reopen(&mut self) -> io::Result<()> {
        *self = Conn::open(self.addr)?;
        Ok(())
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
        self.buf.clear();
        self.frame(method, path, body)?;
        self.writer.write_all(&self.buf)?;
        self.read_response()
    }

    /// Sends one `POST path` request per body, pipelined in a single write;
    /// read the responses, in order, with [`Conn::read_response`].
    pub fn post_pipelined(&mut self, path: &str, bodies: &[String]) -> io::Result<()> {
        self.buf.clear();
        for body in bodies {
            self.frame("POST", path, body)?;
        }
        self.writer.write_all(&self.buf)
    }

    fn frame(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        self.send("GET", path, "")
    }

    /// Reads one whole response: `(status, body)`.
    pub fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("headers cut short".to_owned()));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse::<usize>().ok();
                }
            }
        }
        let len = len.ok_or_else(|| bad("response without Content-Length".to_owned()))?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The number after `"key": ` in a flat JSON body, without a full parse (a
/// full parse would put the client's own CPU cost on the shared cores).
pub fn json_number(body: &[u8], key: &str) -> Option<f64> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &text[at..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
