//! Fleet transport — shard addresses, connected streams, and listeners
//! over Unix domain sockets or TCP.
//!
//! The wire codec ([`crate::wire`]) is pure bytes; this module owns the
//! sockets it travels over. Both transports present one [`Stream`] type
//! (blocking reads/writes, cloneable for a reader/writer split) so the
//! [`Server`](crate::Server) and the [`RemoteShard`](crate::RemoteShard)
//! client are transport-agnostic.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a shard listens: `unix:PATH` or `tcp:HOST:PORT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAddr {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port` endpoint.
    Tcp(String),
}

impl ShardAddr {
    /// Parses the `unix:PATH` / `tcp:HOST:PORT` spelling.
    ///
    /// # Errors
    ///
    /// Returns a message naming the expected forms.
    pub fn parse(s: &str) -> Result<ShardAddr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: address needs a socket path".into());
            }
            return Ok(ShardAddr::Unix(PathBuf::from(path)));
        }
        if let Some(hostport) = s.strip_prefix("tcp:") {
            if !hostport.contains(':') {
                return Err(format!("tcp: address {hostport:?} needs HOST:PORT"));
            }
            return Ok(ShardAddr::Tcp(hostport.to_string()));
        }
        Err(format!("address {s:?} must be unix:PATH or tcp:HOST:PORT"))
    }

    /// Connects to the shard.
    ///
    /// # Errors
    ///
    /// Propagates the socket error (`ConnectionRefused` when the shard is
    /// down — the fleet's fast failure signal).
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            ShardAddr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            ShardAddr::Tcp(hostport) => TcpStream::connect(hostport.as_str()).map(Stream::Tcp),
        }
    }
}

impl fmt::Display for ShardAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            ShardAddr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
        }
    }
}

/// One connected byte stream, either transport.
#[derive(Debug)]
pub enum Stream {
    /// Over a Unix domain socket.
    Unix(UnixStream),
    /// Over TCP.
    Tcp(TcpStream),
}

impl Stream {
    /// An independently usable handle to the same socket (reader/writer
    /// split).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Bounds blocking reads (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Shuts both directions down, unblocking any reader.
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound accept socket, either transport.
#[derive(Debug)]
pub enum Listener {
    /// A Unix domain socket listener.
    Unix(UnixListener),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr`, returning the listener and the *actual* address
    /// (`tcp:HOST:0` resolves to the assigned port; a stale Unix socket
    /// file left by a killed daemon is removed first).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: &ShardAddr) -> io::Result<(Listener, ShardAddr)> {
        let listener = match addr {
            ShardAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?)
            }
            ShardAddr::Tcp(hostport) => Listener::Tcp(TcpListener::bind(hostport.as_str())?),
        };
        let actual = listener.local_addr()?;
        Ok((listener, actual))
    }

    /// The address this listener accepts on, as a client dials it.
    ///
    /// # Errors
    ///
    /// Propagates the socket error; a Unix socket bound to no path is
    /// `InvalidInput`.
    pub fn local_addr(&self) -> io::Result<ShardAddr> {
        match self {
            Listener::Unix(l) => match l.local_addr()?.as_pathname() {
                Some(path) => Ok(ShardAddr::Unix(path.to_path_buf())),
                None => Err(io::Error::new(io::ErrorKind::InvalidInput, "unnamed Unix socket")),
            },
            Listener::Tcp(l) => Ok(ShardAddr::Tcp(l.local_addr()?.to_string())),
        }
    }

    /// Accepts one connection, blocking until a client dials.
    ///
    /// # Errors
    ///
    /// The socket error.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse_and_print_round_trip() {
        for spec in ["unix:/tmp/shard0.sock", "tcp:127.0.0.1:7400"] {
            let addr = ShardAddr::parse(spec).unwrap();
            assert_eq!(addr.to_string(), spec);
        }
        assert!(ShardAddr::parse("unix:").is_err());
        assert!(ShardAddr::parse("tcp:nocolon").is_err());
        assert!(ShardAddr::parse("http://x").is_err());
    }

    #[test]
    fn tcp_port_zero_resolves_and_connects() {
        let (listener, actual) = Listener::bind(&ShardAddr::parse("tcp:127.0.0.1:0").unwrap())
            .expect("bind an ephemeral port");
        let ShardAddr::Tcp(hostport) = &actual else { panic!("tcp addr expected") };
        assert!(!hostport.ends_with(":0"), "{actual} must carry the assigned port");
        let _client = actual.connect().unwrap();
        let accepted = listener.accept().unwrap();
        accepted.shutdown();
    }

    #[test]
    fn unix_bind_replaces_a_stale_socket_file() {
        let dir = std::env::temp_dir().join(format!("asdr-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.sock");
        let addr = ShardAddr::Unix(path.clone());
        let (first, _) = Listener::bind(&addr).unwrap();
        drop(first); // socket file remains, as after a kill -9
        assert!(path.exists());
        let (second, _) = Listener::bind(&addr).expect("rebind over the stale file");
        let _client = addr.connect().unwrap();
        second.accept().unwrap().shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
