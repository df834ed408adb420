//! Socket transport: address plans, listeners, and framed non-blocking
//! connections over TCP or Unix-domain sockets.

use super::frame::{encode_frame, FrameDecoder};
use super::msg::NetMsg;
use proauth_primitives::wire::{Decode, Encode};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where every process of a deployment listens, derived from one base
/// address so the CLI can describe a whole topology with a single flag.
///
/// * `tcp:HOST:BASE` — node `i` listens on `BASE + i`, the proxy on `BASE`,
///   the collector on `BASE - 1`.
/// * `unix:DIR` — node `i` listens on `DIR/node-i.sock`, the proxy on
///   `DIR/proxy.sock`, the collector on `DIR/client.sock`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrPlan {
    /// TCP on `host`, ports `base ± offset`.
    Tcp {
        /// Host or IP to bind/dial.
        host: String,
        /// Base port (the proxy's).
        base: u16,
    },
    /// Unix-domain sockets inside a directory.
    Unix {
        /// Directory holding the sockets.
        dir: PathBuf,
    },
}

/// One concrete endpoint of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `host:port`.
    Tcp(String),
    /// Socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl AddrPlan {
    /// Parses `tcp:HOST:PORT` or `unix:DIR`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            let (host, port) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("bad tcp address '{rest}' (want HOST:PORT)"))?;
            let base: u16 = port
                .parse()
                .map_err(|_| format!("bad port in '{rest}'"))?;
            Ok(AddrPlan::Tcp {
                host: host.to_owned(),
                base,
            })
        } else if let Some(dir) = s.strip_prefix("unix:") {
            Ok(AddrPlan::Unix {
                dir: PathBuf::from(dir),
            })
        } else {
            Err(format!("bad net address '{s}' (want tcp:HOST:PORT or unix:DIR)"))
        }
    }

    /// Node `id`'s listen endpoint (1-based id).
    pub fn node(&self, id: u32) -> Endpoint {
        match self {
            AddrPlan::Tcp { host, base } => Endpoint::Tcp(format!("{host}:{}", base + id as u16)),
            AddrPlan::Unix { dir } => Endpoint::Unix(dir.join(format!("node-{id}.sock"))),
        }
    }

    /// The chaos proxy's listen endpoint.
    pub fn proxy(&self) -> Endpoint {
        match self {
            AddrPlan::Tcp { host, base } => Endpoint::Tcp(format!("{host}:{base}")),
            AddrPlan::Unix { dir } => Endpoint::Unix(dir.join("proxy.sock")),
        }
    }

    /// The collector's listen endpoint.
    pub fn collector(&self) -> Endpoint {
        match self {
            AddrPlan::Tcp { host, base } => Endpoint::Tcp(format!("{host}:{}", base - 1)),
            AddrPlan::Unix { dir } => Endpoint::Unix(dir.join("client.sock")),
        }
    }

    /// The collector's live **status** endpoint (Prometheus exposition /
    /// JSON snapshot / scoreboard over a one-request-per-connection text
    /// protocol — not [`super::msg::NetMsg`]-framed).
    pub fn status(&self) -> Endpoint {
        match self {
            AddrPlan::Tcp { host, base } => Endpoint::Tcp(format!("{host}:{}", base - 2)),
            AddrPlan::Unix { dir } => Endpoint::Unix(dir.join("status.sock")),
        }
    }
}

/// A listening socket of either family.
pub enum NetListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Unix(UnixListener),
}

impl NetListener {
    /// Binds `ep`, replacing a stale Unix socket file if present.
    pub fn bind(ep: &Endpoint) -> io::Result<Self> {
        match ep {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(NetListener::Tcp(l))
            }
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(NetListener::Unix(l))
            }
        }
    }

    /// Accepts one pending connection, if any (non-blocking).
    pub fn accept(&self) -> io::Result<Option<NetStream>> {
        let res = match self {
            NetListener::Tcp(l) => l.accept().map(|(s, _)| NetStream::from_tcp(s)),
            NetListener::Unix(l) => l.accept().map(|(s, _)| NetStream::from_unix(s)),
        };
        match res {
            Ok(stream) => Ok(Some(stream?)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The raw descriptor, for the poll set.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            NetListener::Tcp(l) => l.as_raw_fd(),
            NetListener::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// A connected socket of either family, non-blocking.
pub enum NetStream {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    Unix(UnixStream),
}

impl NetStream {
    fn from_tcp(s: TcpStream) -> io::Result<Self> {
        s.set_nonblocking(true)?;
        // Round barriers are latency-bound: never batch small frames.
        s.set_nodelay(true)?;
        Ok(NetStream::Tcp(s))
    }

    fn from_unix(s: UnixStream) -> io::Result<Self> {
        s.set_nonblocking(true)?;
        Ok(NetStream::Unix(s))
    }

    /// Dials `ep`, retrying until `deadline` (peers start in arbitrary
    /// order, so the first dials race the peers' binds).
    pub fn dial(ep: &Endpoint, deadline: Instant) -> io::Result<Self> {
        loop {
            let attempt = match ep {
                Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).and_then(Self::from_tcp),
                Endpoint::Unix(path) => UnixStream::connect(path).and_then(Self::from_unix),
            };
            match attempt {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            e.kind(),
                            format!("dialing {ep} timed out: {e}"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// The raw descriptor, for the poll set.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            NetStream::Tcp(s) => s.as_raw_fd(),
            NetStream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// A framed, non-blocking connection: encodes [`NetMsg`]s into an outgoing
/// queue flushed on writability, decodes frames from incoming chunks.
pub struct Conn {
    stream: NetStream,
    decoder: FrameDecoder,
    /// Outgoing bytes not yet accepted by the kernel.
    outq: Vec<u8>,
    /// Cursor into `outq`.
    out_pos: usize,
    /// Peer closed (read side saw EOF or an unrecoverable error).
    pub closed: bool,
}

impl Conn {
    /// Wraps a connected stream.
    pub fn new(stream: NetStream) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            outq: Vec::new(),
            out_pos: 0,
            closed: false,
        }
    }

    /// The raw descriptor, for the poll set.
    pub fn raw_fd(&self) -> RawFd {
        self.stream.raw_fd()
    }

    /// Whether bytes are queued and unflushed (poll for writability).
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.outq.len()
    }

    /// Queues one message and attempts an opportunistic flush.
    pub fn send(&mut self, msg: &NetMsg) {
        if self.closed {
            return;
        }
        encode_frame(&mut self.outq, &msg.to_bytes());
        let _ = self.flush();
    }

    /// Chaos tool: queues only the first half of `msg`'s encoded frame and
    /// flushes, leaving the receiver's decoder waiting on a truncated frame.
    /// Dropping the connection right after models a socket reset mid-frame
    /// (the reconnect path must recover with a fresh decoder on both sides).
    pub fn send_partial(&mut self, msg: &NetMsg) {
        if self.closed {
            return;
        }
        let mut framed = Vec::new();
        encode_frame(&mut framed, &msg.to_bytes());
        framed.truncate(framed.len() / 2);
        self.outq.extend_from_slice(&framed);
        let _ = self.flush();
    }

    /// Writes queued bytes until the kernel would block or the queue drains.
    ///
    /// # Errors
    ///
    /// A broken pipe marks the connection closed and is *not* reported as an
    /// error — a departed peer is a normal condition the round loop already
    /// handles via the mark/deadline logic.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.outq.len() {
            match self.stream.write(&self.outq[self.out_pos..]) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        if self.out_pos == self.outq.len() {
            self.outq.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            self.outq.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Blocks (via short sleeps) until the outgoing queue drains or the
    /// timeout expires; used for the final report/bye flush at shutdown.
    pub fn flush_blocking(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.wants_write() && !self.closed && Instant::now() < deadline {
            let _ = super::poll::poll(&[(self.raw_fd(), true)], Some(20));
            let _ = self.flush();
        }
    }

    /// Reads all available bytes and decodes complete frames into messages.
    ///
    /// Malformed frames or messages mark the connection closed (the stream
    /// cannot be resynchronized); well-formed traffic is returned in order.
    pub fn recv(&mut self) -> Vec<NetMsg> {
        let mut msgs = Vec::new();
        if self.closed {
            return msgs;
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(k) => self.decoder.push(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => match NetMsg::from_bytes(&frame) {
                    Ok(msg) => msgs.push(msg),
                    Err(_) => {
                        self.closed = true;
                        break;
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        msgs
    }
}

/// Bounded store-and-forward queue for frames addressed to a peer whose
/// connection is currently down.
///
/// The peer table holds a crashed node's **slot** across the disconnect:
/// instead of silently dropping traffic at a dead [`Conn`], the sender parks
/// it here and flushes the backlog into the replacement connection when the
/// restarted peer re-handshakes. The cap bounds memory during long outages
/// (drop-oldest — matching the engine's crash semantics, where traffic
/// pending toward a crashed node is discarded); `dropped` records how much
/// the outage cost.
#[derive(Default)]
pub struct PendingQueue {
    q: std::collections::VecDeque<NetMsg>,
    cap: usize,
    /// Frames dropped at the cap (oldest-first).
    pub dropped: u64,
}

impl PendingQueue {
    /// An empty queue holding at most `cap` frames.
    pub fn new(cap: usize) -> Self {
        PendingQueue {
            q: std::collections::VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    /// Parks one frame, evicting the oldest beyond the cap.
    pub fn push(&mut self, msg: NetMsg) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        while self.q.len() >= self.cap {
            self.q.pop_front();
            self.dropped += 1;
        }
        self.q.push_back(msg);
    }

    /// Flushes the backlog into a (fresh) connection, FIFO.
    pub fn drain_into(&mut self, conn: &mut Conn) {
        for msg in self.q.drain(..) {
            conn.send(&msg);
        }
    }

    /// Frames currently parked.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Discards the backlog (peer departed for good).
    pub fn clear(&mut self) {
        self.q.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_plan_parses_and_derives() {
        let tcp = AddrPlan::parse("tcp:127.0.0.1:9100").unwrap();
        assert_eq!(tcp.node(3), Endpoint::Tcp("127.0.0.1:9103".into()));
        assert_eq!(tcp.proxy(), Endpoint::Tcp("127.0.0.1:9100".into()));
        assert_eq!(tcp.collector(), Endpoint::Tcp("127.0.0.1:9099".into()));
        let unix = AddrPlan::parse("unix:/tmp/pa").unwrap();
        assert_eq!(
            unix.node(1),
            Endpoint::Unix(PathBuf::from("/tmp/pa/node-1.sock"))
        );
        assert!(AddrPlan::parse("udp:1.2.3.4").is_err());
        assert!(AddrPlan::parse("tcp:noport").is_err());
    }

    #[test]
    fn conn_roundtrip_over_unix_socketpair() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let mut tx = Conn::new(NetStream::Unix(a));
        let mut rx = Conn::new(NetStream::Unix(b));
        let msg = NetMsg::Round {
            round: 5,
            deliver: 6,
            seq: 2,
            from: crate::message::NodeId(1),
            to: crate::message::NodeId(2),
            payload: vec![0xAB; 100],
        };
        tx.send(&msg);
        tx.flush_blocking(Duration::from_secs(1));
        // Wait for readability, then receive.
        super::super::poll::poll(&[(rx.raw_fd(), false)], Some(1000)).unwrap();
        let got = rx.recv();
        assert_eq!(got, vec![msg]);
        assert!(!rx.closed);
    }

    #[test]
    fn pending_queue_is_fifo_and_drop_oldest() {
        let mut pq = PendingQueue::new(3);
        for round in 0..5u64 {
            pq.push(NetMsg::RoundMark {
                round,
                from: crate::message::NodeId(1),
            });
        }
        assert_eq!(pq.len(), 3);
        assert_eq!(pq.dropped, 2);
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let mut tx = Conn::new(NetStream::Unix(a));
        let mut rx = Conn::new(NetStream::Unix(b));
        pq.drain_into(&mut tx);
        assert!(pq.is_empty());
        tx.flush_blocking(Duration::from_secs(1));
        super::super::poll::poll(&[(rx.raw_fd(), false)], Some(1000)).unwrap();
        let rounds: Vec<u64> = rx
            .recv()
            .into_iter()
            .map(|m| match m {
                NetMsg::RoundMark { round, .. } => round,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // Oldest (rounds 0, 1) evicted; survivors in send order.
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn send_partial_leaves_receiver_waiting_then_fresh_conn_resyncs() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let mut tx = Conn::new(NetStream::Unix(a));
        let mut rx = Conn::new(NetStream::Unix(b));
        tx.send_partial(&NetMsg::Round {
            round: 9,
            deliver: 10,
            seq: 0,
            from: crate::message::NodeId(1),
            to: crate::message::NodeId(2),
            payload: vec![0x55; 300],
        });
        tx.flush_blocking(Duration::from_secs(1));
        super::super::poll::poll(&[(rx.raw_fd(), false)], Some(1000)).unwrap();
        // The truncated frame never decodes; the conn stays open, waiting.
        assert!(rx.recv().is_empty());
        assert!(!rx.closed);
        drop(tx); // the reset: sender goes away mid-frame
        super::super::poll::poll(&[(rx.raw_fd(), false)], Some(1000)).unwrap();
        assert!(rx.recv().is_empty());
        assert!(rx.closed);
        // A fresh connection pair (new decoders both sides) carries traffic
        // again — the redial path after a reset.
        let (a2, b2) = UnixStream::pair().unwrap();
        a2.set_nonblocking(true).unwrap();
        b2.set_nonblocking(true).unwrap();
        let mut tx2 = Conn::new(NetStream::Unix(a2));
        let mut rx2 = Conn::new(NetStream::Unix(b2));
        let hello = NetMsg::Hello { node: 1, run_id: 7 };
        tx2.send(&hello);
        tx2.flush_blocking(Duration::from_secs(1));
        super::super::poll::poll(&[(rx2.raw_fd(), false)], Some(1000)).unwrap();
        assert_eq!(rx2.recv(), vec![hello]);
    }
}
