//! The socket link: the delivery engine (`crate::delivery`) carried over
//! real TCP or Unix-domain stream sockets.
//!
//! One [`SocketBackend`] instance serves one rank — normally one OS
//! process, though tests may host several backends in a single process.
//! Peers form a full mesh of duplex connections; each connection carries
//! [`crate::stream`] envelopes, and a message is a checksummed wire frame
//! ([`crate::wire`]). The kernel stream is reliable and ordered, so a clean
//! send queues one `Clean` envelope: no number, no ack, no retransmit. From
//! the first plan that perturbs a link on (the engine's rule, as in
//! process) every send goes through the reliability layer as a `Data`
//! envelope, numbered per link and acked by an `Ack` envelope. What lives
//! here is how a frame reaches a peer (a per-connection queue), how an ack
//! comes back, and how deaths are learnt and carried out.
//!
//! ## Event loop
//!
//! The workspace builds offline with no `epoll`/`mio` binding, so the
//! "event loop" is the poll-style decomposition of one: a per-connection
//! reader thread blocks in `read` and runs the [`StreamDecoder`]
//! reassembly, a per-connection writer thread drains an outbound queue
//! (senders never write to sockets directly — acks can therefore never
//! deadlock against a full send buffer), and one accept thread services
//! the listener. Connection establishment is deterministic: rank *r* dials
//! every peer with a lower id (retrying with backoff until the connect
//! timeout) and accepts from every higher one, identifying itself with a
//! `Hello` envelope.
//!
//! ## Failure detection: EOF vs. timeout
//!
//! Two independent signals feed the unchanged ULFM revoke → agree → shrink
//! path above:
//!
//! * **EOF / connection reset** — a SIGKILLed process's kernel closes its
//!   sockets; every peer's reader observes it immediately and marks the
//!   rank dead (the fail-stop signal the in-process alive table modeled);
//! * **silence** — a reachable-but-stuck peer trips the suspicion timeout
//!   of a blocking receive with no explicit deadline. A clean send waits
//!   for no ack, so it never suspects a live peer that is slow to read;
//!   under a plan, send-retry exhaustion is a second rule.
//!
//! A suspected rank is additionally sent a best-effort `Die` envelope so
//! that — exactly as with the shared alive table — a suspected process
//! blocked in a receive observes [`crate::TransportError::SelfDied`] rather
//! than hanging on peers that have already written it off.

use crate::backend::{Backend, BackendKind, SignalHandler};
use crate::delivery::{Engine, Slot};
use crate::fault::{FaultInjector, RankFaults};
use crate::ids::{RankId, Topology};
use crate::mailbox::{FrameAck, Mailbox};
use crate::reliable;
use crate::stream::{encode_envelope, envelope_header, StreamDecoder, StreamKind, ENVELOPE_HEADER};
use crate::wait::{WaitLock, YieldBudget};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Extra grace added to each ack-wait beyond the retry policy's backoff:
/// unlike the in-process fabric, where delivery is a function call, a
/// loopback round-trip through two service threads has real latency, and
/// without the floor the default 100µs first backoff would retransmit
/// almost every frame. The wait it extends only runs once the frame's
/// bytes have left (see [`SocketBackend::wait_ack`]), so it covers the
/// round trip, not the time a large frame takes to write.
const ACK_GRACE: Duration = Duration::from_millis(1);

/// How long a freshly-accepted connection gets to present its `Hello`.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long `shutdown` waits for a draining link that has stopped writing
/// before force-closing it.
const SHUTDOWN_DRAIN: Duration = Duration::from_millis(500);

/// Backoff between dial attempts while a peer's listener isn't up yet.
const DIAL_RETRY: Duration = Duration::from_millis(10);

/// Dial budget for a join-time `connect_peer` (ticket-time gap filling):
/// the target published its address, so it is either accepting or dead.
const JOIN_DIAL_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound listening socket plus its dialable address string
/// (`tcp:127.0.0.1:PORT` or `unix:/path`). Created by
/// [`SocketBackend::bind`] *before* rendezvous so the address can be
/// published, then consumed by [`SocketBackend::establish`].
pub struct SocketListener {
    inner: ListenerInner,
    addr: String,
}

enum ListenerInner {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl SocketListener {
    /// The address peers should dial, e.g. `tcp:127.0.0.1:41234`.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// A duplex stream of either flavor.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn connect(addr: &str) -> io::Result<Self> {
        if let Some(rest) = addr.strip_prefix("tcp:") {
            let s = TcpStream::connect(rest)?;
            s.set_nodelay(true).ok();
            Ok(Stream::Tcp(s))
        } else if let Some(rest) = addr.strip_prefix("unix:") {
            Ok(Stream::Unix(UnixStream::connect(rest)?))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("address {addr:?} has no tcp:/unix: prefix"),
            ))
        }
    }

    fn try_clone(&self) -> io::Result<Self> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn shutdown_both(&self) {
        match self {
            Stream::Tcp(s) => {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
            Stream::Unix(s) => {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
        }
    }

    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.write_all(buf),
            Stream::Unix(s) => s.write_all(buf),
        }
    }

    /// Write `head` then `body` as one byte sequence (one `writev` while
    /// both have bytes left, so a small frame still leaves in one segment),
    /// adding every byte to `written` as it leaves.
    fn write_counted(&mut self, head: &[u8], body: &[u8], written: &AtomicU64) -> io::Result<()> {
        let mut done = 0;
        while done < head.len() + body.len() {
            let bufs = [
                IoSlice::new(&head[done.min(head.len())..]),
                IoSlice::new(&body[done.saturating_sub(head.len())..]),
            ];
            let n = match self {
                Stream::Tcp(s) => s.write_vectored(&bufs),
                Stream::Unix(s) => s.write_vectored(&bufs),
            };
            match n {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    done += n;
                    written.fetch_add(n as u64, Ordering::SeqCst);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// One item of a link's outbound queue.
enum Outbound {
    /// A ready-made control envelope (ack, signal, die, bye).
    Control(Vec<u8>),
    /// A wire frame, `Clean` or `Data`: the writer puts the envelope header
    /// in front. A `Data` frame is shared with the `send` that may have to
    /// retransmit it.
    Frame(StreamKind, Arc<Vec<u8>>),
}

impl Outbound {
    /// Bytes this item occupies on the stream.
    fn stream_len(&self) -> usize {
        match self {
            Outbound::Control(env) => env.len(),
            Outbound::Frame(_, frame) => ENVELOPE_HEADER + frame.len(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LinkPhase {
    /// Not yet connected.
    Pending,
    /// Connected; reader/writer threads running.
    Up,
    /// Close requested after the outbound queue drains (delivers a final
    /// `Die`/`Bye` before the FIN).
    Draining,
    /// Closed; queue is discarded.
    Closed,
}

struct LinkState {
    phase: LinkPhase,
    queue: VecDeque<Outbound>,
    /// Stream bytes ever queued on this link (cleared items included).
    enqueued: u64,
    /// Handle kept for shutdown; the reader/writer threads own clones.
    stream: Option<Stream>,
}

pub(crate) struct PeerLink {
    state: Mutex<LinkState>,
    cv: Condvar,
    /// Stream bytes the writer thread has handed to the socket so far. An
    /// item queued at `enqueued == e` has left once `written >= e`, and a
    /// growing count means the peer is still reading.
    written: AtomicU64,
}

impl PeerLink {
    fn vacant() -> Self {
        Self {
            state: Mutex::new(LinkState {
                phase: LinkPhase::Pending,
                queue: VecDeque::new(),
                enqueued: 0,
                stream: None,
            }),
            cv: Condvar::new(),
            written: AtomicU64::new(0),
        }
    }
}

/// The socket implementation of [`Backend`]. See the module docs for the
/// threading model and failure-detection semantics.
pub struct SocketBackend {
    rank: RankId,
    kind: BackendKind,
    mailbox: Mailbox,
    /// Handle to ourselves for spawning service threads from `&self`
    /// methods (joiner dials arrive through the object-safe [`Backend`]
    /// trait, which has no `Arc<Self>` receiver).
    self_weak: Weak<SocketBackend>,
    /// This backend's own delivery engine — its view of the job and its own
    /// traffic. A peer's slot holds the [`PeerLink`] carrying traffic to it;
    /// slots are created for the initial world at establish time and
    /// appended when a joiner is admitted (or dials in).
    engine: Engine<PeerLink>,
    /// This rank's fault counters and triggers.
    faults: Arc<RankFaults>,
    /// Acks received but not yet claimed by a waiting sender.
    acks: WaitLock<HashSet<(RankId, u64, u64)>>,
    signal_handler: RwLock<Option<SignalHandler>>,
    shutting_down: AtomicBool,
    /// Set when this rank dies *abruptly* (scripted fault, a peer's `Die`
    /// verdict) as opposed to a voluntary `kill_self` retirement. Lets a
    /// host process turn simulated hard deaths into real ones.
    hard_died: AtomicBool,
    /// Dialable address of the local listener (for the shutdown self-wake).
    local_addr: String,
    ready_links: AtomicUsize,
    ready_mx: Mutex<()>,
    ready_cv: Condvar,
}

impl SocketBackend {
    /// Bind a listener of the requested kind on an ephemeral local address.
    /// Returns the listener and its dialable address string; publish the
    /// address (e.g. through the rendezvous store), then call
    /// [`SocketBackend::establish`] once every peer's address is known.
    pub fn bind(kind: BackendKind) -> io::Result<SocketListener> {
        static UNIX_SEQ: AtomicU64 = AtomicU64::new(0);
        match kind {
            BackendKind::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = format!("tcp:{}", l.local_addr()?);
                Ok(SocketListener {
                    inner: ListenerInner::Tcp(l),
                    addr,
                })
            }
            BackendKind::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "elfr-{}-{}.sock",
                    std::process::id(),
                    UNIX_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                // A crashed earlier run may have left the name behind.
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                let addr = format!("unix:{}", path.display());
                Ok(SocketListener {
                    inner: ListenerInner::Unix(l, path),
                    addr,
                })
            }
            BackendKind::InProc => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the in-process backend has no listener; use Endpoint::new",
            )),
        }
    }

    /// Shared constructor: a backend with `slots` vacant peer slots (all
    /// initially alive) and its accept thread running on `listener`.
    fn construct(
        rank: RankId,
        topology: Topology,
        slots: usize,
        listener: SocketListener,
        injector: FaultInjector,
    ) -> Arc<Self> {
        let kind = match &listener.inner {
            ListenerInner::Tcp(_) => BackendKind::Tcp,
            ListenerInner::Unix(..) => BackendKind::Unix,
        };
        let faults = injector.rank(rank);
        let engine = Engine::new(topology, injector);
        for _ in 0..slots {
            engine.push(PeerLink::vacant());
        }
        let backend = Arc::new_cyclic(|weak| SocketBackend {
            rank,
            kind,
            mailbox: Mailbox::new(),
            self_weak: weak.clone(),
            engine,
            faults,
            acks: WaitLock::default(),
            signal_handler: RwLock::new(None),
            shutting_down: AtomicBool::new(false),
            hard_died: AtomicBool::new(false),
            local_addr: listener.addr.clone(),
            ready_links: AtomicUsize::new(0),
            ready_mx: Mutex::new(()),
            ready_cv: Condvar::new(),
        });
        {
            let b = Arc::clone(&backend);
            std::thread::Builder::new()
                .name(format!("sock-accept-{rank}"))
                .spawn(move || b.accept_loop(listener))
                .expect("spawn accept thread");
        }
        backend
    }

    /// Establish the full mesh: dial every lower-ranked peer, accept from
    /// every higher-ranked one, and return once all `world - 1` links are
    /// up (or fail after `connect_timeout`).
    ///
    /// `peer_addrs[r]` must be rank `r`'s published address
    /// (`peer_addrs[rank]` is ignored — it is this backend's own listener).
    pub fn establish(
        rank: RankId,
        topology: Topology,
        listener: SocketListener,
        peer_addrs: &[String],
        injector: FaultInjector,
        connect_timeout: Duration,
    ) -> io::Result<Arc<Self>> {
        let world = peer_addrs.len();
        assert!(rank.0 < world, "rank {rank} outside world of {world}");
        let backend = Self::construct(rank, topology, world, listener, injector);

        // Dial every lower-ranked peer (their listeners may not be up yet).
        for (p, addr) in peer_addrs.iter().enumerate().take(rank.0) {
            let deadline = Instant::now() + connect_timeout;
            let mut stream = loop {
                match Stream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            backend.shutdown();
                            return Err(io::Error::new(
                                e.kind(),
                                format!("dialing rank {p} at {addr}: {e}"),
                            ));
                        }
                        std::thread::sleep(DIAL_RETRY);
                    }
                }
            };
            stream.write_all_bytes(&encode_envelope(
                StreamKind::Hello,
                &(rank.0 as u64).to_le_bytes(),
            ))?;
            backend.install_link(RankId(p), stream, StreamDecoder::new());
        }

        // Wait for the full mesh.
        let deadline = Instant::now() + connect_timeout;
        {
            let mut g = backend.ready_mx.lock();
            while backend.ready_links.load(Ordering::SeqCst) < world - 1 {
                let now = Instant::now();
                if now >= deadline {
                    let have = backend.ready_links.load(Ordering::SeqCst);
                    backend.shutdown();
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "rank {rank}: only {have}/{} links up within {connect_timeout:?}",
                            world - 1
                        ),
                    ));
                }
                backend.ready_cv.wait_for(&mut g, deadline - now);
            }
        }
        Ok(backend)
    }

    /// Establish a *joiner* backend: a process that arrives after the
    /// initial mesh is up and wants to be admitted through the elastic
    /// join handshake. Unlike [`SocketBackend::establish`], this does not
    /// wait for a full mesh — it dials every published member address in
    /// parallel and succeeds as long as at least one member is reachable
    /// (unreachable members are marked dead locally, exactly as if their
    /// EOF had been observed). Links to members that publish *later*
    /// (e.g. other joiners) are filled in on demand via
    /// [`Backend::connect_peer`] or by accepting their dial.
    pub fn establish_joiner(
        rank: RankId,
        topology: Topology,
        listener: SocketListener,
        peer_addrs: &[(RankId, String)],
        injector: FaultInjector,
        connect_timeout: Duration,
    ) -> io::Result<Arc<Self>> {
        let backend = Self::construct(rank, topology, rank.0 + 1, listener, injector);
        let dials: Vec<_> = peer_addrs
            .iter()
            .filter(|(p, _)| *p != rank)
            .cloned()
            .map(|(p, addr)| {
                let b = Arc::clone(&backend);
                std::thread::Builder::new()
                    .name(format!("sock-dial-{rank}-{p}"))
                    .spawn(move || b.connect_peer_addr(p, &addr, connect_timeout))
                    .expect("spawn dial thread")
            })
            .collect();
        let expected = dials.len();
        let up = dials
            .into_iter()
            .map(|h| h.join())
            .filter(|r| matches!(r, Ok(true)))
            .count();
        if up == 0 && expected > 0 {
            backend.shutdown();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("joiner rank {rank}: none of {expected} members reachable"),
            ));
        }
        Ok(backend)
    }

    /// Dial `peer` at its published `addr` and install the link. Returns
    /// true once a link to `peer` is up (possibly pre-existing: a crossing
    /// dial from the peer that already installed wins, which is fine —
    /// there is exactly one connection either way). Returns false — and
    /// marks the peer dead, the same verdict an EOF would have produced —
    /// if the peer is already known dead, refuses the connection, or the
    /// timeout expires. A published address with nobody listening means
    /// the process behind it is gone (addresses are only ever published
    /// *after* the listener binds), so refusal fails fast instead of
    /// burning the whole timeout.
    pub fn connect_peer_addr(&self, peer: RankId, addr: &str, timeout: Duration) -> bool {
        if peer == self.rank {
            return true;
        }
        let slot = self.engine.ensure(peer, PeerLink::vacant);
        if !slot.is_alive() {
            return false;
        }
        if slot.port.state.lock().phase != LinkPhase::Pending {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut stream = loop {
            if self.shutting_down.load(Ordering::SeqCst) {
                return false;
            }
            match Stream::connect(addr) {
                Ok(s) => break s,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionRefused | io::ErrorKind::NotFound
                    ) || Instant::now() >= deadline =>
                {
                    self.mark_peer_dead(peer, false);
                    return false;
                }
                Err(_) => std::thread::sleep(DIAL_RETRY),
            }
        };
        if stream
            .write_all_bytes(&encode_envelope(
                StreamKind::Hello,
                &(self.rank.0 as u64).to_le_bytes(),
            ))
            .is_err()
        {
            self.mark_peer_dead(peer, false);
            return false;
        }
        self.install_link(peer, stream, StreamDecoder::new());
        true
    }

    /// Did this rank die abruptly (scripted fault or a peer's `Die`
    /// verdict), as opposed to retiring voluntarily? A multi-process host
    /// can poll this to turn a simulated hard death into a real `SIGKILL`.
    pub fn hard_died(&self) -> bool {
        self.hard_died.load(Ordering::SeqCst)
    }

    /// The dialable address of this backend's listener, as published to
    /// peers (e.g. `tcp:127.0.0.1:PORT`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Which flavor of socket this backend runs on.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Convenience for tests and single-process socket scenarios: bind and
    /// establish a full mesh of `n` backends inside this process, all
    /// sharing the scripted `injector` plan (each backend only ever fires
    /// its own rank's triggers).
    pub fn local_mesh(
        kind: BackendKind,
        topology: Topology,
        n: usize,
        injector_plan: crate::fault::FaultPlan,
    ) -> io::Result<Vec<Arc<Self>>> {
        let listeners = (0..n)
            .map(|_| Self::bind(kind))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs: Vec<String> = listeners.iter().map(|l| l.addr().to_string()).collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(r, listener)| {
                let addrs = addrs.clone();
                let plan = injector_plan.clone();
                std::thread::spawn(move || {
                    Self::establish(
                        RankId(r),
                        topology,
                        listener,
                        &addrs,
                        FaultInjector::new(plan),
                        Duration::from_secs(20),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mesh establish thread panicked"))
            .collect()
    }

    // ---- connection service threads -------------------------------------

    fn accept_loop(self: Arc<Self>, listener: SocketListener) {
        loop {
            let stream = match &listener.inner {
                ListenerInner::Tcp(l) => l.accept().map(|(s, _)| {
                    s.set_nodelay(true).ok();
                    Stream::Tcp(s)
                }),
                ListenerInner::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            if self.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else {
                if self.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            };
            // Handshake: the dialer identifies itself first. The decoder
            // comes back with it: a fast dialer's first data frames may
            // already be coalesced behind the Hello, and dropping them
            // would desync the stream.
            // Any rank may dial in — including one beyond the current
            // world, i.e. a joiner — but a rank we already saw die stays
            // dead (failure knowledge only grows).
            match self.read_hello(&mut stream) {
                Some((peer, dec))
                    if peer != self.rank && self.engine.slot(peer).is_none_or(|s| s.is_alive()) =>
                {
                    self.install_link(peer, stream, dec);
                }
                _ => {
                    stream.shutdown_both();
                }
            }
        }
        if let ListenerInner::Unix(_, path) = &listener.inner {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Read the dialer's Hello. Returns the peer's rank together with the
    /// decoder, which may already hold bytes read past the Hello (the
    /// dialer is free to start sending the moment its side of the link is
    /// up); the reader loop continues from exactly that state.
    fn read_hello(&self, stream: &mut Stream) -> Option<(RankId, StreamDecoder)> {
        stream.set_read_timeout(Some(HELLO_TIMEOUT)).ok()?;
        let mut dec = StreamDecoder::new();
        let mut buf = [0u8; 256];
        let env = loop {
            match dec.next_envelope() {
                Ok(Some(env)) => break env,
                Ok(None) => {}
                Err(_) => return None,
            }
            let n = stream.read_bytes(&mut buf).ok()?;
            if n == 0 {
                return None;
            }
            dec.push(&buf[..n]);
        };
        stream.set_read_timeout(None).ok()?;
        if env.kind != StreamKind::Hello || env.payload.len() != 8 {
            return None;
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&env.payload);
        Some((RankId(u64::from_le_bytes(raw) as usize), dec))
    }

    fn install_link(&self, peer: RankId, stream: Stream, dec: StreamDecoder) {
        let Some(this) = self.self_weak.upgrade() else {
            stream.shutdown_both();
            return;
        };
        let reader = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                stream.shutdown_both();
                return;
            }
        };
        let writer = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                stream.shutdown_both();
                return;
            }
        };
        let slot = self.engine.ensure(peer, PeerLink::vacant);
        {
            let mut st = slot.port.state.lock();
            if st.phase != LinkPhase::Pending {
                // Duplicate or late connection; keep the first.
                stream.shutdown_both();
                return;
            }
            st.phase = LinkPhase::Up;
            st.stream = Some(stream);
            slot.port.cv.notify_all();
        }
        {
            let b = Arc::clone(&this);
            std::thread::Builder::new()
                .name(format!("sock-rd-{}-{peer}", self.rank))
                .spawn(move || b.reader_loop(peer, reader, dec))
                .expect("spawn reader thread");
        }
        {
            let b = this;
            std::thread::Builder::new()
                .name(format!("sock-wr-{}-{peer}", self.rank))
                .spawn(move || b.writer_loop(peer, writer))
                .expect("spawn writer thread");
        }
        self.ready_links.fetch_add(1, Ordering::SeqCst);
        let _g = self.ready_mx.lock();
        self.ready_cv.notify_all();
    }

    fn reader_loop(self: Arc<Self>, peer: RankId, mut stream: Stream, mut dec: StreamDecoder) {
        let mut buf = vec![0u8; 64 * 1024];
        'conn: loop {
            // Drain before reading: the handshake may have handed us a
            // decoder that already holds complete frames.
            loop {
                match dec.next_borrowed() {
                    Ok(Some((kind, payload))) => {
                        if !self.handle_envelope(peer, kind, payload) {
                            return;
                        }
                    }
                    Ok(None) => break,
                    // Desynchronized stream: unrecoverable for this
                    // connection; treat like a reset.
                    Err(_) => break 'conn,
                }
            }
            match stream.read_bytes(&mut buf) {
                Ok(0) => break 'conn,
                Ok(n) => dec.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break 'conn,
            }
        }
        self.on_conn_lost(peer);
    }

    fn writer_loop(self: Arc<Self>, peer: RankId, mut stream: Stream) {
        let Some(slot) = self.engine.slot(peer) else {
            return;
        };
        loop {
            let (item, drain_done) = {
                let link = &slot.port;
                let mut st = link.state.lock();
                loop {
                    if let Some(item) = st.queue.pop_front() {
                        break (Some(item), false);
                    }
                    match st.phase {
                        LinkPhase::Closed => break (None, false),
                        LinkPhase::Draining => break (None, true),
                        _ => link.cv.wait(&mut st),
                    }
                }
            };
            match item {
                Some(item) => {
                    let written = &slot.port.written;
                    let res = match &item {
                        Outbound::Control(env) => stream.write_counted(env, &[], written),
                        Outbound::Frame(kind, frame) => {
                            let head = envelope_header(*kind, frame.len());
                            stream.write_counted(&head, frame, written)
                        }
                    };
                    if res.is_err() {
                        // Connection is gone: the reader's EOF verdict, early.
                        self.on_conn_lost(peer);
                        return;
                    }
                    if matches!(item, Outbound::Frame(StreamKind::Data, _)) {
                        // The frame's last byte has left: its sender's ack
                        // clock starts now.
                        self.acks.notify(self.acks.lock());
                    }
                }
                None => {
                    if drain_done {
                        // Final envelope flushed: now actually close.
                        self.close_link(peer, false);
                    }
                    return;
                }
            }
        }
    }

    /// The connection to `peer` dropped (EOF, reset, write error or
    /// desync). Outside of our own teardown this *is* the fail-stop signal,
    /// given before the link closes: a send the closed link refuses coalesces.
    fn on_conn_lost(&self, peer: RankId) {
        if !self.shutting_down.load(Ordering::SeqCst) && self.engine.is_alive(self.rank) {
            self.mark_peer_dead(peer, false);
        }
        self.close_link(peer, false);
    }

    fn close_link(&self, peer: RankId, drain_first: bool) {
        let Some(slot) = self.engine.slot(peer) else {
            return;
        };
        let link = &slot.port;
        let mut st = link.state.lock();
        match st.phase {
            LinkPhase::Closed => return,
            LinkPhase::Draining if drain_first => return,
            _ => {}
        }
        if drain_first && st.phase == LinkPhase::Up {
            st.phase = LinkPhase::Draining;
        } else {
            st.phase = LinkPhase::Closed;
            st.queue.clear();
            if let Some(s) = st.stream.take() {
                s.shutdown_both();
            }
        }
        link.cv.notify_all();
    }

    /// Queue an item for `peer`. Returns the link's `enqueued` count just
    /// past the item (it has left once [`PeerLink::written`] reaches that), or
    /// `None` if the link is closing or closed. A *pending* link buffers: a
    /// committed joiner's link may still be dialing in, and the writer
    /// thread drains the queue the moment the link installs — so sends to a
    /// freshly-admitted rank retry against a real queue rather than
    /// failing outright.
    fn enqueue(&self, slot: &Slot<PeerLink>, item: Outbound) -> Option<u64> {
        let link = &slot.port;
        let mut st = link.state.lock();
        match st.phase {
            LinkPhase::Up | LinkPhase::Pending => {
                st.enqueued += item.stream_len() as u64;
                st.queue.push_back(item);
                link.cv.notify_all();
                Some(st.enqueued)
            }
            LinkPhase::Draining | LinkPhase::Closed => None,
        }
    }

    /// Queue a control envelope for `peer`, if it has a slot and an open link.
    fn enqueue_control(&self, peer: RankId, kind: StreamKind, payload: &[u8]) {
        if let Some(slot) = self.engine.slot(peer) {
            self.enqueue(slot, Outbound::Control(encode_envelope(kind, payload)));
        }
    }

    fn handle_envelope(&self, peer: RankId, kind: StreamKind, payload: &[u8]) -> bool {
        match kind {
            StreamKind::Clean => {
                // Nothing to dedup, reorder or ack on a reliable stream; a
                // frame that fails its checksum means the stream is broken.
                let ack = self.engine.count(self.mailbox.accept_frame(payload));
                if !ack.is_acked() {
                    self.on_conn_lost(peer);
                }
                ack.is_acked()
            }
            StreamKind::Data => {
                // The one verification of this frame, straight out of the
                // stream decoder's buffer. A copy bit-flipped by the
                // perturbation plan is discarded without an ack; the sender
                // retransmits.
                let cursors = self.cursors();
                cursors.receive(&self.engine, &self.mailbox, payload, |frame| {
                    // Ack BEFORE delivering to the mailbox: delivery can
                    // wake the engine thread, which may complete its last
                    // collective and retire — moving this link out of `Up`
                    // — before we get another chance to enqueue. Acking
                    // first keeps the ack FIFO-ordered ahead of any Bye that
                    // the delivery itself triggers. A validated frame is
                    // always held (duplicates ack too), so the early ack
                    // never lies.
                    let mut ack = [0u8; 16];
                    ack[..8].copy_from_slice(&frame.tag.to_le_bytes());
                    ack[8..].copy_from_slice(&frame.seq.to_le_bytes());
                    self.enqueue_control(peer, StreamKind::Ack, &ack);
                });
                true
            }
            StreamKind::Ack => {
                if payload.len() == 16 {
                    let mut tag = [0u8; 8];
                    let mut seq = [0u8; 8];
                    tag.copy_from_slice(&payload[..8]);
                    seq.copy_from_slice(&payload[8..]);
                    let mut acks = self.acks.lock();
                    if acks.len() > 100_000 {
                        // Redundant acks (duplicates of frames whose sender
                        // already moved on) are never claimed; dropping them
                        // can at worst cause one extra retransmit.
                        acks.clear();
                    }
                    acks.insert((peer, u64::from_le_bytes(tag), u64::from_le_bytes(seq)));
                    self.acks.notify(acks);
                }
                true
            }
            StreamKind::Signal => {
                if let Some(h) = self.signal_handler.read().as_ref() {
                    h(payload);
                }
                true
            }
            StreamKind::Die => {
                // A peer suspected us dead. Honor the verdict (ULFM's
                // failure knowledge only grows): observe our own death and
                // go dark so the rest of the world converges on it too.
                self.die_abruptly();
                false
            }
            StreamKind::Bye => {
                self.mark_peer_dead(peer, false);
                false
            }
            StreamKind::Hello => {
                // A Hello after the handshake means the stream is confused.
                self.on_conn_lost(peer);
                false
            }
        }
    }

    // ---- liveness -------------------------------------------------------

    /// Mark `peer` dead in the local view and wake every blocked local
    /// waiter. With `send_die`, a final `Die` envelope is flushed to the
    /// peer before its link closes (the suspicion path); otherwise the link
    /// is torn down immediately (the EOF path).
    fn mark_peer_dead(&self, peer: RankId, send_die: bool) {
        if self.engine.mark_dead(peer) {
            if send_die {
                self.enqueue_control(peer, StreamKind::Die, b"");
            }
            self.close_link(peer, send_die);
            self.wake_local();
        }
    }

    /// The local rank leaves. A `clean` departure (voluntary retirement)
    /// flushes a Bye on every live link so peers record the death without
    /// an error-path teardown; otherwise go dark abruptly, like a crash —
    /// no goodbyes, peers learn from the EOF.
    fn depart(&self, clean: bool) {
        if self.engine.mark_dead(self.rank) {
            for p in (0..self.engine.total_ranks()).map(RankId) {
                if p != self.rank {
                    if clean {
                        self.enqueue_control(p, StreamKind::Bye, b"");
                    }
                    self.close_link(p, clean);
                }
            }
            self.wake_local();
        }
    }

    /// Scripted or signaled self-death.
    fn die_abruptly(&self) {
        self.hard_died.store(true, Ordering::SeqCst);
        self.depart(false);
    }

    /// This rank's per-link cursors, which number every frame it sends
    /// under a plan and put every numbered frame it receives back in order.
    fn cursors(&self) -> &reliable::Cursors {
        let me = self.engine.slot(self.rank);
        &me.expect("a backend's own rank has a slot").cursors
    }

    /// Will a frame just queued on `link`, up to stream position `end`,
    /// leave? A pending link has no stream to trust yet: wait for the peer
    /// to dial in, as long as a sender would wait for an ack before
    /// suspecting it. False if it never did (an admitted joiner that died
    /// first), or the link closed before the frame left — not after: the
    /// peer may read it and depart at once.
    fn comes_up(&self, link: &PeerLink, end: u64) -> bool {
        let mut st = link.state.lock();
        if st.phase == LinkPhase::Pending {
            let deadline = Instant::now() + self.engine.retry_policy().patience();
            while st.phase == LinkPhase::Pending {
                let left = deadline.saturating_duration_since(Instant::now());
                if link.cv.wait_for(&mut st, left).timed_out() && st.phase == LinkPhase::Pending {
                    return false;
                }
            }
        }
        st.phase != LinkPhase::Closed || link.written.load(Ordering::SeqCst) >= end
    }

    fn wake_local(&self) {
        self.mailbox.wake_waiters();
        self.acks.notify(self.acks.lock());
        let _r = self.ready_mx.lock();
        self.ready_cv.notify_all();
    }

    /// Wait until the receiver acks `(to, tag, seq)`, a liveness change
    /// interrupts the wait, or the link has been silent for `timeout`. True
    /// iff acked.
    ///
    /// `queued_to` is what [`SocketBackend::enqueue`] returned for the
    /// frame's last copy. Silence is no ack *and* no byte leaving: while the
    /// frame is still queued or partly written, every byte the writer
    /// thread gets out restarts the clock (the peer is reading, just not
    /// done), so the clock proper starts when the frame's last byte has
    /// left. A peer that stops reading stops the count, and the wait ends
    /// `timeout` later like any other silence.
    fn wait_ack(
        &self,
        to: RankId,
        tag: u64,
        seq: u64,
        timeout: Duration,
        link: &PeerLink,
        queued_to: Option<u64>,
    ) -> bool {
        let mut acks = self.acks.lock();
        let mut budget = YieldBudget::default();
        let mut seen = link.written.load(Ordering::SeqCst);
        let mut deadline = Instant::now() + timeout;
        loop {
            if acks.remove(&(to, tag, seq)) {
                return true;
            }
            if !self.engine.is_alive(to) || !self.engine.is_alive(self.rank) {
                return false;
            }
            let now = Instant::now();
            if queued_to.is_some_and(|end| seen < end) {
                let written = link.written.load(Ordering::SeqCst);
                if written != seen {
                    seen = written;
                    deadline = now + timeout;
                }
            }
            if now >= deadline {
                return acks.remove(&(to, tag, seq));
            }
            acks = self.acks.wait(acks, &mut budget, Some(deadline));
        }
    }
}

impl crate::delivery::Link for SocketBackend {
    type Port = PeerLink;
    /// Shared with the writer thread that puts it on the stream.
    type Frame = Arc<Vec<u8>>;
    /// The link's `enqueued` count just past the attempt's last queued copy
    /// (see [`SocketBackend::enqueue`]).
    type Sent = Option<u64>;

    fn rank(&self) -> RankId {
        self.rank
    }

    fn engine(&self) -> &Engine<PeerLink> {
        &self.engine
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailbox
    }

    fn faults(&self) -> &RankFaults {
        &self.faults
    }

    fn hand_over(&self, to: RankId, peer: &Slot<PeerLink>, frame: Vec<u8>) -> bool {
        if to == self.rank {
            // No wire to ourselves: straight into our own mailbox.
            let ack = self.mailbox.accept_frame(&frame);
            return self.engine.count(ack).is_acked();
        }
        let frame = Outbound::Frame(StreamKind::Clean, Arc::new(frame));
        (self.enqueue(peer, frame)).is_some_and(|end| self.comes_up(&peer.port, end))
    }

    fn hand_off(
        &self,
        to: RankId,
        peer: &Slot<PeerLink>,
        frame: &mut Arc<Vec<u8>>,
        copy: Option<Vec<u8>>,
        sent: &mut Option<u64>,
    ) -> Option<FrameAck> {
        if to == self.rank {
            // No wire to ourselves: the hand-off is a function call into
            // our own mailbox, and its return value is the ack.
            let bytes = copy.as_deref().unwrap_or(&frame[..]);
            let cursors = self.cursors();
            return Some(cursors.receive(&self.engine, &self.mailbox, bytes, |_| {}));
        }
        let bytes = copy.map_or_else(|| Arc::clone(frame), Arc::new);
        *sent = self
            .enqueue(peer, Outbound::Frame(StreamKind::Data, bytes))
            .or(*sent);
        None
    }

    fn await_ack(
        &self,
        to: RankId,
        peer: &Slot<PeerLink>,
        tag: u64,
        seq: u64,
        sent: Option<u64>,
        backoff: Duration,
    ) -> Result<(), Duration> {
        // Over a wire the ack wait *is* the backoff: when it ends unacked
        // the whole backoff has been spent.
        if self.wait_ack(to, tag, seq, backoff + ACK_GRACE, &peer.port, sent) {
            Ok(())
        } else {
            Err(backoff)
        }
    }

    fn die(&self) {
        self.die_abruptly();
    }

    fn condemn(&self, rank: RankId) {
        // Tell the suspect: the in-process alive table makes a suspected
        // rank observe its own death; over sockets the Die envelope carries
        // that verdict (best effort — a truly dead process simply won't
        // read it).
        self.mark_peer_dead(rank, true);
    }

    fn kill_self(&self) {
        self.depart(true);
    }

    fn expect_rank(&self, rank: RankId) {
        self.engine.ensure(rank, PeerLink::vacant);
    }

    fn connect_peer(&self, rank: RankId, addr: &str) -> bool {
        self.connect_peer_addr(rank, addr, JOIN_DIAL_TIMEOUT)
    }

    fn broadcast_signal(&self, payload: &[u8]) {
        for (p, slot) in self.engine.slots().enumerate() {
            if p != self.rank.0 && slot.is_alive() {
                self.enqueue_control(RankId(p), StreamKind::Signal, payload);
            }
        }
    }

    fn set_signal_handler(&self, handler: SignalHandler) {
        *self.signal_handler.write() = Some(handler);
    }

    fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drain first: a link may still hold undelivered traffic — the last
        // clean frames (a clean send returns once its frame is queued), the
        // final ack and the Bye that `kill_self` enqueued moments ago.
        // Closing abruptly here would clear those queues before the writer
        // thread ever got scheduled, so peers would lose data or see a raw
        // EOF mid-op instead of a clean goodbye. A link still writing keeps
        // the drain open; one silent for `SHUTDOWN_DRAIN` is closed.
        let world = self.engine.total_ranks();
        for p in 0..world {
            if p != self.rank.0 {
                self.close_link(RankId(p), true);
            }
        }
        let draining = |(p, s): (usize, &Slot<PeerLink>)| {
            p != self.rank.0 && s.port.state.lock().phase == LinkPhase::Draining
        };
        let written = || {
            self.engine
                .slots()
                .map(|s| s.port.written.load(Ordering::SeqCst))
        };
        let (mut seen, mut deadline) = (written().sum::<u64>(), Instant::now() + SHUTDOWN_DRAIN);
        while Instant::now() < deadline && self.engine.slots().take(world).enumerate().any(draining)
        {
            std::thread::sleep(Duration::from_millis(1));
            let now = written().sum();
            if now != seen {
                (seen, deadline) = (now, Instant::now() + SHUTDOWN_DRAIN);
            }
        }
        for p in 0..world {
            if p != self.rank.0 {
                self.close_link(RankId(p), false);
            }
        }
        // Unblock the accept thread: it re-checks the flag after every
        // accept, so one dummy connection to ourselves releases it.
        let _ = Stream::connect(&self.local_addr);
        // The accept thread also unlinks on exit, but it may still be
        // blocked in a handshake; unlink here so teardown is prompt.
        if let Some(path) = self.local_addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
        self.wake_local();
    }
}

impl Drop for SocketBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Endpoint;
    use crate::error::TransportError;
    use crate::fault::FaultPlan;
    use crate::perturb::{LinkPerturb, PerturbPlan, RetryPolicy};

    fn mesh(kind: BackendKind, n: usize) -> Vec<Endpoint> {
        SocketBackend::local_mesh(kind, Topology::flat(), n, FaultPlan::none())
            .expect("mesh")
            .into_iter()
            .map(|b| Endpoint::from_backend(b as Arc<dyn Backend>))
            .collect()
    }

    /// Service threads hold backend Arcs, so teardown is explicit.
    fn teardown(eps: &[Endpoint]) {
        for ep in eps {
            ep.backend().shutdown();
        }
    }

    #[test]
    fn tcp_roundtrip() {
        let eps = mesh(BackendKind::Tcp, 2);
        eps[0].send(RankId(1), 9, b"over tcp").unwrap();
        assert_eq!(eps[1].recv(RankId(0), 9).unwrap(), b"over tcp");
        teardown(&eps);
    }

    #[test]
    fn unix_roundtrip() {
        let eps = mesh(BackendKind::Unix, 2);
        eps[1].send(RankId(0), 4, b"over uds").unwrap();
        assert_eq!(eps[0].recv(RankId(1), 4).unwrap(), b"over uds");
        teardown(&eps);
    }

    #[test]
    fn three_rank_mesh_full_exchange() {
        let eps = mesh(BackendKind::Tcp, 3);
        for (i, ep) in eps.iter().enumerate() {
            for j in 0..3 {
                if i != j {
                    ep.send(RankId(j), 7, format!("{i}->{j}").as_bytes())
                        .unwrap();
                }
            }
        }
        for (j, ep) in eps.iter().enumerate() {
            for i in 0..3 {
                if i != j {
                    assert_eq!(
                        ep.recv(RankId(i), 7).unwrap(),
                        format!("{i}->{j}").as_bytes()
                    );
                }
            }
        }
        teardown(&eps);
    }

    #[test]
    fn retire_is_seen_as_peer_death() {
        let eps = mesh(BackendKind::Unix, 2);
        eps[1].send(RankId(0), 2, b"last words").unwrap();
        eps[1].retire();
        // Buffered message first, then the failure.
        assert_eq!(eps[0].recv(RankId(1), 2).unwrap(), b"last words");
        assert_eq!(
            eps[0].recv(RankId(1), 2),
            Err(TransportError::PeerDead(RankId(1)))
        );
        teardown(&eps);
    }

    #[test]
    fn scripted_death_goes_dark_and_peers_see_eof() {
        let plan = FaultPlan::none().kill_at_point(RankId(1), "allreduce.step", 1);
        let backends =
            SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), 2, plan).unwrap();
        let eps: Vec<Endpoint> = backends
            .iter()
            .map(|b| Endpoint::from_backend(Arc::clone(b) as Arc<dyn Backend>))
            .collect();
        assert_eq!(
            eps[1].fault_point("allreduce.step"),
            Err(TransportError::SelfDied)
        );
        // No suspicion timeout configured: the EOF alone must inform rank 0.
        let deadline = Instant::now() + Duration::from_secs(5);
        while eps[0].is_peer_alive(RankId(1)) {
            assert!(Instant::now() < deadline, "EOF never observed");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            eps[0].recv(RankId(1), 0),
            Err(TransportError::PeerDead(RankId(1)))
        );
        teardown(&eps);
    }

    #[test]
    fn signals_reach_all_peers() {
        use std::sync::atomic::AtomicU64;
        let eps = mesh(BackendKind::Tcp, 3);
        let hits = Arc::new(AtomicU64::new(0));
        for ep in &eps[1..] {
            let hits = Arc::clone(&hits);
            ep.set_signal_handler(Box::new(move |payload| {
                assert_eq!(payload, b"revoke:7");
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        eps[0].broadcast_signal(b"revoke:7");
        let deadline = Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "signals not delivered");
            std::thread::sleep(Duration::from_millis(2));
        }
        teardown(&eps);
    }

    /// Regression: the ack clock used to start when a frame was *queued*, so
    /// it ran while the writer thread was still pushing a frame larger than
    /// the socket buffer. Here a stand-in writer gets 1000 bytes of a queued
    /// frame out every 5 ms for 400 ms — twice the timeout — and the wait
    /// must outlast all of it: the clock proper starts at the last byte.
    #[test]
    fn ack_clock_does_not_run_while_bytes_are_leaving() {
        let backends =
            SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), 2, FaultPlan::none())
                .unwrap();
        let b = &backends[0];
        let slot = b.engine.slot(RankId(1)).unwrap();
        let link = &slot.port;
        let timeout = Duration::from_millis(200);
        let queued_to = link.written.load(Ordering::SeqCst) + 80 * 1000;
        let t0 = Instant::now();
        let (acked, waited) = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let acked = b.wait_ack(RankId(1), 77, 0, timeout, link, Some(queued_to));
                (acked, t0.elapsed())
            });
            for _ in 0..80 {
                std::thread::sleep(Duration::from_millis(5));
                link.written.fetch_add(1000, Ordering::SeqCst);
            }
            waiter.join().unwrap()
        });
        assert!(!acked, "nobody acked");
        assert!(
            waited >= Duration::from_millis(400) + timeout,
            "gave up after {waited:?}, while bytes were still leaving"
        );
        for b in &backends {
            b.shutdown();
        }
    }

    /// Regression: a clean send was reported failed when its frame had left
    /// but the peer read it and departed before the sender looked at the
    /// link again — the last barrier round of a run, whose receiver
    /// completes and retires at once.
    #[test]
    fn a_clean_send_that_left_before_its_link_closed_succeeds() {
        let backends =
            SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), 2, FaultPlan::none())
                .unwrap();
        let b = &backends[0];
        let link = &b.engine.slot(RankId(1)).unwrap().port;
        let left = link.written.load(Ordering::SeqCst);
        b.close_link(RankId(1), false);
        assert!(b.comes_up(link, left), "a frame that left before the close");
        assert!(!b.comes_up(link, left + 1), "a frame the close dropped");
        for b in &backends {
            b.shutdown();
        }
    }

    /// A plan that can lose any frame, so every send is numbered and acked,
    /// gated on a point no rank crosses: the ack clock runs, and nothing is
    /// ever lost for it to heal.
    fn lossy_but_quiet(retry: RetryPolicy) -> PerturbPlan {
        PerturbPlan::seeded(1)
            .all_links(LinkPerturb::clean().drop(1.0))
            .active_from_point("never.crossed")
            .retry(retry)
    }

    /// Frames far larger than the socket buffer, both ways at once (an
    /// allreduce step's traffic): both arrive intact and nobody is suspected.
    /// Under a lossy plan the ack clock still has to cover the receiver
    /// reading and verifying the frame, which on a loaded or unoptimized
    /// build takes longer than the default policy's whole ≈ 80 ms budget
    /// once both sides have retransmitted (a stalled CI box showed that), so
    /// that case runs under a patient budget: same backoff, 800 retries.
    fn large_simultaneous_exchange_suspects_nobody(kind: BackendKind, plan: Option<PerturbPlan>) {
        const LEN: usize = 4 << 20;
        let eps = mesh(kind, 2);
        if let Some(plan) = &plan {
            for ep in &eps {
                ep.set_perturbation(plan.clone());
            }
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (me, ep) in eps.iter().enumerate() {
                let start = &start;
                s.spawn(move || {
                    let peer = RankId(1 - me);
                    let mine: Vec<u8> = (0..LEN).map(|i| (i * 7 + me) as u8).collect();
                    let theirs: Vec<u8> = (0..LEN).map(|i| (i * 7 + peer.0) as u8).collect();
                    start.wait();
                    ep.send(peer, 3, &mine)
                        .expect("a live peer must not be given up on");
                    assert!(ep.recv(peer, 3).expect("recv") == theirs, "payload damaged");
                    assert_eq!(ep.backend().stats().suspicions, 0);
                });
            }
        });
        teardown(&eps);
    }

    fn patient() -> Option<PerturbPlan> {
        Some(lossy_but_quiet(RetryPolicy {
            max_retries: 800,
            ..RetryPolicy::default()
        }))
    }

    #[test]
    fn large_simultaneous_exchange_suspects_nobody_unix() {
        large_simultaneous_exchange_suspects_nobody(BackendKind::Unix, patient());
    }

    #[test]
    fn large_simultaneous_exchange_suspects_nobody_tcp() {
        large_simultaneous_exchange_suspects_nobody(BackendKind::Tcp, patient());
    }

    /// The clean twin: no plan, so no ack clock, no retry budget and
    /// nothing to be patient about.
    #[test]
    fn large_simultaneous_clean_exchange_suspects_nobody() {
        for kind in [BackendKind::Unix, BackendKind::Tcp] {
            large_simultaneous_exchange_suspects_nobody(kind, None);
        }
    }

    /// An admitted peer that never dials in leaves its link pending: a clean
    /// send to it waits as long as a numbered one would wait for its ack,
    /// then suspects it.
    #[test]
    fn a_clean_send_to_a_peer_that_never_dials_in_suspects_it() {
        let eps = mesh(BackendKind::Unix, 2);
        eps[0].backend().expect_rank(RankId(2));
        let t0 = Instant::now();
        assert_eq!(
            eps[0].send(RankId(2), 1, b"anyone there?"),
            Err(TransportError::PeerDead(RankId(2)))
        );
        assert!(t0.elapsed() >= RetryPolicy::default().patience());
        assert_eq!(eps[0].stats().suspicions, 1);
        teardown(&eps);
    }

    /// N messages each way on a clean link queue exactly N `Clean`
    /// envelopes per direction and nothing else: no ack goes back, and
    /// nothing is retransmitted. The same exchange under a lossy plan
    /// queues an ack for every message received.
    #[test]
    fn a_clean_socket_send_queues_one_envelope_and_no_ack() {
        const N: u64 = 200;
        const LEN: usize = 64;
        let envelope = (ENVELOPE_HEADER + crate::wire::FRAME_HEADER + LEN) as u64
            + crate::wire::FRAME_TRAILER as u64;
        let ack = (ENVELOPE_HEADER + 16) as u64;
        for plan in [None, Some(lossy_but_quiet(RetryPolicy::default()))] {
            let backends = SocketBackend::local_mesh(
                BackendKind::Unix,
                Topology::flat(),
                2,
                FaultPlan::none(),
            )
            .unwrap();
            if let Some(plan) = &plan {
                for b in &backends {
                    b.set_perturbation(plan.clone());
                }
            }
            std::thread::scope(|s| {
                for (me, b) in backends.iter().enumerate() {
                    s.spawn(move || {
                        let peer = RankId(1 - me);
                        for i in 0..N {
                            b.send(peer, 1, &[i as u8; LEN]).unwrap();
                            let got = b.recv(peer, 1, &|| false, None).unwrap();
                            assert_eq!(got, [i as u8; LEN]);
                        }
                    });
                }
            });
            for (me, b) in backends.iter().enumerate() {
                let link = &b.engine.slot(RankId(1 - me)).unwrap().port;
                let queued = link.state.lock().enqueued;
                if plan.is_some() {
                    assert!(queued >= N * (envelope + ack), "rank {me}: {queued} bytes");
                } else {
                    assert_eq!(queued, N * envelope, "rank {me}: more than its data");
                    assert_eq!(b.stats().retransmits, 0);
                }
                b.shutdown();
            }
        }
    }

    #[test]
    fn corrupt_frame_is_counted_once_and_healed_by_one_retransmit() {
        let backends =
            SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), 2, FaultPlan::none())
                .unwrap();
        // Every transmission is bit-flipped, and the first retransmission is
        // ~100 ms away: time enough to see the first copy rejected and clean
        // the link before the second leaves.
        backends[0].set_perturbation(
            PerturbPlan::seeded(5)
                .link(RankId(0), RankId(1), LinkPerturb::clean().corrupt(1.0))
                .retry(RetryPolicy {
                    max_retries: 8,
                    base: Duration::from_millis(200),
                    cap: Duration::from_millis(200),
                }),
        );
        let eps: Vec<Endpoint> = backends
            .iter()
            .map(|b| Endpoint::from_backend(Arc::clone(b) as Arc<dyn Backend>))
            .collect();
        std::thread::scope(|s| {
            let sender = s.spawn(|| eps[0].send(RankId(1), 6, b"flipped once"));
            let deadline = Instant::now() + Duration::from_secs(10);
            while backends[1].stats().corrupt_frames == 0 {
                assert!(Instant::now() < deadline, "corrupt frame never arrived");
                std::thread::yield_now();
            }
            backends[0].set_perturbation(PerturbPlan::none());
            sender.join().unwrap().expect("healed by retransmission");
        });
        assert_eq!(eps[1].recv(RankId(0), 6).unwrap(), b"flipped once");
        // One decode per received frame: the bad copy is counted exactly
        // once, and exactly one more transmission was needed.
        assert_eq!(backends[1].stats().corrupt_frames, 1);
        assert_eq!(backends[1].stats().dup_suppressed, 0);
        assert_eq!(backends[0].stats().retransmits, 1);
        teardown(&eps);
    }
}
