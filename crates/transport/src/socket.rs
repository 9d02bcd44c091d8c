//! The socket link: the delivery engine (`crate::delivery`) carried over
//! real TCP or Unix-domain stream sockets.
//!
//! One [`SocketBackend`] instance serves one rank — normally one OS
//! process, though tests may host several backends in a single process.
//! Peers form a full mesh of duplex connections; each connection carries
//! [`crate::stream`] envelopes, and a message is a checksummed wire frame
//! ([`crate::wire`]). The kernel stream is reliable and ordered, so a clean
//! send writes one `Clean` envelope: no number, no ack, no retransmit. From
//! the first plan that perturbs a link on (the engine's rule, as in
//! process) every send goes through the reliability layer as `Data`
//! envelopes, numbered per link. A stream delivers exactly the bytes
//! written, so the sender verifies each copy the plan gives it and a
//! written copy is acked: nothing comes back, and one seeded plan repairs
//! the same way here as in process. What lives here is how a frame reaches
//! a peer and how deaths are learnt and carried out.
//!
//! ## Event loop
//!
//! The workspace builds offline with no `epoll`/`mio` binding, so the
//! "event loop" is the poll-style decomposition of one: a per-connection
//! reader thread blocks in `read` and runs the [`StreamDecoder`]
//! reassembly, and one accept thread services the listener. A rank thread
//! writes its own frames and signals under the link's write lock, after
//! whatever is queued there, so a message leaves with no hand-off. The
//! reader never writes (two readers blocked writing forwarded revocations
//! to each other would deadlock): it queues those, and nothing else. A
//! per-connection writer thread flushes the queue through the same routine
//! under the same lock, with what waits on a pending link and a final
//! `Die` or `Bye`. A frame of at least 4 KiB of payload is read once, into
//! a frame this rank wrote before, and reaches the mailbox whole. Rank *r*
//! dials every peer with a lower id (retrying until the connect timeout)
//! and accepts from every higher one, identifying itself with a `Hello`
//! envelope.
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
//!   of a blocking receive with no explicit deadline, or of a write to it
//!   that makes no progress. A send waits for no ack, so it never
//!   suspects a live peer that reads, however slowly; under a plan,
//!   send-retry exhaustion is a second rule.
//!
//! A suspected rank is additionally sent a best-effort `Die` envelope so
//! that — exactly as with the shared alive table — a suspected process
//! blocked in a receive observes [`crate::TransportError::SelfDied`] rather
//! than hanging on peers that have already written it off.

use crate::backend::{Backend, BackendKind, SignalHandler};
use crate::delivery::{telem, Engine, Slot};
use crate::fabric::HAND_OVER_FRAME;
use crate::fault::{FaultInjector, RankFaults};
use crate::ids::{RankId, Topology};
use crate::mailbox::{FrameAck, Mailbox};
use crate::reliable;
use crate::stream::{encode_envelope, envelope_header, StreamDecoder, StreamKind, ENVELOPE_HEADER};
use crate::wait::{WaitLock, YieldBudget};
use crate::wire;
use parking_lot::{Condvar, Mutex, RwLock};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

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

/// Written frames a rank keeps for its next large reads, from any link:
/// enough for sends and receives a round or two apart, as in a ring.
const POOL_FRAMES: usize = 4;
/// The largest frame kept (a segment of a collective fits): at most 4 MiB.
const POOL_FRAME_MAX: usize = 1 << 20;

thread_local! {
    /// Set on a connection's reader thread, which queues what it sends.
    static IN_READER: Cell<bool> = const { Cell::new(false) };
}

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

/// `$body` on whichever socket `$stream` holds, bound to `$s`.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            Stream::Tcp($s) => $body,
            Stream::Unix($s) => $body,
        }
    };
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
        on_socket!(self, s => s.set_read_timeout(t))
    }

    fn shutdown_both(&self) {
        on_socket!(self, s => s.shutdown(std::net::Shutdown::Both).ok());
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
            match on_socket!(self, s => s.write_vectored(&bufs)) {
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

/// The `Hello` envelope that opens a dialed connection.
fn hello(rank: RankId) -> Vec<u8> {
    encode_envelope(StreamKind::Hello, &(rank.0 as u64).to_le_bytes())
}

/// A link's write half: whoever holds it writes the stream.
struct Writer {
    stream: Stream,
    /// The rank at the other end.
    peer: RankId,
    /// The write timeout last set on `stream`.
    timeout: Option<Duration>,
}

/// One envelope to write. An owned payload is kept for the next read.
type Outbound<'a> = (StreamKind, Cow<'a, [u8]>);

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
    queue: VecDeque<(StreamKind, Vec<u8>)>,
    /// Stream bytes ever queued or written here (cleared items included).
    enqueued: u64,
    /// Handle kept for shutdown; the reader thread and `out` own clones.
    stream: Option<Stream>,
}

pub(crate) struct PeerLink {
    state: Mutex<LinkState>,
    cv: Condvar,
    /// The write lock, taken before `state`; `None` until the link is up.
    out: Mutex<Option<Writer>>,
    /// Stream bytes handed to the socket so far. An item at `enqueued == e`
    /// has left once `written >= e`.
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
            out: Mutex::new(None),
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
    /// Large frames this rank wrote, at most [`POOL_FRAMES`], to read into.
    pool: Mutex<Vec<Vec<u8>>>,
    signal_handler: RwLock<Option<SignalHandler>>,
    shutting_down: AtomicBool,
    /// Set when the whole job is being torn down together: a peer's
    /// departure is then its teardown, not a death.
    departing: AtomicBool,
    /// Set when this rank dies *abruptly* (scripted fault, a peer's `Die`
    /// verdict) as opposed to a voluntary `kill_self` retirement. Lets a
    /// host process turn simulated hard deaths into real ones.
    hard_died: AtomicBool,
    /// Dialable address of the local listener (for the shutdown self-wake).
    local_addr: String,
    /// Links up so far.
    ready: WaitLock<usize>,
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
            pool: Mutex::new(Vec::new()),
            signal_handler: RwLock::new(None),
            shutting_down: AtomicBool::new(false),
            departing: AtomicBool::new(false),
            hard_died: AtomicBool::new(false),
            local_addr: listener.addr.clone(),
            ready: WaitLock::default(),
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
            on_socket!(&mut stream, s => s.write_all(&hello(rank)))?;
            backend.install_link(RankId(p), stream, StreamDecoder::new());
        }

        // Wait for the full mesh.
        let deadline = Instant::now() + connect_timeout;
        let (mut up, mut budget) = (backend.ready.lock(), YieldBudget::default());
        while *up < world - 1 {
            if Instant::now() >= deadline {
                let have = *up;
                drop(up);
                backend.shutdown();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "rank {rank}: only {have}/{} links up within {connect_timeout:?}",
                        world - 1
                    ),
                ));
            }
            up = backend.ready.wait(up, &mut budget, Some(deadline));
        }
        drop(up);
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
        if on_socket!(&mut stream, s => s.write_all(&hello(self.rank))).is_err() {
            self.mark_peer_dead(peer, false);
            return false;
        }
        self.install_link(peer, stream, StreamDecoder::new());
        true
    }

    /// The whole job is about to be torn down: from now on a peer's
    /// departure is its teardown, not a death.
    pub(crate) fn expect_teardown(&self) {
        self.departing.store(true, Ordering::SeqCst);
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
            let n = on_socket!(stream, s => s.read(&mut buf)).ok()?;
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
        let (Ok(reader), Ok(writer)) = (stream.try_clone(), stream.try_clone()) else {
            stream.shutdown_both();
            return;
        };
        let slot = self.engine.ensure(peer, PeerLink::vacant);
        {
            let mut out = slot.port.out.lock();
            let mut st = slot.port.state.lock();
            if st.phase != LinkPhase::Pending {
                // Duplicate or late connection; keep the first.
                stream.shutdown_both();
                return;
            }
            *out = Some(Writer {
                stream: writer,
                peer,
                timeout: None,
            });
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
                .spawn(move || b.writer_loop(peer))
                .expect("spawn writer thread");
        }
        let mut up = self.ready.lock();
        *up += 1;
        self.ready.notify(up);
    }

    fn reader_loop(self: Arc<Self>, peer: RankId, mut stream: Stream, mut dec: StreamDecoder) {
        IN_READER.set(true);
        let mut buf = vec![0u8; 64 * 1024];
        'conn: loop {
            // Drain before reading: the handshake may have handed us a
            // decoder that already holds complete frames. A large envelope
            // is read once, into a buffer of its own. A desynchronized
            // stream is unrecoverable for this connection: a reset.
            loop {
                let (kind, payload) = match dec.take_large(HAND_OVER_FRAME, |n| self.spare(n)) {
                    Ok(Some((kind, mut whole, filled))) => {
                        match on_socket!(&mut stream, s => s.read_exact(&mut whole[filled..])) {
                            Ok(()) => (kind, Cow::Owned(whole)),
                            Err(_) => break 'conn,
                        }
                    }
                    Ok(None) => match dec.next_borrowed() {
                        Ok(Some((kind, payload))) => (kind, Cow::Borrowed(payload)),
                        Ok(None) => break,
                        Err(_) => break 'conn,
                    },
                    Err(_) => break 'conn,
                };
                if !self.handle_envelope(peer, kind, payload) {
                    return;
                }
            }
            match on_socket!(&mut stream, s => s.read(&mut buf)) {
                Ok(0) => break 'conn,
                Ok(n) => dec.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break 'conn,
            }
        }
        self.on_conn_lost(peer);
    }

    /// Flush what is queued until the link closes; close a draining link
    /// once its queue has left.
    fn writer_loop(self: Arc<Self>, peer: RankId) {
        let Some(slot) = self.engine.slot(peer) else {
            return;
        };
        let link = &slot.port;
        loop {
            {
                let mut st = link.state.lock();
                while st.queue.is_empty() && st.phase == LinkPhase::Up {
                    link.cv.wait(&mut st);
                }
                if st.phase == LinkPhase::Closed {
                    break;
                }
            }
            let mut out = link.out.lock();
            let Some(w) = out.as_mut() else {
                break;
            };
            if self.flush(link, w, None).is_none() {
                break;
            }
            // Under the write lock: no direct write is still under way.
            let st = link.state.lock();
            if st.phase == LinkPhase::Draining && st.queue.is_empty() {
                drop((st, out));
                self.close_link(peer, false);
                break;
            }
        }
        // The write half's descriptor closes with the writer thread.
        link.out.lock().take();
    }

    /// The connection to `peer` dropped (EOF, reset, write error or
    /// desync). Outside of our own teardown this *is* the fail-stop signal,
    /// given before the link closes: a send the closed link refuses coalesces.
    fn on_conn_lost(&self, peer: RankId) {
        if !self.leaving() {
            self.mark_peer_dead(peer, false);
        }
        self.close_link(peer, false);
    }

    /// Is this rank tearing down or dead? Then a lost link is no news.
    fn leaving(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
            || self.departing.load(Ordering::SeqCst)
            || !self.engine.is_alive(self.rank)
    }

    fn close_link(&self, peer: RankId, drain_first: bool) {
        let Some(slot) = self.engine.slot(peer) else {
            return;
        };
        let link = &slot.port;
        let mut st = link.state.lock();
        if st.phase == LinkPhase::Closed || (drain_first && st.phase == LinkPhase::Draining) {
            return;
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

    /// Send an item to `peer` on this thread, under the link's write lock;
    /// queue it if the link is pending or this is a reader thread. Returns
    /// the stream position just past it, as [`SocketBackend::enqueue`] does;
    /// `None` if it was refused or the stream failed.
    fn post(&self, peer: RankId, slot: &Slot<PeerLink>, item: Outbound) -> Option<u64> {
        if !IN_READER.get() {
            if let Some(w) = slot.port.out.lock().as_mut() {
                return self.flush(&slot.port, w, Some(item));
            }
        }
        self.enqueue(peer, item.0, item.1.into_owned())
    }

    /// The one routine that writes a link's stream, by a rank thread and the
    /// writer thread alike under the write lock (`w`): everything queued,
    /// oldest first, then `mine` if the link is still up. Returns the
    /// position just past `mine` (or the queue); `None` as for `post`.
    fn flush(&self, link: &PeerLink, w: &mut Writer, mut mine: Option<Outbound>) -> Option<u64> {
        loop {
            let (item, end) = {
                let mut st = link.state.lock();
                match st.queue.pop_front() {
                    Some((kind, body)) => ((kind, Cow::Owned(body)), None),
                    None => match mine.take() {
                        None => return Some(st.enqueued),
                        Some(_) if st.phase != LinkPhase::Up => return None,
                        Some(item) => {
                            st.enqueued += (ENVELOPE_HEADER + item.1.len()) as u64;
                            (item, Some(st.enqueued))
                        }
                    },
                }
            };
            if !self.write_item(link, w, item) {
                return None;
            }
            if end.is_some() {
                return end;
            }
        }
    }

    /// Write one envelope. A write with no progress for the suspicion
    /// timeout suspects the peer; any other failure is the EOF verdict.
    fn write_item(&self, link: &PeerLink, w: &mut Writer, item: Outbound) -> bool {
        let timeout = self.engine.suspicion.get();
        if w.timeout != timeout {
            // A zero timeout is refused by the socket and leaves it blocking.
            on_socket!(&w.stream, s => s.set_write_timeout(timeout)).ok();
            w.timeout = timeout;
        }
        let (kind, body) = item;
        let head = envelope_header(kind, body.len());
        if let Err(e) = w.stream.write_counted(&head, &body, &link.written) {
            let stuck = [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut].contains(&e.kind());
            if stuck && self.engine.is_alive(w.peer) && !self.leaving() {
                // Suspected before its link closes, or the reader's EOF
                // would win; no `Die` can follow a torn envelope.
                let eng = &self.engine;
                eng.suspect(true, || self.mark_peer_dead(w.peer, false));
            } else {
                self.on_conn_lost(w.peer);
            }
            return false;
        }
        let mut pool = self.pool.lock();
        let keep =
            (HAND_OVER_FRAME..=POOL_FRAME_MAX).contains(&body.len()) && pool.len() < POOL_FRAMES;
        match body {
            Cow::Owned(frame) if keep => pool.push(frame),
            _ => {}
        }
        true
    }

    /// The buffer to read a `len`-byte payload into: a written frame that
    /// fits (one that does not is dropped, never grown), or a new one.
    fn spare(&self, len: usize) -> Vec<u8> {
        let kept = self.pool.lock().pop().filter(|f| f.capacity() >= len);
        kept.inspect(|_| telem::FRAMES_RECYCLED.incr())
            .unwrap_or_default()
    }

    /// Queue an item for `peer`. Returns the link's `enqueued` count just
    /// past it (it has left once [`PeerLink::written`] reaches that), or
    /// `None` if `peer` has no slot or its link is closing or closed. A
    /// *pending* link buffers: a committed joiner may still be dialing in.
    fn enqueue(&self, peer: RankId, kind: StreamKind, body: Vec<u8>) -> Option<u64> {
        let link = &self.engine.slot(peer)?.port;
        let mut st = link.state.lock();
        match st.phase {
            LinkPhase::Up | LinkPhase::Pending => {
                st.enqueued += (ENVELOPE_HEADER + body.len()) as u64;
                st.queue.push_back((kind, body));
                link.cv.notify_all();
                Some(st.enqueued)
            }
            LinkPhase::Draining | LinkPhase::Closed => None,
        }
    }

    /// Act on one envelope: a frame read into a buffer of its own
    /// (`Cow::Owned`) reaches the mailbox whole.
    fn handle_envelope(&self, peer: RankId, kind: StreamKind, payload: Cow<[u8]>) -> bool {
        match kind {
            // Nothing to dedup, reorder or ack on a reliable stream.
            StreamKind::Clean => {
                let ack = self.engine.count(match payload {
                    Cow::Owned(frame) => self.mailbox.accept_whole(frame),
                    Cow::Borrowed(frame) => self.mailbox.accept_frame(frame),
                });
                if !ack.is_acked() {
                    // A frame that fails its checksum: the stream is broken.
                    self.on_conn_lost(peer);
                }
                ack.is_acked()
            }
            StreamKind::Data => {
                // Dedup and reorder; nothing goes back. Its sender verified
                // these bytes, so a checksum failure here is a broken stream.
                let cursors = self.cursors();
                let ack = cursors.receive(&self.engine, &self.mailbox, &payload);
                if !ack.is_acked() {
                    self.on_conn_lost(peer);
                }
                ack.is_acked()
            }
            StreamKind::Signal => {
                if let Some(h) = self.signal_handler.read().as_ref() {
                    h(&payload);
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
                self.enqueue(peer, StreamKind::Die, Vec::new());
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
                        self.enqueue(p, StreamKind::Bye, Vec::new());
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
    /// to dial in, once, for as long as a sender would retry before
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
        self.ready.notify(self.ready.lock());
    }
}

impl crate::delivery::Link for SocketBackend {
    type Port = PeerLink;

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
        let frame = (StreamKind::Clean, Cow::Owned(frame));
        (self.post(to, peer, frame)).is_some_and(|end| self.comes_up(&peer.port, end))
    }

    fn hand_off(
        &self,
        to: RankId,
        peer: &Slot<PeerLink>,
        frame: &[u8],
        copy: Option<Vec<u8>>,
    ) -> bool {
        let bytes = copy.as_deref().unwrap_or(frame);
        if to == self.rank {
            // No wire to ourselves: the hand-off is a function call into
            // our own mailbox, and its return value is the ack.
            let ack = self.cursors().receive(&self.engine, &self.mailbox, bytes);
            return ack.is_acked();
        }
        // A stream delivers exactly the bytes written, so this checksum is
        // the receiver's verdict: a corrupt copy is counted and not sent.
        if let Err(e) = wire::decode_frame(bytes) {
            self.engine.count(FrameAck::Corrupt(e));
            return false;
        }
        let body = copy.map_or(Cow::Borrowed(frame), Cow::Owned);
        let left = (self.post(to, peer, (StreamKind::Data, body)))
            .is_some_and(|end| self.comes_up(&peer.port, end));
        if !left && peer.port.state.lock().phase == LinkPhase::Pending {
            // Waited for once, as a clean send waits: the peer never dialed in.
            crate::Backend::suspect(self, to);
        }
        left
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
                let signal = (StreamKind::Signal, Cow::Borrowed(payload));
                self.post(RankId(p), slot, signal);
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
        // Drain first: a queue may still hold a forwarded revocation or the
        // Bye that `kill_self` queued moments ago, which a peer should get instead of
        // a raw EOF. A link still writing keeps the drain open; one silent
        // for `SHUTDOWN_DRAIN` is closed.
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

    /// A plan that can lose any frame, so every send is numbered, gated on a
    /// point no rank crosses: nothing is ever lost for it to heal.
    fn lossy_but_quiet(retry: RetryPolicy) -> PerturbPlan {
        PerturbPlan::seeded(1)
            .all_links(LinkPerturb::clean().drop(1.0))
            .active_from_point("never.crossed")
            .retry(retry)
    }

    /// Frames far larger than the socket buffer, both ways at once (an
    /// allreduce step's traffic): both arrive intact and nobody is suspected,
    /// numbered or not. The numbered case keeps its patient budget (same
    /// backoff, 800 retries); a written copy is its own ack, so it spends
    /// none of it.
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

    /// The clean twin: no plan, so no numbers, no retry budget and nothing
    /// to be patient about.
    #[test]
    fn large_simultaneous_clean_exchange_suspects_nobody() {
        for kind in [BackendKind::Unix, BackendKind::Tcp] {
            large_simultaneous_exchange_suspects_nobody(kind, None);
        }
    }

    /// An admitted peer that never dials in leaves its link pending: a clean
    /// send to it waits, once, as long as a numbered one would retry, then
    /// suspects it.
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

    /// The numbered twin: the copy queued on the pending link is waited for
    /// once, not once per retransmission, and the peer is then suspected.
    #[test]
    fn a_numbered_send_to_a_peer_that_never_dials_in_waits_once() {
        let eps = mesh(BackendKind::Unix, 2);
        for ep in &eps {
            ep.set_perturbation(lossy_but_quiet(RetryPolicy::default()));
        }
        eps[0].backend().expect_rank(RankId(2));
        let (t0, patience) = (Instant::now(), RetryPolicy::default().patience());
        assert_eq!(
            eps[0].send(RankId(2), 1, b"anyone there?"),
            Err(TransportError::PeerDead(RankId(2)))
        );
        let took = t0.elapsed();
        assert!(took >= patience && took < 4 * patience, "took {took:?}");
        assert_eq!(eps[0].stats().suspicions, 1);
        assert_eq!(eps[0].stats().retransmits, 0);
        teardown(&eps);
    }

    /// Rank 0 of a two-rank world whose rank 1 dials in, says hello and
    /// never reads: the returned stream is rank 1's end.
    fn with_a_peer_that_never_reads() -> (Arc<SocketBackend>, UnixStream) {
        let listener = SocketBackend::bind(BackendKind::Unix).unwrap();
        let addr = listener.addr().to_string();
        let dialer = std::thread::spawn(move || {
            let path = addr.strip_prefix("unix:").unwrap().to_string();
            let mut peer = UnixStream::connect(path).unwrap();
            let hello = encode_envelope(StreamKind::Hello, &1u64.to_le_bytes());
            peer.write_all(&hello).unwrap();
            peer
        });
        let addrs = [String::new(), String::new()];
        let inert = FaultInjector::inert();
        let b = SocketBackend::establish(
            RankId(0),
            Topology::flat(),
            listener,
            &addrs,
            inert,
            Duration::from_secs(10),
        )
        .unwrap();
        (b, dialer.join().unwrap())
    }

    /// A frame far larger than the socket buffers, to a peer that never
    /// reads: the send's write makes no progress, and the suspicion timeout
    /// bounds it as it bounds a silent receive.
    #[test]
    fn a_clean_send_to_a_peer_that_never_reads_suspects_it() {
        const LEN: usize = 8 << 20;
        let (b, _peer) = with_a_peer_that_never_reads();
        let timeout = Duration::from_millis(300);
        b.set_suspicion_timeout(Some(timeout));
        let t0 = Instant::now();
        assert_eq!(
            b.send(RankId(1), 1, &vec![7u8; LEN]),
            Err(TransportError::PeerDead(RankId(1)))
        );
        let took = t0.elapsed();
        assert!(took >= timeout, "gave up after {took:?}");
        assert!(took < timeout + Duration::from_secs(3), "took {took:?}");
        assert_eq!(b.stats().suspicions, 1);
        assert!(!b.is_alive(RankId(1)));
        b.shutdown();
    }

    /// With no suspicion timeout the same send blocks, as a receive does,
    /// until the peer goes away.
    #[test]
    fn with_no_suspicion_timeout_a_send_to_a_peer_that_never_reads_blocks() {
        const LEN: usize = 8 << 20;
        let (b, peer) = with_a_peer_that_never_reads();
        let t0 = Instant::now();
        let sender = std::thread::spawn({
            let b = Arc::clone(&b);
            move || b.send(RankId(1), 1, &vec![7u8; LEN])
        });
        std::thread::sleep(Duration::from_millis(500));
        assert!(!sender.is_finished(), "a send with no timeout gave up");
        drop(peer);
        assert_eq!(
            sender.join().unwrap(),
            Err(TransportError::PeerDead(RankId(1)))
        );
        assert!(t0.elapsed() >= Duration::from_millis(500));
        assert_eq!(
            b.stats().suspicions,
            0,
            "an EOF is a death, not a suspicion"
        );
        b.shutdown();
    }

    /// A rank that only sends large frames, to peers that never send one
    /// back, keeps at most `POOL_FRAMES` of them, none above
    /// `POOL_FRAME_MAX`, for reads that never come; its peers, which write
    /// none, keep none.
    #[test]
    fn written_frames_kept_for_reads_are_bounded_per_rank() {
        const LEN: usize = 64 << 10;
        const N: u64 = 20;
        let backends =
            SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), 3, FaultPlan::none())
                .unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    for to in [RankId(1), RankId(2)] {
                        backends[0].send(to, i, &[i as u8; LEN]).unwrap();
                    }
                }
                backends[0]
                    .send(RankId(1), N, &vec![1; 2 * POOL_FRAME_MAX])
                    .unwrap();
            });
            for b in &backends[1..] {
                s.spawn(move || {
                    for i in 0..N {
                        let got = b.recv(RankId(0), i, &|| false, None).unwrap();
                        assert_eq!(got, [i as u8; LEN]);
                    }
                });
            }
        });
        let big = backends[1].recv(RankId(0), N, &|| false, None).unwrap();
        assert_eq!(big.len(), 2 * POOL_FRAME_MAX);
        let frame = crate::wire::FRAME_HEADER + LEN + crate::wire::FRAME_TRAILER;
        let pool = backends[0].pool.lock();
        let kept: usize = pool.iter().map(Vec::capacity).sum();
        assert!(pool.len() <= POOL_FRAMES, "{} frames kept", pool.len());
        assert!(kept <= POOL_FRAMES * frame, "{kept} bytes kept");
        drop(pool);
        for b in &backends[1..] {
            assert!(
                b.pool.lock().is_empty(),
                "a rank that wrote no frame kept one"
            );
        }
        for b in &backends {
            b.shutdown();
        }
    }

    /// N messages each way queue exactly N envelopes per direction and
    /// nothing else: no ack goes back, and nothing is retransmitted. That
    /// holds for `Clean` envelopes on a clean link and for `Data` envelopes
    /// under a plan that could lose them.
    #[test]
    fn a_clean_socket_send_queues_one_envelope_and_no_ack() {
        const N: u64 = 200;
        const LEN: usize = 64;
        let envelope = (ENVELOPE_HEADER + crate::wire::FRAME_HEADER + LEN) as u64
            + crate::wire::FRAME_TRAILER as u64;
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
                assert_eq!(queued, N * envelope, "rank {me}: more than its data");
                assert_eq!(b.stats().retransmits, 0);
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
        // ~100 ms away: time enough to see the first copy rejected by its
        // sender and clean the link before the second leaves.
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
            while backends[0].stats().corrupt_frames == 0 {
                assert!(Instant::now() < deadline, "corrupt frame never arrived");
                std::thread::yield_now();
            }
            backends[0].set_perturbation(PerturbPlan::none());
            sender.join().unwrap().expect("healed by retransmission");
        });
        assert_eq!(eps[1].recv(RankId(0), 6).unwrap(), b"flipped once");
        // One verification per copy, where it is made: the bad copy is
        // counted exactly once, and exactly one more transmission was needed.
        assert_eq!(backends[0].stats().corrupt_frames, 1);
        assert_eq!(backends[1].stats().dup_suppressed, 0);
        assert_eq!(backends[0].stats().retransmits, 1);
        teardown(&eps);
    }
}
