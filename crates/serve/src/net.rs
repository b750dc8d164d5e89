//! The serving network front door: `LTSP` frames over TCP, in front of
//! the sharded scheduler.
//!
//! The shape mirrors `lightts_obs::http`: a small blocking accept loop
//! (`std::net` only, no async runtime) that hands each connection to a
//! pair of threads —
//!
//! * the **reader** decodes request frames and submits them through the
//!   normal [`ServerHandle`] admission path (same validation, same
//!   backpressure, same deadline semantics as in-process callers), routing
//!   each by its client-supplied request id;
//! * the **writer** redeems the resulting [`Pending`]s in submission order
//!   and writes reply frames.
//!
//! Splitting the halves is what makes the protocol *pipelined*: a client
//! can stream many requests before reading any reply, which is exactly
//! what lets the scheduler form large fused batches from one remote
//! caller — the same trick in-process callers play by submitting many
//! `Pending`s before waiting.
//!
//! Replies come back in submission order per connection (head-of-line: a
//! slow request delays later replies on the same connection); every reply
//! echoes its request id, so clients match responses regardless.
//!
//! Typed failures travel as status frames (see [`crate::wire`]): shed
//! requests get `OVERLOADED`/`DEADLINE`, admission failures `BADREQ` /
//! `UNKNOWN_MODEL`, contained forward failures `INFER_ERR`, a dead shard
//! `UNAVAILABLE`, and a draining server `SHUTDOWN` — never a silently
//! closed socket. [`Server::shutdown`] keeps that promise by draining the
//! scheduler shards *before* closing the front door's sockets.

use crate::wire::{self, Reply, WireError};
use crate::{Pending, ServeError, Server, ServerHandle};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum simultaneously served connections per front door; further
/// accepts are dropped (the client sees a closed connection and retries).
pub const MAX_CONNS: usize = 256;
/// Per-connection socket write timeout: a stuck client stalls only its
/// own writer thread, and only this long per frame.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// One served connection's bookkeeping: the socket, whose read side is
/// shut to force its reader off, and both thread handles to join.
struct ConnEntry {
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl ConnEntry {
    fn finished(&self) -> bool {
        self.reader.as_ref().is_none_or(JoinHandle::is_finished)
            && self.writer.as_ref().is_none_or(JoinHandle::is_finished)
    }

    fn close_and_join(mut self) {
        let _ = self.stream.shutdown(Shutdown::Read);
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
        if let Some(t) = self.writer.take() {
            let _ = t.join();
        }
    }
}

/// The shared state behind one front door. [`Server`] holds a clone so
/// shutdown can retire doors *after* the scheduler drain; [`NetServer`] is
/// the user-facing handle over the same state. `shutdown` is idempotent,
/// so whichever side runs first wins and the other is a no-op.
pub(crate) struct DoorInner {
    stop: AtomicBool,
    done: AtomicBool,
    /// The bound address; a throwaway connection to it unblocks the accept
    /// loop.
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
    conns: Mutex<Vec<ConnEntry>>,
}

impl DoorInner {
    /// Stops accepting, half-closes every connection's read side (writers
    /// flush whatever replies are still in flight), and joins everything.
    pub(crate) fn shutdown(&self) {
        if self.done.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(t) = self.accept.lock().unwrap_or_else(PoisonError::into_inner).take() {
            let _ = t.join();
        }
        let conns: Vec<ConnEntry> = {
            let mut guard = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for c in conns {
            c.close_and_join();
        }
    }
}

/// A running network front door; obtained from [`Server::serve_net`].
/// Dropping it (or calling [`shutdown`](Self::shutdown)) closes the
/// listener and every connection — but the owning [`Server`]'s shutdown
/// also retires the door at the right point in its drain sequence, so
/// usually you just keep this handle alive alongside the server.
pub struct NetServer {
    door: Arc<DoorInner>,
}

impl NetServer {
    /// The bound TCP address (resolves port 0 to the real ephemeral
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.door.addr
    }

    /// Stops accepting, closes every connection, joins every thread.
    pub fn shutdown(self) {
        self.door.shutdown();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.door.shutdown();
    }
}

/// What the writer thread processes, in submission order.
enum Item {
    /// Admission already failed; reply immediately.
    Ready(u64, ServeError),
    /// Submitted; redeem the [`Pending`] for the reply.
    Wait(u64, Pending),
}

fn conn_reader(stream: TcpStream, handle: ServerHandle, tx: mpsc::Sender<Item>) {
    let mut r = BufReader::new(stream);
    match wire::read_handshake(&mut r) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            let _ = tx.send(Item::Ready(0, ServeError::BadRequest { what: e.to_string() }));
            return;
        }
        Err(_) => return,
    }
    loop {
        let payload = match wire::read_frame(&mut r) {
            Ok(None) | Err(_) => return, // clean EOF / socket gone
            Ok(Some(Err(e))) => {
                // Oversized declared length: typed reply, then close (the
                // stream is not frame-aligned any more).
                let _ = tx.send(Item::Ready(0, ServeError::BadRequest { what: e.to_string() }));
                return;
            }
            Ok(Some(Ok(p))) => p,
        };
        let req = match wire::decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                let _ = tx.send(Item::Ready(0, ServeError::BadRequest { what: e.to_string() }));
                return;
            }
        };
        let deadline =
            (req.deadline_us > 0).then(|| Duration::from_micros(u64::from(req.deadline_us)));
        let item = match handle.submit_keyed(&req.model, req.input, req.request_id, deadline) {
            Ok(p) => Item::Wait(req.request_id, p),
            Err(e) => Item::Ready(req.request_id, e),
        };
        if tx.send(item).is_err() {
            return; // writer gone (socket dead): stop reading
        }
    }
}

fn conn_writer(stream: TcpStream, rx: mpsc::Receiver<Item>) {
    let mut w = BufWriter::new(stream);
    let mut broken = false;
    for item in rx {
        // Redeem even when the socket is broken: the Pending must be
        // consumed so scheduler-side accounting stays truthful.
        let frame = match item {
            Item::Ready(id, e) => wire::encode_reply_err(id, &e),
            Item::Wait(id, p) => match p.wait() {
                Ok(probs) => wire::encode_reply_ok(id, &probs),
                Err(e) => wire::encode_reply_err(id, &e),
            },
        };
        if broken {
            continue;
        }
        if wire::write_frame(&mut w, &frame).and_then(|()| w.flush()).is_err() {
            broken = true;
        }
    }
    // All replies written: half-close so the client's reader sees EOF
    // only after the last frame.
    if let Ok(s) = w.into_inner() {
        let _ = s.shutdown(Shutdown::Write);
    }
}

fn spawn_conn(stream: TcpStream, handle: ServerHandle, tag: usize) -> io::Result<ConnEntry> {
    let read_half = stream.try_clone()?;
    let write_half = stream.try_clone()?;
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::Builder::new()
        .name(format!("lightts-net-r{tag}"))
        .spawn(move || conn_reader(read_half, handle, tx))?;
    let writer = std::thread::Builder::new()
        .name(format!("lightts-net-w{tag}"))
        .spawn(move || conn_writer(write_half, rx))?;
    Ok(ConnEntry { stream, reader: Some(reader), writer: Some(writer) })
}

fn accept_loop(listener: TcpListener, door: &DoorInner, handle: ServerHandle) {
    let mut tag = 0usize;
    loop {
        let accepted = listener.accept();
        if door.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let mut conns = door.conns.lock().unwrap_or_else(PoisonError::into_inner);
        // Reap finished connections so the bookkeeping (and the
        // connection cap) tracks live ones.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].finished() {
                conns.swap_remove(i).close_and_join();
            } else {
                i += 1;
            }
        }
        if conns.len() >= MAX_CONNS {
            drop(stream); // refuse: the client sees a closed connection
            continue;
        }
        tag += 1;
        if let Ok(entry) = spawn_conn(stream, handle.clone(), tag) {
            conns.push(entry);
        }
    }
}

impl Server {
    /// Binds a TCP front door on `addr` and starts serving `LTSP` frames
    /// over it (see [`crate::wire`] for the protocol and
    /// [`crate::net`](self) for the threading shape).
    ///
    /// Multiple doors can front one server. Keep the returned handle (or
    /// just the [`Server`]) alive; [`Server::shutdown`] retires the door
    /// after the scheduler drain so in-flight remote requests get their
    /// replies.
    pub fn serve_net(&self, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let door = Arc::new(DoorInner {
            stop: AtomicBool::new(false),
            done: AtomicBool::new(false),
            addr: listener.local_addr()?,
            accept: Mutex::new(None),
            conns: Mutex::new(Vec::new()),
        });
        let handle = self.handle();
        let accept_thread = {
            let door = Arc::clone(&door);
            std::thread::Builder::new()
                .name("lightts-net-accept".into())
                .spawn(move || accept_loop(listener, &door, handle))?
        };
        *door.accept.lock().unwrap_or_else(PoisonError::into_inner) = Some(accept_thread);
        self.doors.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&door));
        Ok(NetServer { door })
    }
}

/// A client-side error: transport, protocol, or a typed serving error
/// decoded from a status frame.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed or closed mid-frame.
    Io(io::Error),
    /// The peer sent bytes that do not decode as `LTSP`.
    Wire(WireError),
    /// The server answered with a typed error status.
    Serve(ServeError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Wire(e) => write!(f, "protocol error: {e}"),
            NetError::Serve(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e)
    }
}

impl From<ServeError> for NetError {
    fn from(e: ServeError) -> NetError {
        NetError::Serve(e)
    }
}

/// A blocking `LTSP` client over any byte stream (TCP, or an in-memory
/// pipe in tests).
///
/// Supports both one-shot request/response ([`predict`](Self::predict))
/// and pipelined use: [`send`](Self::send) many requests, then
/// [`recv`](Self::recv) the replies in order — the pattern that lets the
/// remote scheduler fuse your requests into large batches.
pub struct NetClient<S: Read + Write> {
    stream: S,
    next_id: u64,
}

impl NetClient<TcpStream> {
    /// Connects to a TCP front door and performs the handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        NetClient::from_stream(stream)
    }
}

impl<S: Read + Write> NetClient<S> {
    /// Wraps an already-connected stream, writing the handshake.
    pub fn from_stream(mut stream: S) -> io::Result<NetClient<S>> {
        wire::write_handshake(&mut stream)?;
        stream.flush()?;
        Ok(NetClient { stream, next_id: 1 })
    }

    /// Sends one PREDICT request with an auto-assigned request id
    /// (returned) and an optional relative deadline.
    pub fn send(
        &mut self,
        model: &str,
        input: &[f32],
        deadline: Option<Duration>,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_with_id(id, model, input, deadline)?;
        Ok(id)
    }

    /// Sends one PREDICT request under an explicit request id (the id
    /// hash-routes the request server-side, so replaying an id replays
    /// its shard placement).
    pub fn send_with_id(
        &mut self,
        id: u64,
        model: &str,
        input: &[f32],
        deadline: Option<Duration>,
    ) -> io::Result<()> {
        let deadline_us = deadline.map_or(0, |d| d.as_micros().min(u128::from(u32::MAX)) as u32);
        let payload = wire::encode_request(&wire::PredictRequest {
            request_id: id,
            deadline_us,
            model: model.to_string(),
            input: input.to_vec(),
        });
        wire::write_frame(&mut self.stream, &payload)?;
        self.stream.flush()
    }

    /// Receives the next reply frame (blocking).
    pub fn recv(&mut self) -> std::result::Result<Reply, NetError> {
        match wire::read_frame(&mut self.stream)? {
            None => Err(NetError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed by server",
            ))),
            Some(payload) => Ok(wire::decode_reply(&payload?)?),
        }
    }

    /// One request, one reply: sends and blocks for the matching answer.
    /// A typed server-side failure comes back as [`NetError::Serve`] — the
    /// same [`ServeError`] an in-process caller would get (up to the one
    /// documented lossy mapping row).
    pub fn predict(
        &mut self,
        model: &str,
        input: &[f32],
    ) -> std::result::Result<Vec<f32>, NetError> {
        let id = self.send(model, input, None)?;
        self.recv_reply_to(id)
    }

    /// Receives the next reply, which must answer request `id`.
    fn recv_reply_to(&mut self, id: u64) -> std::result::Result<Vec<f32>, NetError> {
        match self.recv()? {
            Reply::Ok { request_id, probs } if request_id == id => Ok(probs),
            Reply::Ok { request_id, .. } => Err(NetError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply id {request_id} does not match request id {id}"),
            ))),
            Reply::Err { error, .. } => Err(NetError::Serve(error)),
        }
    }

    /// Like [`predict`](Self::predict), retrying retryable typed statuses
    /// (`OVERLOADED`, `UNAVAILABLE` — see [`Status::is_retryable`]) under
    /// `policy`, within an optional overall deadline.
    ///
    /// One request id is assigned up front and **re-sent verbatim** on
    /// every attempt, so all attempts hash-route identically server-side
    /// (to the same replica, or — while that replica's shard is down — to
    /// the same deterministic surviving sibling). Each attempt's wire
    /// deadline is the *remaining* budget, and a backoff sleep that would
    /// cross the deadline is never taken, so retries can never make the
    /// caller wait longer than `deadline`.
    ///
    /// Transport and protocol errors ([`NetError::Io`] /
    /// [`NetError::Wire`]) are **not** retried: after one the stream may
    /// no longer be frame-aligned, so resending on it is unsafe — callers
    /// reconnect instead.
    ///
    /// [`Status::is_retryable`]: crate::wire::Status::is_retryable
    pub fn predict_with_retry(
        &mut self,
        model: &str,
        input: &[f32],
        policy: crate::RetryPolicy,
        deadline: Option<Duration>,
    ) -> std::result::Result<Vec<f32>, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        policy.run(
            id,
            deadline,
            |left| {
                self.send_with_id(id, model, input, left)?;
                self.recv_reply_to(id)
            },
            |e| matches!(e, NetError::Serve(s) if s.is_retryable()),
        )
    }
}
