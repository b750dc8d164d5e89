//! The `LTSP` wire format: length-prefixed binary frames for remote
//! inference over TCP.
//!
//! ## Framing
//!
//! A connection opens with a 5-byte handshake from the client — the magic
//! `LTSP` plus a version byte ([`VERSION`]) — then carries frames in both
//! directions. Every frame is a little-endian `u32` payload length
//! followed by that many payload bytes; payloads are capped at
//! [`MAX_FRAME`] (an oversized length is a protocol error and closes the
//! connection). All multi-byte integers are little-endian; `f32` values
//! travel as their IEEE-754 bit patterns, so probability rows cross the
//! wire **bitwise exactly** — the remote-equals-in-process equivalence
//! test depends on this.
//!
//! Request payload (`opcode` 1 = PREDICT, the only opcode in v1):
//!
//! ```text
//! u8  opcode          1 = PREDICT
//! u64 request_id      client-chosen; echoed in the reply and used to
//!                     hash-route the request to a scheduler shard
//! u32 deadline_us     relative deadline in µs; 0 = none
//! u16 model_len       model-name byte length
//! [u8; model_len]     model name (UTF-8)
//! u32 n               number of input scalars
//! [f32; n]            the sample, bit-exact
//! ```
//!
//! Reply payload:
//!
//! ```text
//! u8  status          see `Status`
//! u64 request_id      echo
//! -- status == OK --
//! u32 n               number of classes
//! [f32; n]            the probability row, bit-exact
//! -- status != OK --
//! u64 aux             status-specific detail (see the mapping table)
//! u32 msg_len         message byte length
//! [u8; msg_len]       human-readable detail (UTF-8, may be empty)
//! ```
//!
//! ## Status codes
//!
//! Every [`ServeError`] maps onto a typed status so remote callers get the
//! same backpressure/deadline/shed semantics in-process callers do:
//!
//! | status | code | `ServeError` | `aux` | `msg` |
//! |---|---|---|---|---|
//! | `OK` | 0 | — | — | — |
//! | `BADREQ` | 1 | [`BadRequest`](ServeError::BadRequest) / [`NonFiniteInput`](ServeError::NonFiniteInput) | 0 / index+1 | what / empty |
//! | `UNKNOWN_MODEL` | 2 | [`UnknownModel`](ServeError::UnknownModel) | 0 | model name |
//! | `OVERLOADED` | 3 | [`Overloaded`](ServeError::Overloaded) | max_queue | model name |
//! | `DEADLINE` | 4 | [`DeadlineExceeded`](ServeError::DeadlineExceeded) | 0 | empty |
//! | `INFER_ERR` | 5 | [`Inference`](ServeError::Inference) / [`Model`](ServeError::Model) | 0 / 1 | what / error text |
//! | `SHUTDOWN` | 6 | [`Shutdown`](ServeError::Shutdown) | 0 | empty |
//! | `UNAVAILABLE` | 7 | [`SchedulerDied`](ServeError::SchedulerDied) | shard+1, 0 = unknown | empty |
//! | `CIRCUIT_OPEN` | 8 | [`CircuitOpen`](ServeError::CircuitOpen) | 0 | model name |
//!
//! Of these, exactly `OVERLOADED` and `UNAVAILABLE` are **retryable**
//! ([`Status::is_retryable`]): the failure is transient capacity or
//! topology, so resending the *same* request (same id — it reroutes
//! around dead shards) can succeed. `CIRCUIT_OPEN` is deliberately not:
//! the breaker sheds precisely because retries against a poisoned model
//! burn scheduler time; back off until the server's own half-open probe
//! closes the circuit.
//!
//! The mapping is lossless except for [`ServeError::Model`], which decodes
//! as [`ServeError::Inference`] carrying the model error's text (`aux` 1
//! marks the provenance) — a remote caller cannot hold a `ModelError`
//! value, only its rendering. The exhaustive round-trip test below pins
//! every row of this table.

use crate::ServeError;
use std::fmt;
use std::io::{self, Read, Write};

/// Connection handshake magic, sent by the client before the first frame.
pub const MAGIC: [u8; 4] = *b"LTSP";
/// Wire-format version byte following the magic.
pub const VERSION: u8 = 1;
/// Maximum frame payload, bytes (4 MiB). A declared length beyond this is
/// a protocol error; the server answers `BADREQ` and closes.
pub const MAX_FRAME: usize = 4 << 20;
/// The PREDICT opcode (the only one in v1).
pub const OP_PREDICT: u8 = 1;

/// Typed reply status, the wire rendering of a [`ServeError`] (or
/// success). See the module-level mapping table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Prediction succeeded; the payload carries the probability row.
    Ok = 0,
    /// Malformed request (bad shape, non-finite input, bad frame).
    BadReq = 1,
    /// The named model is not registered.
    UnknownModel = 2,
    /// The routed replica's queue is full; the request was shed.
    Overloaded = 3,
    /// The request's deadline expired before inference started.
    Deadline = 4,
    /// The fused forward failed (contained panic or model error).
    InferErr = 5,
    /// The server is shutting down; the request was not accepted.
    Shutdown = 6,
    /// The routed scheduler shard is dead (`aux` = shard+1 when known).
    Unavailable = 7,
    /// The model's circuit breaker is open; the request was shed at
    /// admission without queueing.
    CircuitOpen = 8,
}

impl Status {
    /// All statuses, in code order (for exhaustive table tests).
    pub const ALL: [Status; 9] = [
        Status::Ok,
        Status::BadReq,
        Status::UnknownModel,
        Status::Overloaded,
        Status::Deadline,
        Status::InferErr,
        Status::Shutdown,
        Status::Unavailable,
        Status::CircuitOpen,
    ];

    /// Decodes a status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        Status::ALL.get(b as usize).copied()
    }

    /// Stable upper-case name, as used in logs and docs.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::BadReq => "BADREQ",
            Status::UnknownModel => "UNKNOWN_MODEL",
            Status::Overloaded => "OVERLOADED",
            Status::Deadline => "DEADLINE",
            Status::InferErr => "INFER_ERR",
            Status::Shutdown => "SHUTDOWN",
            Status::Unavailable => "UNAVAILABLE",
            Status::CircuitOpen => "CIRCUIT_OPEN",
        }
    }

    /// Whether a client retry of the same request can reasonably succeed
    /// (see the module-level table): `OVERLOADED` (transient queue
    /// pressure) and `UNAVAILABLE` (a dead shard that reroutes or
    /// respawns). The wire-level counterpart of
    /// [`ServeError::is_retryable`].
    pub fn is_retryable(self) -> bool {
        matches!(self, Status::Overloaded | Status::Unavailable)
    }
}

/// The status a [`ServeError`] encodes as — one row of the mapping table.
pub fn status_of(e: &ServeError) -> Status {
    match e {
        ServeError::UnknownModel { .. } => Status::UnknownModel,
        ServeError::BadRequest { .. } | ServeError::NonFiniteInput { .. } => Status::BadReq,
        ServeError::Overloaded { .. } => Status::Overloaded,
        ServeError::DeadlineExceeded => Status::Deadline,
        ServeError::Inference { .. } | ServeError::Model(_) => Status::InferErr,
        ServeError::Shutdown => Status::Shutdown,
        ServeError::SchedulerDied { .. } => Status::Unavailable,
        ServeError::CircuitOpen { .. } => Status::CircuitOpen,
    }
}

/// Why a frame failed to decode. Any of these on a live connection is a
/// protocol desync: the peer cannot be trusted to be frame-aligned any
/// more, so the connection closes after (for servers) a best-effort
/// `BADREQ` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the declared structure did.
    Truncated,
    /// The connection handshake's magic bytes were wrong.
    BadMagic,
    /// The handshake named an unsupported version.
    BadVersion(u8),
    /// A request carried an unknown opcode.
    BadOpcode(u8),
    /// A reply carried an unknown status byte.
    BadStatus(u8),
    /// A declared length exceeded [`MAX_FRAME`] or the payload bounds.
    TooLarge(usize),
    /// A model name was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad handshake magic (expected \"LTSP\")"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::BadStatus(s) => write!(f, "unknown status byte {s}"),
            WireError::TooLarge(n) => write!(f, "declared length {n} exceeds frame bounds"),
            WireError::BadUtf8 => write!(f, "model name is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded PREDICT request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen id: echoed in the reply, hash-routes the request.
    pub request_id: u64,
    /// Relative deadline in µs; 0 = none.
    pub deadline_us: u32,
    /// Target model name.
    pub model: String,
    /// The input sample, `in_dims · in_len` scalars.
    pub input: Vec<f32>,
}

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success: the probability row, bit-exact.
    Ok {
        /// Echo of the request id.
        request_id: u64,
        /// The class-probability row.
        probs: Vec<f32>,
    },
    /// Failure: the decoded [`ServeError`].
    Err {
        /// Echo of the request id (0 when the request never parsed far
        /// enough to yield one).
        request_id: u64,
        /// The decoded error (see the mapping table for lossiness).
        error: ServeError,
    },
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::TooLarge(n))?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::TooLarge(n))?)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    fn done(&self) -> Result<(), WireError> {
        // Trailing bytes mean the peer framed something we don't
        // understand — treat as desync rather than silently ignoring.
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TooLarge(self.buf.len()))
        }
    }
}

/// Encodes a PREDICT request payload (no length prefix; see
/// [`write_frame`]).
pub fn encode_request(req: &PredictRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + 4 + 2 + req.model.len() + 4 + 4 * req.input.len());
    out.push(OP_PREDICT);
    out.extend_from_slice(&req.request_id.to_le_bytes());
    out.extend_from_slice(&req.deadline_us.to_le_bytes());
    out.extend_from_slice(&(req.model.len() as u16).to_le_bytes());
    out.extend_from_slice(req.model.as_bytes());
    out.extend_from_slice(&(req.input.len() as u32).to_le_bytes());
    for v in &req.input {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a PREDICT request payload. Total over arbitrary bytes: never
/// panics, rejects with a typed [`WireError`].
pub fn decode_request(payload: &[u8]) -> Result<PredictRequest, WireError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    if op != OP_PREDICT {
        return Err(WireError::BadOpcode(op));
    }
    let request_id = c.u64()?;
    let deadline_us = c.u32()?;
    let model_len = c.u16()? as usize;
    let model =
        std::str::from_utf8(c.take(model_len)?).map_err(|_| WireError::BadUtf8)?.to_string();
    let n = c.u32()? as usize;
    let input = c.f32s(n)?;
    c.done()?;
    Ok(PredictRequest { request_id, deadline_us, model, input })
}

/// Encodes a success reply payload carrying the probability row bit-exact.
pub fn encode_reply_ok(request_id: u64, probs: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + 4 + 4 * probs.len());
    out.push(Status::Ok as u8);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(probs.len() as u32).to_le_bytes());
    for v in probs {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes an error reply payload per the status mapping table.
pub fn encode_reply_err(request_id: u64, e: &ServeError) -> Vec<u8> {
    let status = status_of(e);
    let (aux, msg): (u64, String) = match e {
        ServeError::UnknownModel { name } => (0, name.clone()),
        ServeError::BadRequest { what } => (0, what.clone()),
        ServeError::NonFiniteInput { index } => (*index as u64 + 1, String::new()),
        ServeError::Overloaded { model, max_queue } => (*max_queue as u64, model.clone()),
        ServeError::DeadlineExceeded => (0, String::new()),
        ServeError::Inference { what } => (0, what.clone()),
        ServeError::Model(me) => (1, me.to_string()),
        ServeError::Shutdown => (0, String::new()),
        ServeError::SchedulerDied { shard } => (shard.map_or(0, |s| s as u64 + 1), String::new()),
        ServeError::CircuitOpen { model } => (0, model.clone()),
    };
    let mut out = Vec::with_capacity(1 + 8 + 8 + 4 + msg.len());
    out.push(status as u8);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&aux.to_le_bytes());
    out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    out.extend_from_slice(msg.as_bytes());
    out
}

/// Decodes a reply payload (the inverse of the encode pair; see the
/// mapping table for the one lossy row).
pub fn decode_reply(payload: &[u8]) -> Result<Reply, WireError> {
    let mut c = Cursor::new(payload);
    let status_byte = c.u8()?;
    let status = Status::from_u8(status_byte).ok_or(WireError::BadStatus(status_byte))?;
    let request_id = c.u64()?;
    if status == Status::Ok {
        let n = c.u32()? as usize;
        let probs = c.f32s(n)?;
        c.done()?;
        return Ok(Reply::Ok { request_id, probs });
    }
    let aux = c.u64()?;
    let msg_len = c.u32()? as usize;
    let msg = std::str::from_utf8(c.take(msg_len)?).map_err(|_| WireError::BadUtf8)?.to_string();
    c.done()?;
    let error = match status {
        Status::Ok => unreachable!(),
        Status::BadReq => {
            if aux > 0 {
                ServeError::NonFiniteInput { index: (aux - 1) as usize }
            } else {
                ServeError::BadRequest { what: msg }
            }
        }
        Status::UnknownModel => ServeError::UnknownModel { name: msg },
        Status::Overloaded => ServeError::Overloaded { model: msg, max_queue: aux as usize },
        Status::Deadline => ServeError::DeadlineExceeded,
        // `aux` 1 marks a server-side `ServeError::Model`; it decodes as
        // `Inference` carrying the rendered text (documented lossy row).
        Status::InferErr => ServeError::Inference { what: msg },
        Status::Shutdown => ServeError::Shutdown,
        Status::Unavailable => {
            ServeError::SchedulerDied { shard: (aux > 0).then(|| (aux - 1) as usize) }
        }
        Status::CircuitOpen => ServeError::CircuitOpen { model: msg },
    };
    Ok(Reply::Err { request_id, error })
}

/// Writes the client handshake (magic + version).
pub fn write_handshake(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION])
}

/// Reads and checks the client handshake.
pub fn read_handshake(r: &mut impl Read) -> io::Result<Result<(), WireError>> {
    let mut buf = [0u8; 5];
    r.read_exact(&mut buf)?;
    if buf[..4] != MAGIC {
        return Ok(Err(WireError::BadMagic));
    }
    if buf[4] != VERSION {
        return Ok(Err(WireError::BadVersion(buf[4])));
    }
    Ok(Ok(()))
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame.
///
/// `Ok(None)` on clean EOF at a frame boundary; an I/O error mid-frame
/// surfaces as `Err`; a declared length beyond [`MAX_FRAME`] surfaces as
/// `Ok(Some(Err(TooLarge)))` so the server can answer `BADREQ` before
/// closing.
#[allow(clippy::type_complexity)]
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Result<Vec<u8>, WireError>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "mid-prefix EOF")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Ok(Some(Err(WireError::TooLarge(len))));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(Ok(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = PredictRequest {
            request_id: 0xDEAD_BEEF_0123,
            deadline_us: 2_500,
            model: "golden-student".into(),
            input: vec![0.0, -1.5, f32::MIN_POSITIVE, 1e30],
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        // NaN payloads survive the wire bit-exactly too (admission rejects
        // them server-side, but the codec must not corrupt them).
        let req = PredictRequest {
            request_id: 1,
            deadline_us: 0,
            model: "m".into(),
            input: vec![f32::NAN],
        };
        let got = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(got.input[0].to_bits(), f32::NAN.to_bits());
    }

    #[test]
    fn request_decode_is_total_over_garbage() {
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
        assert_eq!(decode_request(&[9]), Err(WireError::BadOpcode(9)));
        // Truncated mid-id.
        assert_eq!(decode_request(&[OP_PREDICT, 1, 2]), Err(WireError::Truncated));
        // Declared float count beyond the payload.
        let mut bytes = encode_request(&PredictRequest {
            request_id: 7,
            deadline_us: 0,
            model: "m".into(),
            input: vec![1.0],
        });
        let at = bytes.len() - 8; // n field sits before the single f32
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&bytes),
            Err(WireError::Truncated | WireError::TooLarge(_))
        ));
        // Non-UTF-8 model name.
        let mut bytes = encode_request(&PredictRequest {
            request_id: 7,
            deadline_us: 0,
            model: "mm".into(),
            input: vec![],
        });
        bytes[15] = 0xFF; // first model byte
        assert_eq!(decode_request(&bytes), Err(WireError::BadUtf8));
        // Trailing bytes are a desync.
        let mut bytes = encode_request(&PredictRequest {
            request_id: 7,
            deadline_us: 0,
            model: "m".into(),
            input: vec![],
        });
        bytes.push(0);
        assert!(matches!(decode_request(&bytes), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn ok_reply_round_trips_bit_exact() {
        let probs = vec![0.25f32, 0.5, 0.125, 0.125];
        match decode_reply(&encode_reply_ok(42, &probs)).unwrap() {
            Reply::Ok { request_id, probs: got } => {
                assert_eq!(request_id, 42);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    probs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
            other => panic!("expected Ok reply, got {other:?}"),
        }
    }

    /// The exhaustive mapping-table round trip: every `ServeError` variant
    /// encodes to its documented status and decodes back to itself —
    /// except the one documented lossy row (`Model` → `Inference` with the
    /// rendered text).
    #[test]
    fn every_serve_error_round_trips_through_its_status() {
        use lightts_models::ModelError;
        let cases: Vec<(ServeError, Status)> = vec![
            (ServeError::UnknownModel { name: "ghost".into() }, Status::UnknownModel),
            (ServeError::BadRequest { what: "wrong shape".into() }, Status::BadReq),
            (ServeError::NonFiniteInput { index: 0 }, Status::BadReq),
            (ServeError::NonFiniteInput { index: 31 }, Status::BadReq),
            (ServeError::Overloaded { model: "hot".into(), max_queue: 1024 }, Status::Overloaded),
            (ServeError::DeadlineExceeded, Status::Deadline),
            (ServeError::Inference { what: "batch forward panicked".into() }, Status::InferErr),
            (ServeError::Shutdown, Status::Shutdown),
            (ServeError::SchedulerDied { shard: None }, Status::Unavailable),
            (ServeError::SchedulerDied { shard: Some(0) }, Status::Unavailable),
            (ServeError::SchedulerDied { shard: Some(3) }, Status::Unavailable),
            (ServeError::CircuitOpen { model: "poisoned".into() }, Status::CircuitOpen),
        ];
        for (err, want_status) in &cases {
            assert_eq!(status_of(err), *want_status, "{err:?}");
            match decode_reply(&encode_reply_err(9, err)).unwrap() {
                Reply::Err { request_id, error } => {
                    assert_eq!(request_id, 9);
                    assert_eq!(&error, err, "lossy round trip for {err:?}");
                }
                other => panic!("expected Err reply, got {other:?}"),
            }
        }
        // The documented lossy row: Model decodes as Inference with the
        // rendered text.
        let model_err =
            ServeError::Model(ModelError::BadConfig { what: "truncated header".into() });
        assert_eq!(status_of(&model_err), Status::InferErr);
        match decode_reply(&encode_reply_err(9, &model_err)).unwrap() {
            Reply::Err { error: ServeError::Inference { what }, .. } => {
                assert!(what.contains("truncated header"), "{what}");
            }
            other => panic!("Model must decode as Inference, got {other:?}"),
        }
        // This match is the exhaustiveness guard: adding a ServeError
        // variant without extending the table above fails to compile here.
        let covered = |e: &ServeError| match e {
            ServeError::UnknownModel { .. }
            | ServeError::BadRequest { .. }
            | ServeError::NonFiniteInput { .. }
            | ServeError::Overloaded { .. }
            | ServeError::DeadlineExceeded
            | ServeError::Inference { .. }
            | ServeError::Model(_)
            | ServeError::Shutdown
            | ServeError::SchedulerDied { .. }
            | ServeError::CircuitOpen { .. } => true,
        };
        assert!(cases.iter().all(|(e, _)| covered(e)));
        // And every status byte decodes back to itself or rejects cleanly.
        for b in 0u8..=255 {
            match Status::from_u8(b) {
                Some(s) => assert_eq!(s as u8, b),
                None => assert!(b >= Status::ALL.len() as u8),
            }
        }
    }

    /// The retryable class is exactly {OVERLOADED, UNAVAILABLE}, and the
    /// wire- and error-level predicates agree on every table row.
    #[test]
    fn retryable_statuses_are_exactly_overloaded_and_unavailable() {
        for s in Status::ALL {
            assert_eq!(
                s.is_retryable(),
                matches!(s, Status::Overloaded | Status::Unavailable),
                "{s:?}"
            );
        }
        let errs = [
            ServeError::UnknownModel { name: "g".into() },
            ServeError::BadRequest { what: "w".into() },
            ServeError::NonFiniteInput { index: 0 },
            ServeError::Overloaded { model: "m".into(), max_queue: 8 },
            ServeError::DeadlineExceeded,
            ServeError::Inference { what: "boom".into() },
            ServeError::Shutdown,
            ServeError::SchedulerDied { shard: Some(1) },
            ServeError::CircuitOpen { model: "m".into() },
        ];
        for e in &errs {
            assert_eq!(e.is_retryable(), status_of(e).is_retryable(), "{e:?}");
        }
    }

    #[test]
    fn frames_and_handshake_round_trip() {
        let mut buf = Vec::new();
        write_handshake(&mut buf).unwrap();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        read_handshake(&mut r).unwrap().unwrap();
        assert_eq!(read_frame(&mut r).unwrap().unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(read_handshake(&mut &bad[..]).unwrap(), Err(WireError::BadMagic));
        let mut bad = buf;
        bad[4] = 99;
        assert_eq!(read_handshake(&mut &bad[..]).unwrap(), Err(WireError::BadVersion(99)));

        // Oversized declared length is typed, not fatal to the reader.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        match read_frame(&mut &huge[..]).unwrap().unwrap() {
            Err(WireError::TooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("{other:?}"),
        }
    }
}
