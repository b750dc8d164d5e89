//! Crash-safe snapshot files and the one container every stored byte of
//! the workspace is framed in.
//!
//! Two properties every stored artifact needs, owned here so no domain
//! crate reimplements them:
//!
//! * **Atomicity** — [`atomic_write`] writes to a same-directory temp
//!   file, `fsync`s it, then `rename`s over the target. A reader therefore
//!   sees either the previous complete checkpoint or the new complete
//!   checkpoint, never a torn file, even across a crash mid-write.
//! * **Framing and integrity** — [`SectionWriter`]/[`SectionReader`] are
//!   the container (magic `LTCK`) for model exports, optimizer state and
//!   training checkpoints alike: a `kind` tag plus named, length-prefixed
//!   sections, each carrying a CRC-32 over its name and payload. The
//!   reader checks magic, version, the kind the caller expects, framing,
//!   size caps and every checksum before any payload is decoded, so a
//!   flipped bit or a truncated file is a typed [`DecodeError`], never a
//!   different model. Payload codecs read their bytes through [`Cursor`].
//!
//! ```text
//! magic "LTCK" | version u16 | kind: u16 len + UTF-8 | section count u32
//! per section:
//!   name: u16 len + UTF-8 | payload len u64 | payload | CRC-32 u32
//! ```
//!
//! All integers are little-endian; the CRC is CRC-32/ISO-HDLC (the zlib /
//! PNG polynomial) over the section's name bytes followed by its payload.
//!
//! Writes and resumes are counted in the global registry
//! (`checkpoint.writes`, `checkpoint.resumes`) so long runs expose their
//! crash-safety cadence through the same Prometheus/JSON exposition as
//! everything else. The writer carries the `checkpoint.write` failpoint:
//! chaos tests arm it to prove that a failing disk surfaces as a typed
//! error instead of a silently missing snapshot.

use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Current container format version.
pub const CHECKPOINT_VERSION: u16 = 2;

const MAGIC: &[u8; 4] = b"LTCK";

/// Upper bound on the sections of one container.
const MAX_SECTIONS: usize = 4096;

fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`: write temp → fsync → rename.
///
/// Increments `checkpoint.writes` in the global registry on success.
/// Carries the `checkpoint.write` failpoint.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    crate::failpoint::hit("checkpoint.write").map_err(io::Error::other)?;
    let tmp = temp_path(path);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    crate::metrics::global().counter("checkpoint.writes").inc();
    Ok(())
}

/// Reads a checkpoint written by [`atomic_write`].
///
/// Returns `Ok(None)` when no checkpoint exists (a fresh run), `Ok(Some)`
/// — and increments `checkpoint.resumes` — when one was loaded.
pub fn read_checkpoint(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => {
            crate::metrics::global().counter("checkpoint.resumes").inc();
            Ok(Some(bytes))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Why stored bytes were refused: truncation, bad framing, a checksum
/// mismatch, an unexpected kind, or a payload its codec rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// A little-endian reader over untrusted bytes. Every read is
/// bounds-checked: running short is a [`DecodeError`], never a panic.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Starts reading at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError(format!(
                "truncated: {n} bytes wanted, {} left",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns exactly N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = usize::from(self.u16()?);
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| DecodeError("string is not UTF-8".to_string()))
    }

    /// Succeeds only if every byte has been read.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError(format!("{n} trailing bytes"))),
        }
    }
}

/// Appends `s` as a `u16` length plus its UTF-8 bytes, the form
/// [`Cursor::str`] reads.
///
/// # Panics
///
/// If `s` is longer than `u16::MAX` bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("stored strings are at most u16::MAX bytes");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// CRC-32/ISO-HDLC lookup table (reflected polynomial `0xEDB88320`).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 of `name` followed by `payload`.
fn section_crc(name: &[u8], payload: &[u8]) -> u32 {
    let crc = name
        .iter()
        .chain(payload)
        .fold(!0u32, |c, &b| CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8));
    !crc
}

/// Builds a container: a `kind` tag plus ordered named sections.
///
/// ```
/// use lightts_obs::checkpoint::{SectionReader, SectionWriter};
/// let mut w = SectionWriter::new("demo");
/// w.section("weights", &[1, 2, 3]);
/// let bytes = w.finish();
/// let r = SectionReader::parse(&bytes, "demo").unwrap();
/// assert_eq!(r.require("weights").unwrap(), &[1u8, 2, 3][..]);
/// assert!(SectionReader::parse(&bytes, "other").is_err());
/// ```
#[derive(Debug)]
pub struct SectionWriter {
    buf: Vec<u8>,
    count: u32,
    count_at: usize,
}

impl SectionWriter {
    /// Starts a container of the given `kind` (e.g. `"distill.trainer"`).
    pub fn new(kind: &str) -> SectionWriter {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        put_str(&mut buf, kind);
        let count_at = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes());
        SectionWriter { buf, count: 0, count_at }
    }

    /// Appends one named section and its checksum.
    pub fn section(&mut self, name: &str, payload: &[u8]) {
        put_str(&mut self.buf, name);
        self.buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&section_crc(name.as_bytes(), payload).to_le_bytes());
        self.count += 1;
    }

    /// Finalizes the container and returns its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[self.count_at..self.count_at + 4].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

/// A container written by [`SectionWriter`], verified: the right kind, well
/// framed, and every section matching its checksum.
#[derive(Debug)]
pub struct SectionReader<'a> {
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> SectionReader<'a> {
    /// Parses `bytes` as a container of kind `kind`. Bad magic or version,
    /// another kind, truncation, trailing bytes, an implausible section
    /// count and a checksum mismatch are each a [`DecodeError`].
    pub fn parse(bytes: &'a [u8], kind: &str) -> Result<SectionReader<'a>, DecodeError> {
        Self::parse_inner(bytes, kind).map_err(|e| DecodeError(format!("container: {e}")))
    }

    fn parse_inner(bytes: &'a [u8], kind: &str) -> Result<SectionReader<'a>, DecodeError> {
        let bad = |what: String| Err(DecodeError(what));
        let mut c = Cursor::new(bytes);
        let magic = c.take(4)?;
        if magic != MAGIC {
            return bad(format!("bad magic \"{}\"", magic.escape_ascii()));
        }
        let version = c.u16()?;
        if version != CHECKPOINT_VERSION {
            return bad(format!("unsupported version {version}"));
        }
        let found = c.str()?;
        if found != kind {
            return bad(format!("expected kind {kind:?}, found {found:?}"));
        }
        let count = c.u32()? as usize;
        if count > MAX_SECTIONS {
            return bad(format!("implausible section count {count}"));
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let name = c.str()?;
            let Ok(len) = usize::try_from(c.u64()?) else {
                return bad(format!("section {name:?} implausibly large"));
            };
            let payload = c.take(len)?;
            if c.u32()? != section_crc(name.as_bytes(), payload) {
                return bad(format!("section {name:?} fails its checksum"));
            }
            sections.push((name, payload));
        }
        c.finish()?;
        Ok(SectionReader { sections })
    }

    /// The payload of the named section; a missing section is an error.
    pub fn require(&self, name: &str) -> Result<&'a [u8], DecodeError> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .ok_or_else(|| DecodeError(format!("container: missing section {name:?}")))
    }

    /// A [`Cursor`] over the named section's payload.
    pub fn cursor(&self, name: &str) -> Result<Cursor<'a>, DecodeError> {
        self.require(name).map(Cursor::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lightts-ckpt-{}-{name}", std::process::id()))
    }

    #[test]
    fn atomic_write_then_read_roundtrips_and_counts() {
        let path = tmp("roundtrip.bin");
        let _ = std::fs::remove_file(&path);
        let writes = crate::metrics::global().counter("checkpoint.writes");
        let resumes = crate::metrics::global().counter("checkpoint.resumes");
        let (w0, r0) = (writes.get(), resumes.get());
        assert_eq!(read_checkpoint(&path).unwrap(), None);
        atomic_write(&path, b"state-v1").unwrap();
        atomic_write(&path, b"state-v2").unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().as_deref(), Some(&b"state-v2"[..]));
        assert!(writes.get() >= w0 + 2);
        assert!(resumes.get() > r0);
        assert!(!temp_path(&path).exists(), "temp file left behind");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn section_container_roundtrips() {
        let mut w = SectionWriter::new("test.kind");
        w.section("a", b"alpha");
        w.section("b", &[]);
        w.section("c", &[0xFF; 300]);
        let bytes = w.finish();
        let r = SectionReader::parse(&bytes, "test.kind").unwrap();
        assert_eq!(r.require("a").unwrap(), &b"alpha"[..]);
        assert_eq!(r.require("b").unwrap(), &[][..]);
        assert_eq!(r.require("c").unwrap().len(), 300);
        assert!(r.require("missing").is_err());
        let err = SectionReader::parse(&bytes, "other.kind").unwrap_err();
        assert!(err.0.contains("expected kind"), "{err}");
    }

    #[test]
    fn section_checksum_is_crc32_over_name_then_payload() {
        // The standard CRC-32 check value of "123456789".
        assert_eq!(section_crc(b"1234", b"56789"), 0xCBF4_3926);
        assert_eq!(section_crc(b"", b""), 0);
    }

    #[test]
    fn cursor_reads_what_was_written_and_refuses_short_or_long_input() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.25f64).to_le_bytes());
        put_str(&mut buf, "name");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u16().unwrap(), 0xBEEF);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX);
        assert_eq!(c.f32().unwrap(), 1.5);
        assert_eq!(c.f64().unwrap(), -2.25);
        assert_eq!(c.str().unwrap(), "name");
        assert!(c.clone().u8().is_err());
        c.finish().unwrap();
        assert!(Cursor::new(&buf).finish().is_err());
        assert!(Cursor::new(&[0xFF, 0xFF, b'x']).str().is_err());
    }

    #[test]
    fn write_failpoint_surfaces_as_io_error() {
        let _g = crate::span::TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let path = tmp("failpoint.bin");
        let _ = std::fs::remove_file(&path);
        crate::failpoint::set_failpoints("checkpoint.write=err@1").unwrap();
        let err = atomic_write(&path, b"doomed").unwrap_err();
        assert!(err.to_string().contains("checkpoint.write"), "{err}");
        assert!(!path.exists());
        // recovery: the next write succeeds
        atomic_write(&path, b"ok").unwrap();
        crate::failpoint::clear_failpoints();
        std::fs::remove_file(&path).unwrap();
    }
}
