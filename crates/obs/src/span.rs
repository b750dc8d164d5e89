//! Tracing spans and structured JSONL events.
//!
//! A [`Span`] is an RAII guard: created by the [`span!`](crate::span)
//! macro, it stamps a start time, collects typed fields, and on drop (a)
//! records its wall-clock duration into the global registry histogram
//! `span.<path>` and (b) writes one JSONL event to the configured sink.
//! [`event!`](crate::event) writes a point-in-time event with no duration.
//!
//! ## The off switch
//!
//! Everything is gated on one atomic flag read by [`enabled`]. When obs is
//! disabled (the default), `span!` and `event!` expand to a single relaxed
//! atomic load — field expressions are not evaluated, nothing allocates,
//! no clock is read. The [`events_emitted`] counter (same pattern as
//! `lightts_tensor::tape::tapes_created`) lets tests prove that.
//!
//! The flag follows the `LIGHTTS_OBS` environment variable on first use:
//!
//! | `LIGHTTS_OBS` | effect |
//! |---|---|
//! | unset, ``, `0`, `off`, `false` | disabled |
//! | `1`, `true`, `stderr` | JSONL to stderr |
//! | `mem`, `memory` | JSONL to an in-memory buffer ([`take_memory`]) |
//! | anything else | treated as a file path, JSONL appended there |
//!
//! [`set_sink`] overrides the environment at any time (tests, embedders).

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Where JSONL events go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkTarget {
    /// Drop everything; spans and events cost one atomic load.
    Off,
    /// One JSON object per line on standard error.
    Stderr,
    /// Append to the given file.
    File(PathBuf),
    /// Buffer lines in memory; drain with [`take_memory`] (tests).
    Memory,
}

enum SinkImpl {
    Off,
    Stderr,
    File(std::fs::File),
    Memory(Vec<String>),
}

/// Capture-mask bit: the JSONL sink is on (`LIGHTTS_OBS` / [`set_sink`]).
const SINK_BIT: u8 = 1;
/// Capture-mask bit: the `/tracez` span ring is on
/// ([`crate::trace::enable_ring`]).
const RING_BIT: u8 = 2;

struct ObsState {
    /// Bitmask of active capture targets ([`SINK_BIT`] | [`RING_BIT`]);
    /// zero means spans and events cost one relaxed load.
    mask: AtomicU8,
    sink: Mutex<SinkImpl>,
    emitted: AtomicU64,
}

fn target_from_env() -> SinkTarget {
    match std::env::var("LIGHTTS_OBS") {
        Err(_) => SinkTarget::Off,
        Ok(v) => match v.as_str() {
            "" | "0" | "off" | "false" => SinkTarget::Off,
            "1" | "true" | "stderr" => SinkTarget::Stderr,
            "mem" | "memory" => SinkTarget::Memory,
            path => SinkTarget::File(PathBuf::from(path)),
        },
    }
}

fn build_sink(target: &SinkTarget) -> SinkImpl {
    match target {
        SinkTarget::Off => SinkImpl::Off,
        SinkTarget::Stderr => SinkImpl::Stderr,
        SinkTarget::Memory => SinkImpl::Memory(Vec::new()),
        SinkTarget::File(path) => match OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => SinkImpl::File(f),
            Err(e) => {
                eprintln!("lightts-obs: cannot open {path:?} ({e}), falling back to stderr");
                SinkImpl::Stderr
            }
        },
    }
}

fn state() -> &'static ObsState {
    static STATE: OnceLock<ObsState> = OnceLock::new();
    STATE.get_or_init(|| {
        let target = target_from_env();
        ObsState {
            mask: AtomicU8::new(if target != SinkTarget::Off { SINK_BIT } else { 0 }),
            sink: Mutex::new(build_sink(&target)),
            emitted: AtomicU64::new(0),
        }
    })
}

/// Whether any span/event capture is on — the JSONL sink, the `/tracez`
/// span ring, or both. One relaxed atomic load — this is the
/// instrumentation hot-path check; field expressions are only evaluated
/// when it returns `true`.
pub fn enabled() -> bool {
    state().mask.load(Ordering::Relaxed) != 0
}

/// Whether the JSONL sink specifically is on (events only go to the sink;
/// the ring holds completed spans).
pub(crate) fn sink_enabled() -> bool {
    state().mask.load(Ordering::Relaxed) & SINK_BIT != 0
}

fn set_mask_bit(bit: u8, on: bool) {
    let s = state();
    if on {
        s.mask.fetch_or(bit, Ordering::Relaxed);
    } else {
        s.mask.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Mirrors the `/tracez` ring's enabled state into the capture mask
/// (called by [`crate::trace::enable_ring`] / `disable_ring`).
pub(crate) fn set_ring_capture(on: bool) {
    set_mask_bit(RING_BIT, on);
}

/// Points the JSONL sink somewhere, overriding `LIGHTTS_OBS`.
///
/// `SinkTarget::Off` disables sink emission (the `/tracez` ring, if
/// enabled, keeps capturing spans independently).
pub fn set_sink(target: SinkTarget) {
    let s = state();
    *s.sink.lock().unwrap() = build_sink(&target);
    set_mask_bit(SINK_BIT, target != SinkTarget::Off);
}

/// Initializes from `LIGHTTS_OBS` if it is set, else from `default`.
///
/// The experiment binaries call this with [`SinkTarget::Stderr`] so their
/// progress output is structured by default while `LIGHTTS_OBS=0` still
/// silences it.
pub fn init_from_env_or(default: SinkTarget) {
    if std::env::var_os("LIGHTTS_OBS").is_some() {
        set_sink(target_from_env());
    } else {
        set_sink(default);
    }
}

/// Total JSONL events written since process start (diagnostics; the
/// disabled-mode tests assert this does not move).
pub fn events_emitted() -> u64 {
    state().emitted.load(Ordering::Relaxed)
}

/// Drains and returns the in-memory sink's lines (empty unless the sink is
/// [`SinkTarget::Memory`]).
pub fn take_memory() -> Vec<String> {
    match &mut *state().sink.lock().unwrap() {
        SinkImpl::Memory(lines) => std::mem::take(lines),
        _ => Vec::new(),
    }
}

/// Routes one rendered line to the active capture targets: the sink (spans
/// and events) and, for spans only, the `/tracez` ring.
fn write_line(line: String, is_span: bool) {
    let s = state();
    let mask = s.mask.load(Ordering::Relaxed);
    if mask & SINK_BIT != 0 {
        s.emitted.fetch_add(1, Ordering::Relaxed);
        match &mut *s.sink.lock().unwrap() {
            SinkImpl::Off => {}
            SinkImpl::Stderr => eprintln!("{line}"),
            SinkImpl::File(f) => {
                let _ = writeln!(f, "{line}");
            }
            SinkImpl::Memory(lines) => lines.push(line.clone()),
        }
    }
    if is_span && mask & RING_BIT != 0 {
        crate::trace::push_span_line(&line);
    }
}

/// A typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float (non-finite values serialize as `null`).
    Float(f64),
    /// A boolean.
    Bool(bool),
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue { FieldValue::$variant(v as $conv) }
        }
    )*};
}
field_from! {
    i8 => Int as i64, i16 => Int as i64, i32 => Int as i64, i64 => Int as i64,
    u8 => UInt as u64, u16 => UInt as u64, u32 => UInt as u64, u64 => UInt as u64,
    usize => UInt as u64,
    f32 => Float as f64, f64 => Float as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<&String> for FieldValue {
    fn from(v: &String) -> FieldValue {
        FieldValue::Str(v.clone())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// Field list attached to a span or event (keys come from `stringify!`, so
/// they are static).
pub type Fields = Vec<(&'static str, FieldValue)>;

/// Escapes `s` as a JSON string literal (with the surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn append_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::Str(s) => out.push_str(&json_string(s)),
        FieldValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        FieldValue::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        FieldValue::Float(f) => out.push_str(&crate::metrics::fmt_f64(*f)),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn now_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// Serializes one event line per the schema in the crate docs; `ts_us`
/// defaults to the wall clock now, but trace-anchored emitters
/// ([`emit_span_at`]) pass an exact timestamp instead.
fn render_line(
    kind: &str,
    path: &str,
    fields: &Fields,
    dur_us: Option<f64>,
    ts_us: Option<u64>,
) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"ts_us\":{},\"kind\":\"{kind}\",\"path\":{}",
        ts_us.unwrap_or_else(now_us),
        json_string(path)
    );
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        append_field_value(&mut out, v);
    }
    out.push('}');
    if let Some(d) = dur_us {
        let _ = write!(out, ",\"dur_us\":{}", crate::metrics::fmt_f64(d.max(0.0)));
    }
    out.push('}');
    out
}

/// Emits a point event immediately (no duration). Prefer the
/// [`event!`](crate::event) macro, which skips field construction when obs
/// is disabled.
pub fn emit_event(path: &'static str, fields: Fields) {
    if !sink_enabled() {
        return;
    }
    write_line(render_line("event", path, &fields, None, None), false);
}

/// Emits a completed span line with an explicit end timestamp (`ts_us`,
/// µs since the UNIX epoch) and duration (`dur_us`, µs), bypassing the
/// RAII clock.
///
/// This is the export path for trace-anchored stage spans (the serving
/// scheduler derives both values arithmetically from one
/// [`TraceCtx`](crate::trace::TraceCtx) anchor so a trace's spans nest
/// exactly). Unlike a dropped [`Span`], no `span.<path>` histogram is
/// recorded in the global registry — callers of this API own their
/// metrics. No-op unless capture is [`enabled`].
pub fn emit_span_at(path: &str, fields: Fields, ts_us: u64, dur_us: f64) {
    if !enabled() {
        return;
    }
    write_line(render_line("span", path, &fields, Some(dur_us.max(0.0)), Some(ts_us)), true);
}

struct ActiveSpan {
    path: &'static str,
    fields: Fields,
    start: Instant,
}

/// An RAII timing span; see the [`span!`](crate::span) macro.
///
/// When obs is disabled the guard is inert: no clock read, no fields, no
/// emission on drop.
pub struct Span(Option<ActiveSpan>);

impl Span {
    /// Starts a span (checks [`enabled`] itself; the macro pre-checks to
    /// avoid building `fields` needlessly).
    pub fn enter(path: &'static str, fields: Fields) -> Span {
        if !enabled() {
            return Span(None);
        }
        Span(Some(ActiveSpan { path, fields, start: Instant::now() }))
    }

    /// An inert span (what `span!` yields when obs is disabled).
    pub fn disabled() -> Span {
        Span(None)
    }

    /// Attaches a field after creation (results computed inside the span).
    /// No-op on an inert span.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(s) = &mut self.0 {
            s.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.0.take() else { return };
        let elapsed = s.start.elapsed();
        crate::metrics::global().histogram(&format!("span.{}", s.path)).record_duration(elapsed);
        write_line(
            render_line("span", s.path, &s.fields, Some(elapsed.as_secs_f64() * 1e6), None),
            true,
        );
    }
}

/// Opens a timing [`Span`](crate::Span) with a static path and optional
/// `{key: value}` fields.
///
/// ```
/// let mut sp = lightts_obs::span!("aed.epoch", { dataset: "Adiac", trial: 3usize });
/// // … work …
/// sp.record("loss", 0.25f32);
/// // emits on drop
/// ```
///
/// Field expressions are **not evaluated** when obs is disabled.
#[macro_export]
macro_rules! span {
    ($path:expr) => {
        $crate::Span::enter($path, ::std::vec::Vec::new())
    };
    ($path:expr, { $($k:ident : $v:expr),* $(,)? }) => {
        if $crate::enabled() {
            $crate::Span::enter(
                $path,
                ::std::vec![$((stringify!($k), $crate::FieldValue::from($v))),*],
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Emits a point-in-time structured event with optional `{key: value}`
/// fields.
///
/// ```
/// lightts_obs::event!("bench.cell", { dataset: "Adiac", acc: 0.81f64 });
/// ```
///
/// Field expressions are **not evaluated** when obs is disabled.
#[macro_export]
macro_rules! event {
    ($path:expr) => {
        $crate::emit_event($path, ::std::vec::Vec::new())
    };
    ($path:expr, { $($k:ident : $v:expr),* $(,)? }) => {
        if $crate::enabled() {
            $crate::emit_event(
                $path,
                ::std::vec![$((stringify!($k), $crate::FieldValue::from($v))),*],
            );
        }
    };
}

#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests across modules that mutate the global sink/ring state.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global sink/enabled state.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_mode_emits_nothing_and_skips_field_evaluation() {
        let _g = guard();
        set_sink(SinkTarget::Off);
        let before = events_emitted();
        let mut evaluated = false;
        {
            let mut sp = crate::span!("test.disabled", {
                expensive: {
                    evaluated = true;
                    "value"
                }
            });
            sp.record("late", 1u64);
            crate::event!("test.disabled_event", { x: 1u64 });
        }
        assert!(!evaluated, "field expressions must not run when disabled");
        assert_eq!(events_emitted(), before, "disabled mode wrote an event");
    }

    #[test]
    fn memory_sink_captures_span_and_event_lines() {
        let _g = guard();
        set_sink(SinkTarget::Memory);
        take_memory();
        {
            let mut sp = crate::span!("test.span", { dataset: "Adiac", trial: 3usize });
            sp.record("loss", 0.5f32);
        }
        crate::event!("test.event", { ok: true, n: -2i64 });
        let lines = take_memory();
        set_sink(SinkTarget::Off);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"span\""), "{}", lines[0]);
        assert!(lines[0].contains("\"path\":\"test.span\""), "{}", lines[0]);
        assert!(lines[0].contains("\"dataset\":\"Adiac\""), "{}", lines[0]);
        assert!(lines[0].contains("\"loss\":0.5"), "{}", lines[0]);
        assert!(lines[0].contains("\"dur_us\":"), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\":\"event\""), "{}", lines[1]);
        assert!(!lines[1].contains("dur_us"), "{}", lines[1]);
        for l in &lines {
            crate::jsonl::validate_event_line(l).expect("schema-valid line");
        }
    }

    #[test]
    fn span_durations_land_in_global_histogram() {
        let _g = guard();
        set_sink(SinkTarget::Memory);
        take_memory();
        {
            let _sp = crate::span!("test.timed");
        }
        take_memory();
        set_sink(SinkTarget::Off);
        let snap = crate::metrics::global().snapshot();
        let h = snap.histogram("span.test.timed").expect("span histogram registered");
        assert!(h.count >= 1);
    }

    #[test]
    fn ring_captures_spans_without_a_sink() {
        let _g = guard();
        set_sink(SinkTarget::Off);
        crate::trace::enable_ring(8);
        let before = events_emitted();
        {
            let _sp = crate::span!("test.ring_only", { n: 1u64 });
        }
        crate::event!("test.ring_only_event", { n: 2u64 });
        let lines = crate::trace::tracez_lines();
        crate::trace::disable_ring();
        assert_eq!(events_emitted(), before, "ring-only capture must not count as sink emission");
        assert_eq!(lines.len(), 1, "ring holds the span but not the event: {lines:?}");
        assert!(lines[0].contains("\"path\":\"test.ring_only\""), "{}", lines[0]);
        crate::jsonl::validate_event_line(&lines[0]).expect("ring line is schema-valid");
    }

    #[test]
    fn emit_span_at_uses_the_given_timestamp() {
        let _g = guard();
        set_sink(SinkTarget::Memory);
        take_memory();
        emit_span_at("test.at", vec![("trace_id", FieldValue::UInt(7))], 1_234_567, 42.5);
        let lines = take_memory();
        set_sink(SinkTarget::Off);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"ts_us\":1234567"), "{}", lines[0]);
        assert!(lines[0].contains("\"dur_us\":42.5"), "{}", lines[0]);
        crate::jsonl::validate_event_line(&lines[0]).unwrap();
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn file_sink_appends_lines() {
        let _g = guard();
        let path =
            std::env::temp_dir().join(format!("lightts-obs-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        set_sink(SinkTarget::File(path.clone()));
        crate::event!("test.file", { n: 7u64 });
        set_sink(SinkTarget::Off); // drops the file handle
        let body = std::fs::read_to_string(&path).expect("file written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(body.lines().count(), 1);
        crate::jsonl::validate_event_line(body.lines().next().unwrap()).unwrap();
    }
}
