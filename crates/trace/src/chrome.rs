//! Deterministic Chrome trace-event JSON.
//!
//! The [trace-event format] is the lingua franca of timeline viewers:
//! [Perfetto] and `chrome://tracing` both load it directly. A
//! [`ChromeTrace`] is an ordered list of [`TraceEvent`]s — duration
//! ("complete") spans, instants, counter samples and track-naming
//! metadata — serialized by [`ChromeTrace::to_json_string`] with a
//! hand-rolled writer so the byte output is a pure function of the event
//! list: no map iteration order, no platform float formatting quirks, no
//! serializer version drift. Same seed, same bytes.
//!
//! Timestamps are simulation time. The wire format counts microseconds;
//! [`SimTime`]'s integer nanoseconds are printed as `micros.nnn` with
//! exactly three fractional digits, so nanosecond precision survives
//! without ever constructing a float.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use hpcqc_metrics::gantt::GanttRecorder;
use hpcqc_simcore::time::SimTime;
use std::borrow::Cow;
use std::fmt::Write as _;

/// The trace-event `ph` (phase) discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// `"X"` — a complete duration span (`ts` + `dur`).
    Complete,
    /// `"i"` — a zero-duration instant (thread-scoped).
    Instant,
    /// `"C"` — a counter sample; the viewer draws a stacked area track.
    Counter,
    /// `"M"` — metadata (process/thread naming).
    Metadata,
    /// `"s"` — the start of a flow arrow (causal link between tracks).
    FlowStart,
    /// `"f"` — the end of a flow arrow; written with `"bp":"e"` so the
    /// arrow binds to the enclosing slice rather than the next one.
    FlowFinish,
}

impl EventPhase {
    /// The single-character wire code.
    pub fn code(self) -> &'static str {
        match self {
            EventPhase::Complete => "X",
            EventPhase::Instant => "i",
            EventPhase::Counter => "C",
            EventPhase::Metadata => "M",
            EventPhase::FlowStart => "s",
            EventPhase::FlowFinish => "f",
        }
    }
}

/// A typed argument value attached to an event's `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float, serialized via Rust's shortest round-trip `Display`
    /// (deterministic for identical bits).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string (JSON-escaped on write). `Cow` keeps static labels
    /// allocation-free on the hot recording path.
    Str(Cow<'static, str>),
}

impl ArgValue {
    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) => write_json_f64(out, *v),
            ArgValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Str(v) => write_json_str(out, v),
        }
    }
}

/// An event's `args` payload.
///
/// Most events carry zero or one argument; keeping those inline makes
/// the hot recording path (counter samples, instants) allocation-free.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum EventArgs {
    /// No `args` object is written.
    #[default]
    None,
    /// A single `{key: value}` pair, stored inline.
    Single((&'static str, ArgValue)),
    /// A general key-value list, written in order.
    List(Vec<(&'static str, ArgValue)>),
}

impl EventArgs {
    /// A one-pair payload without a backing allocation.
    pub fn single(key: &'static str, value: ArgValue) -> Self {
        EventArgs::Single((key, value))
    }

    /// `true` if no `args` object will be written.
    pub fn is_empty(&self) -> bool {
        matches!(self, EventArgs::None)
    }

    /// The pairs in write order.
    pub fn as_slice(&self) -> &[(&'static str, ArgValue)] {
        match self {
            EventArgs::None => &[],
            EventArgs::Single(pair) => std::slice::from_ref(pair),
            EventArgs::List(pairs) => pairs.as_slice(),
        }
    }

    /// Mutable access to the first value, if any.
    fn first_value_mut(&mut self) -> Option<&mut ArgValue> {
        match self {
            EventArgs::None => None,
            EventArgs::Single((_, value)) => Some(value),
            EventArgs::List(pairs) => pairs.first_mut().map(|(_, v)| v),
        }
    }
}

impl From<Vec<(&'static str, ArgValue)>> for EventArgs {
    fn from(mut pairs: Vec<(&'static str, ArgValue)>) -> Self {
        if pairs.len() > 1 {
            return EventArgs::List(pairs);
        }
        match pairs.pop() {
            Some(pair) => EventArgs::Single(pair),
            None => EventArgs::None,
        }
    }
}

/// One event on the trace timeline.
///
/// `pid`/`tid` place the event on a track: viewers group threads (`tid`)
/// under processes (`pid`), and [`ChromeTrace::process_name`] /
/// [`ChromeTrace::thread_name`] metadata give the groups human labels.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span label, counter track name, or metadata kind).
    /// Borrowed for the many static labels, owned for per-job names.
    pub name: Cow<'static, str>,
    /// Category tag (comma-separated in the wire format; used for
    /// filtering in viewers).
    pub cat: &'static str,
    /// Event kind.
    pub ph: EventPhase,
    /// Timestamp in simulation nanoseconds.
    pub ts_ns: u64,
    /// Span length in nanoseconds (complete events only).
    pub dur_ns: Option<u64>,
    /// Process-track id.
    pub pid: u32,
    /// Thread-track id within the process.
    pub tid: u32,
    /// Flow-binding id: events with the same id are joined by an arrow
    /// in the viewer (flow events only; `None` elsewhere).
    pub id: Option<u64>,
    /// `args` payload, written in the given order (keys are static by
    /// construction — every producer names its fields at compile time).
    pub args: EventArgs,
}

/// An in-memory trace: an append-only event list plus the deterministic
/// serializer.
///
/// # Examples
///
/// ```
/// use hpcqc_trace::chrome::ChromeTrace;
/// use hpcqc_simcore::time::SimTime;
///
/// let mut trace = ChromeTrace::new();
/// trace.process_name(1, "scheduler");
/// trace.counter("queue_depth", SimTime::from_secs(5), 1, 3.0);
/// let json = trace.to_json_string();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"queue_depth\""));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Creates an empty trace with room for `capacity` events (skips the
    /// early growth reallocations on known-busy recordings).
    pub fn with_capacity(capacity: usize) -> Self {
        ChromeTrace {
            events: Vec::with_capacity(capacity),
        }
    }

    /// Appends a raw event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in append order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names the process track `pid` (metadata event).
    pub fn process_name(&mut self, pid: u32, name: impl Into<Cow<'static, str>>) {
        self.events.push(TraceEvent {
            name: Cow::Borrowed("process_name"),
            cat: "__metadata",
            ph: EventPhase::Metadata,
            ts_ns: 0,
            dur_ns: None,
            pid,
            tid: 0,
            id: None,
            args: EventArgs::single("name", ArgValue::Str(name.into())),
        });
    }

    /// Names the thread track `pid:tid` (metadata event).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: impl Into<Cow<'static, str>>) {
        self.events.push(TraceEvent {
            name: Cow::Borrowed("thread_name"),
            cat: "__metadata",
            ph: EventPhase::Metadata,
            ts_ns: 0,
            dur_ns: None,
            pid,
            tid,
            id: None,
            args: EventArgs::single("name", ArgValue::Str(name.into())),
        });
    }

    /// Appends a complete span covering `[start, start + dur)`.
    // Seven operands is what a trace-event span *is* (name, cat, window,
    // track, args); bundling them into a struct would just rename the
    // argument list.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        start: SimTime,
        dur_ns: u64,
        pid: u32,
        tid: u32,
        args: impl Into<EventArgs>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            ph: EventPhase::Complete,
            ts_ns: start.as_nanos(),
            dur_ns: Some(dur_ns),
            pid,
            tid,
            id: None,
            args: args.into(),
        });
    }

    /// Appends a thread-scoped instant event.
    pub fn instant(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        at: SimTime,
        pid: u32,
        tid: u32,
        args: impl Into<EventArgs>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            ph: EventPhase::Instant,
            ts_ns: at.as_nanos(),
            dur_ns: None,
            pid,
            tid,
            id: None,
            args: args.into(),
        });
    }

    /// Appends the start of a flow arrow with binding id `id`. Place it
    /// at the timestamp (and on the track) of the causing slice.
    pub fn flow_start(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        at: SimTime,
        pid: u32,
        tid: u32,
        id: u64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            ph: EventPhase::FlowStart,
            ts_ns: at.as_nanos(),
            dur_ns: None,
            pid,
            tid,
            id: Some(id),
            args: EventArgs::None,
        });
    }

    /// Appends the end of the flow arrow with binding id `id`. Place it
    /// inside the caused slice; `"bp":"e"` makes the viewer bind the
    /// arrow to that enclosing slice.
    pub fn flow_finish(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        at: SimTime,
        pid: u32,
        tid: u32,
        id: u64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            ph: EventPhase::FlowFinish,
            ts_ns: at.as_nanos(),
            dur_ns: None,
            pid,
            tid,
            id: Some(id),
            args: EventArgs::None,
        });
    }

    /// Appends a counter sample on the track named `name` under `pid`.
    pub fn counter(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        at: SimTime,
        pid: u32,
        value: f64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat: "counter",
            ph: EventPhase::Counter,
            ts_ns: at.as_nanos(),
            dur_ns: None,
            pid,
            tid: 0,
            id: None,
            args: EventArgs::single("value", ArgValue::F64(value)),
        });
    }

    /// Rewrites the value of the counter event at `index` (crate-internal:
    /// lets the observer coalesce same-timestamp samples in place).
    pub(crate) fn set_counter_value(&mut self, index: usize, value: f64) {
        if let Some(ev) = self.events.get_mut(index) {
            if let Some(slot) = ev.args.first_value_mut() {
                *slot = ArgValue::F64(value);
            }
        }
    }

    /// Converts a recorded [`GanttRecorder`] into a trace: one thread
    /// track per lane (lane name order, which is the recorder's own
    /// ordering), one complete span per interval, named by the interval
    /// tag.
    ///
    /// This is the compatibility bridge that keeps Gantt output and the
    /// trace model from drifting apart: anything the ASCII Gantt can show
    /// loads in Perfetto too.
    pub fn from_gantt(gantt: &GanttRecorder) -> Self {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, "gantt");
        let lanes: Vec<&str> = gantt.lanes().collect();
        for (tid, lane) in lanes.iter().enumerate() {
            let tid = tid as u32;
            trace.thread_name(1, tid, lane.to_string());
            for iv in gantt.intervals(lane) {
                let tag = if iv.tag == "=" {
                    Cow::Borrowed("recalibration")
                } else {
                    Cow::Owned(iv.tag.clone())
                };
                trace.complete(
                    tag,
                    "gantt",
                    iv.start,
                    iv.end.since(iv.start).as_nanos(),
                    1,
                    tid,
                    EventArgs::None,
                );
            }
        }
        trace
    }

    /// Serializes the trace as a JSON object (`{"traceEvents": [...]}`)
    /// byte-deterministically: output depends only on the event list.
    pub fn to_json_string(&self) -> String {
        // ~140 bytes per event is a comfortable overestimate.
        let mut out = String::with_capacity(64 + self.events.len() * 140);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_event(&mut out, ev);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"name\":");
    write_json_str(out, &ev.name);
    out.push_str(",\"cat\":");
    write_json_str(out, ev.cat);
    let _ = write!(out, ",\"ph\":\"{}\",\"ts\":", ev.ph.code());
    write_micros(out, ev.ts_ns);
    if let Some(dur) = ev.dur_ns {
        out.push_str(",\"dur\":");
        write_micros(out, dur);
    }
    if ev.ph == EventPhase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    if let Some(id) = ev.id {
        let _ = write!(out, ",\"id\":{id}");
    }
    if ev.ph == EventPhase::FlowFinish {
        out.push_str(",\"bp\":\"e\"");
    }
    let _ = write!(out, ",\"pid\":{},\"tid\":{}", ev.pid, ev.tid);
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (key, value)) in ev.args.as_slice().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(out, key);
            out.push(':');
            value.write_json(out);
        }
        out.push('}');
    }
    out.push('}');
}

/// Writes `ns` nanoseconds as microseconds with exactly three fractional
/// digits (`12.345`), preserving full precision with pure integer math.
fn write_micros(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // `Display` omits the fraction for integral floats; keep the
        // output unambiguously a JSON number-with-fraction is not
        // required, bare integers are valid JSON too.
    } else {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out.push_str("null");
    }
}

/// Strictly validates that `s` is one complete JSON value (RFC 8259
/// syntax: objects, arrays, strings, numbers, booleans, null).
///
/// The vendored `serde_json` parser is lenient: it accepts raw control
/// characters inside strings, which RFC 8259 forbids. This checker
/// rejects them, so it is what the tests and the CI `trace-smoke` step
/// use to assert that emitted traces parse.
///
/// # Errors
///
/// Returns a byte offset + message for the first syntax error.
pub fn check_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    check_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn check_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => check_object(b, pos),
        Some(b'[') => check_array(b, pos),
        Some(b'"') => check_string(b, pos),
        Some(b't') => check_literal(b, pos, "true"),
        Some(b'f') => check_literal(b, pos, "false"),
        Some(b'n') => check_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => check_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos:?}")),
        None => Err("unexpected end of input".to_string()),
    }
}

fn check_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        check_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        check_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn check_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        check_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn check_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos:?}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6).unwrap_or(&[]);
                    if hex.len() != 4 || !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos:?}"));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos:?}")),
            },
            0x00..=0x1f => return Err(format!("raw control character at byte {pos:?}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn check_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}

fn check_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("expected digits at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("expected fraction digits at byte {pos:?}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("expected exponent digits at byte {pos:?}"));
        }
    }
    Ok(())
}

fn write_json_str(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_simcore::time::SimDuration;

    #[test]
    fn micros_format_keeps_nanosecond_precision() {
        let mut s = String::new();
        write_micros(&mut s, 12_345);
        assert_eq!(s, "12.345");
        s.clear();
        write_micros(&mut s, 1_000_000_007);
        assert_eq!(s, "1000000.007");
        s.clear();
        write_micros(&mut s, 0);
        assert_eq!(s, "0.000");
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        write_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut s = String::new();
        write_json_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn serialized_trace_is_valid_json() {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, "p \"quoted\"");
        trace.thread_name(1, 2, "t");
        trace.complete(
            "span",
            "cat",
            SimTime::from_secs(1),
            500,
            1,
            2,
            vec![
                ("n", ArgValue::U64(3)),
                ("ok", ArgValue::Bool(true)),
                ("w", ArgValue::F64(1.5)),
            ],
        );
        trace.instant("inst", "cat", SimTime::from_secs(2), 1, 2, Vec::new());
        trace.counter("depth", SimTime::from_secs(3), 1, 4.0);
        let json = trace.to_json_string();
        check_json(&json).expect("valid JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"n\":3,\"ok\":true,\"w\":1.5}"));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"args\":{\"value\":4}"));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn check_json_accepts_and_rejects() {
        check_json("{\"a\":[1,2.5,-3e2,true,null,\"x\\n\"]}").expect("valid");
        assert!(check_json("{\"a\":}").is_err());
        assert!(check_json("[1,]").is_err());
        assert!(check_json("\"unterminated").is_err());
        assert!(check_json("{} trailing").is_err());
        assert!(check_json("01abc").is_err());
    }

    /// The reason `check_json` exists next to the vendored parser: should
    /// `serde_json` ever reject this string, the validator can go.
    #[test]
    fn check_json_is_stricter_than_the_vendored_parser() {
        let raw_control = "\"a\u{1}b\"";
        assert!(check_json(raw_control).is_err());
        assert!(serde_json::from_str::<serde::Value>(raw_control).is_ok());
    }

    #[test]
    fn from_gantt_maps_lanes_to_threads() {
        let mut g = GanttRecorder::new();
        g.record(
            "qpu0",
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            "vqe-0",
        );
        g.record("qpu0", SimTime::from_secs(20), SimTime::from_secs(25), "=");
        g.record("job:vqe-0", SimTime::ZERO, SimTime::from_secs(10), "c");
        let trace = ChromeTrace::from_gantt(&g);
        // 1 process_name + 2 thread_name + 3 spans.
        assert_eq!(trace.len(), 6);
        let spans: Vec<&TraceEvent> = trace
            .events()
            .iter()
            .filter(|e| e.ph == EventPhase::Complete)
            .collect();
        assert_eq!(spans.len(), 3);
        // Lanes come out in GanttRecorder name order: job:vqe-0 then qpu0.
        assert_eq!(spans[0].name, "c");
        assert_eq!(spans[1].name, "vqe-0");
        assert_eq!(spans[1].ts_ns, SimTime::from_secs(10).as_nanos());
        assert_eq!(spans[1].dur_ns, Some(SimDuration::from_secs(10).as_nanos()));
        assert_eq!(spans[2].name, "recalibration");
    }

    #[test]
    fn flow_events_carry_id_and_binding_point() {
        let mut trace = ChromeTrace::new();
        trace.flow_start("link", "flow", SimTime::from_secs(1), 1, 2, 7);
        trace.flow_finish("link", "flow", SimTime::from_secs(2), 1, 3, 7);
        let json = trace.to_json_string();
        check_json(&json).expect("valid JSON");
        assert!(json.contains("\"ph\":\"s\",\"ts\":1000000.000,\"id\":7"));
        assert!(json.contains("\"ph\":\"f\",\"ts\":2000000.000,\"id\":7,\"bp\":\"e\""));
    }

    #[test]
    fn serialization_is_a_pure_function_of_events() {
        let build = || {
            let mut t = ChromeTrace::new();
            t.process_name(1, "p");
            t.counter("c", SimTime::from_secs(1), 1, 2.5);
            t.to_json_string()
        };
        assert_eq!(build(), build());
    }
}
