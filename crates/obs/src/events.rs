//! Structured audit events — the third observability layer.
//!
//! The first two layers answer *how much* (aggregated counters/spans,
//! [`crate::StatsRecorder`]) and *when* (the event-level timeline,
//! [`crate::TraceRecorder`]). This layer answers *who and why*: each
//! [`Event`] is a named, leveled record with key-value fields, built for
//! the §6 requirement that exceptional information stay "explicitly
//! marked and retrievable" — e.g. one record per run-time constraint
//! check naming the object, the verdict, and the excuse that admitted a
//! deviation.
//!
//! Events flow through the same [`Recorder`] plumbing as counters and
//! spans (the trait method defaults to a no-op, so numeric recorders
//! ignore the stream), and [`AuditRecorder`] is the batteries-included
//! sink: a bounded ring that keeps the most recent events and renders
//! them as JSON lines via [`crate::json`]. It is also the one in-tree
//! sink that keeps events ([`crate::Kind::Event`]), so
//! [`crate::event_with`] delivers an event, and builds its fields, only
//! while an `AuditRecorder` keeping its level is installed.
//!
//! ```
//! use std::sync::Arc;
//! use chc_obs::{self as obs, AuditRecorder, Event, EventLevel};
//!
//! let audit = Arc::new(AuditRecorder::new());
//! {
//!     let _scope = obs::scoped(audit.clone());
//!     obs::event_with(EventLevel::Audit, "demo.check", |ev| {
//!         ev.field("object", 7u64).field("verdict", "excused")
//!     });
//! }
//! assert_eq!(audit.len(), 1);
//! assert!(audit.to_json_lines().contains("\"verdict\":\"excused\""));
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::JsonValue;
use crate::{Kind, Recorder};

/// How important a structured event is. Ordered: `Debug < Info < Audit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventLevel {
    /// Diagnostic chatter; off by default in every sink.
    Debug,
    /// Notable milestones of a run (a file loaded, a phase finished).
    Info,
    /// Ledger records that must survive for after-the-fact review — one
    /// per decision the reasoner made about user data.
    Audit,
}

impl EventLevel {
    /// Every level, lowest first.
    pub const ALL: [EventLevel; 3] = [EventLevel::Debug, EventLevel::Info, EventLevel::Audit];

    /// The lowercase label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            EventLevel::Debug => "debug",
            EventLevel::Info => "info",
            EventLevel::Audit => "audit",
        }
    }
}

/// One field value of a structured event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string payload (names are resolved by the emitter; sinks never
    /// see interned symbols).
    Str(String),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (object surrogates, counts).
    UInt(u64),
}

impl FieldValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a JSON number/string.
    fn to_json(&self) -> JsonValue {
        match self {
            FieldValue::Str(s) => JsonValue::string(s),
            FieldValue::Int(i) => JsonValue::number(*i as f64),
            FieldValue::UInt(u) => JsonValue::number(*u as f64),
        }
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

impl From<i64> for FieldValue {
    fn from(i: i64) -> Self {
        FieldValue::Int(i)
    }
}

impl From<u64> for FieldValue {
    fn from(u: u64) -> Self {
        FieldValue::UInt(u)
    }
}

/// A structured, leveled event: a name plus ordered key-value fields.
///
/// The keys `event`, `level`, and `seq` are reserved for the envelope
/// written by [`AuditRecorder::to_json_lines`]; field keys must not
/// collide with them.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Importance of the event.
    pub level: EventLevel,
    /// The event name, from the [`crate::names`] registry.
    pub name: &'static str,
    /// Key-value payload, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// A new event with no fields yet.
    pub fn new(level: EventLevel, name: &'static str) -> Self {
        Event {
            level,
            name,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        debug_assert!(
            !matches!(key, "event" | "level" | "seq"),
            "field key `{key}` collides with the JSON envelope"
        );
        self.fields.push((key, value.into()));
        self
    }

    /// Looks up a field by key (first match wins).
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// This event as one flat JSON object: `{"event": name, "level":
    /// label, ...fields}`. `seq` is added by the recorder, which owns
    /// the ordering.
    pub fn to_json(&self) -> JsonValue {
        let mut out: Vec<(&str, JsonValue)> = vec![
            ("event", JsonValue::string(self.name)),
            ("level", JsonValue::string(self.level.label())),
        ];
        for (k, v) in &self.fields {
            out.push((k, v.to_json()));
        }
        JsonValue::object(out)
    }
}

/// Default number of events an [`AuditRecorder`] retains.
pub const AUDIT_DEFAULT_CAPACITY: usize = 1 << 20;

struct AuditRing {
    events: VecDeque<(u64, Event)>,
    /// Events evicted because the ring was full.
    dropped: u64,
    /// Next sequence number; survives eviction so lines stay orderable.
    seq: u64,
}

/// A bounded sink for structured events, rendering them as JSON lines.
///
/// Counters, histograms, and spans are ignored — pair it with a
/// [`crate::StatsRecorder`] or [`crate::TraceRecorder`] through a
/// [`crate::FanoutRecorder`] when both views of a run are wanted. When
/// the ring fills, the *oldest* events are dropped (the most recent
/// decisions are the ones an operator reviews), and the JSONL output
/// ends with an `audit.dropped` marker so truncation is never silent.
pub struct AuditRecorder {
    min_level: EventLevel,
    capacity: usize,
    inner: Mutex<AuditRing>,
}

impl AuditRecorder {
    /// A recorder keeping [`EventLevel::Info`] and above, with the
    /// default capacity.
    pub fn new() -> Self {
        Self::with_capacity(AUDIT_DEFAULT_CAPACITY)
    }

    /// A recorder retaining at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_level(capacity, EventLevel::Info)
    }

    /// Full control over capacity and the minimum retained level.
    pub fn with_capacity_and_level(capacity: usize, min_level: EventLevel) -> Self {
        AuditRecorder {
            min_level,
            capacity: capacity.max(1),
            inner: Mutex::new(AuditRing {
                events: VecDeque::new(),
                dropped: 0,
                seq: 0,
            }),
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("audit lock").events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("audit lock").dropped
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let inner = self.inner.lock().expect("audit lock");
        inner.events.iter().map(|(_, e)| e.clone()).collect()
    }

    /// The ledger as line-delimited JSON (one event per line, each with
    /// a monotonically increasing `seq`), ending with an
    /// `audit.dropped` marker line when events were evicted.
    pub fn to_json_lines(&self) -> String {
        let inner = self.inner.lock().expect("audit lock");
        let mut out = String::new();
        for (seq, event) in &inner.events {
            let mut obj = event.to_json();
            if let JsonValue::Obj(m) = &mut obj {
                m.insert("seq".to_string(), JsonValue::number(*seq as f64));
            }
            out.push_str(&obj.render());
            out.push('\n');
        }
        if inner.dropped > 0 {
            let marker = JsonValue::object([
                ("event", JsonValue::string("audit.dropped")),
                ("level", JsonValue::string(EventLevel::Audit.label())),
                ("count", JsonValue::number(inner.dropped as f64)),
            ]);
            out.push_str(&marker.render());
            out.push('\n');
        }
        out
    }

    /// The `chc validate --audit-summary` table over the retained
    /// [`names::EVENT_VALIDATE_CHECK`](crate::names::EVENT_VALIDATE_CHECK)
    /// records: §6 asks for "statistics about exceptional cases", so
    /// admissions are grouped by the excuse that admitted them.
    pub fn render_summary(&self) -> impl std::fmt::Display {
        use std::collections::BTreeMap;
        let mut checks = 0u64;
        let mut passed = 0u64;
        let mut violations = 0u64;
        let mut admitted: BTreeMap<[String; 4], u64> = BTreeMap::new();
        for ev in self.events() {
            if ev.name != crate::names::EVENT_VALIDATE_CHECK {
                continue;
            }
            checks += 1;
            let get = |k: &str| {
                ev.get(k)
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string()
            };
            match ev.get("verdict").and_then(|v| v.as_str()) {
                Some("pass") => passed += 1,
                Some("excused") => {
                    let site = [
                        get("excuser"),
                        get("excuse_attr"),
                        get("class"),
                        get("attr"),
                    ];
                    *admitted.entry(site).or_insert(0) += 1;
                }
                _ => violations += 1,
            }
        }
        let admitted_total: u64 = admitted.values().sum();
        let dropped = self.dropped();
        crate::display_with(move |f| {
            writeln!(
                f,
                "audit: {checks} check(s) executed — {passed} passed, \
                 {admitted_total} admitted by excuse, {violations} violation(s)"
            )?;
            for ([excuser, excuse_attr, class, attr], n) in &admitted {
                writeln!(
                    f,
                    "  `{excuser}.{excuse_attr}` excusing `{class}.{attr}`: {n}"
                )?;
            }
            if dropped > 0 {
                writeln!(
                    f,
                    "  (ring full: {dropped} older record(s) evicted; totals reflect retained events only)"
                )?;
            }
            Ok(())
        })
    }
}

impl Default for AuditRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for AuditRecorder {
    fn keeps(&self, kind: Kind) -> bool {
        matches!(kind, Kind::Event(level) if level >= self.min_level)
    }

    fn event(&self, event: &Event) {
        if event.level < self.min_level {
            return;
        }
        let mut inner = self.inner.lock().expect("audit lock");
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push_back((seq, event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(level: EventLevel, name: &'static str) -> Event {
        Event::new(level, name).field("k", "v").field("n", 3u64)
    }

    #[test]
    fn events_render_as_flat_json_with_seq() {
        let audit = AuditRecorder::new();
        audit.event(&ev(EventLevel::Audit, "t.one"));
        audit.event(&ev(EventLevel::Audit, "t.two"));
        let lines = json::parse_lines(&audit.to_json_lines()).expect("own output parses");
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].get("event").and_then(|v| v.as_str()),
            Some("t.one")
        );
        assert_eq!(
            lines[0].get("level").and_then(|v| v.as_str()),
            Some("audit")
        );
        assert_eq!(lines[0].get("k").and_then(|v| v.as_str()), Some("v"));
        assert_eq!(lines[0].get("n").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(lines[0].get("seq").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(lines[1].get("seq").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn levels_below_the_minimum_are_filtered() {
        let audit = AuditRecorder::new(); // min level Info
        audit.event(&ev(EventLevel::Debug, "t.debug"));
        audit.event(&ev(EventLevel::Info, "t.info"));
        audit.event(&ev(EventLevel::Audit, "t.audit"));
        let names: Vec<&str> = audit.events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["t.info", "t.audit"]);

        let verbose = AuditRecorder::with_capacity_and_level(8, EventLevel::Debug);
        verbose.event(&ev(EventLevel::Debug, "t.debug"));
        assert_eq!(verbose.len(), 1);
    }

    #[test]
    fn ring_is_bounded_and_truncation_is_marked() {
        let audit = AuditRecorder::with_capacity(2);
        for name in ["t.a", "t.b", "t.c"] {
            audit.event(&ev(EventLevel::Audit, name));
        }
        let names: Vec<&str> = audit.events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["t.b", "t.c"], "oldest evicted first");
        assert_eq!(audit.dropped(), 1);
        let lines = json::parse_lines(&audit.to_json_lines()).unwrap();
        let last = lines.last().unwrap();
        assert_eq!(
            last.get("event").and_then(|v| v.as_str()),
            Some("audit.dropped")
        );
        assert_eq!(last.get("count").and_then(|v| v.as_f64()), Some(1.0));
        // Sequence numbers keep counting across evictions.
        assert_eq!(lines[0].get("seq").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn emission_flows_through_the_scoped_recorder_plumbing() {
        use std::sync::Arc;
        let audit = Arc::new(AuditRecorder::new());
        {
            let _g = crate::scoped(audit.clone());
            crate::event_with(EventLevel::Audit, "t.scoped", |ev| ev.field("x", 1i64));
        }
        crate::event_with(EventLevel::Audit, "t.after", |ev| ev);
        assert_eq!(audit.len(), 1);
        assert_eq!(audit.events()[0].get("x"), Some(&FieldValue::Int(1)));
    }

    #[test]
    fn fanout_forwards_events() {
        use std::sync::Arc;
        let a = Arc::new(AuditRecorder::new());
        let b = Arc::new(AuditRecorder::new());
        let fan = crate::FanoutRecorder::new(vec![
            a.clone() as Arc<dyn Recorder>,
            b.clone() as Arc<dyn Recorder>,
        ]);
        fan.event(&ev(EventLevel::Audit, "t.fan"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
