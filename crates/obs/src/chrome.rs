//! Chrome Trace Event Format export of the timeline — the JSON object
//! format (`{"traceEvents": [...]}`) with one complete (`"ph": "X"`) event
//! per closed span, loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! Mapping: `ts`/`dur` are microseconds (floats, so nanosecond precision
//! survives), `pid` is always 1 (one process), `tid` is the recorder's
//! small sequential thread id, and each event's `args` carry the span id,
//! the parent span id, and any free-form span arguments — Perfetto shows
//! them in the detail pane, which is how the span *tree* stays navigable
//! even though the track layout is per-thread.

use crate::json::{escape, Json};
use crate::timeline::{TimelineEvent, TimelineSnapshot};
use crate::Snapshot;

/// Renders one timeline event as a Chrome `"X"` (complete) trace event.
fn render_event(
    name: &str,
    tid: u64,
    start_ns: f64,
    dur_ns: f64,
    id: u64,
    parent: u64,
    detail: Option<&str>,
) -> String {
    let detail_field = match detail {
        Some(d) => format!(", \"detail\": \"{}\"", escape(d)),
        None => String::new(),
    };
    format!(
        "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
         \"ts\": {:.3}, \"dur\": {:.3}, \
         \"args\": {{\"id\": {}, \"parent\": {}{}}}}}",
        escape(name),
        tid,
        start_ns / 1e3,
        dur_ns / 1e3,
        id,
        parent,
        detail_field,
    )
}

fn render_trace(events: &[String], dropped: u64) -> String {
    let mut out = String::from("{\n\"displayTimeUnit\": \"ns\",\n");
    out.push_str(&format!(
        "\"otherData\": {{\"generator\": \"sjpl-obs\", \"dropped_events\": {dropped}}},\n"
    ));
    out.push_str("\"traceEvents\": [\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]\n}\n");
    out
}

/// Renders a [`TimelineSnapshot`] as a Chrome trace document.
pub fn timeline_to_chrome(tl: &TimelineSnapshot) -> String {
    let events: Vec<String> = tl
        .events
        .iter()
        .map(|e: &TimelineEvent| {
            render_event(
                e.name,
                e.tid,
                e.start_ns as f64,
                e.dur_ns as f64,
                e.id,
                e.parent,
                e.args.as_deref(),
            )
        })
        .collect();
    render_trace(&events, tl.dropped_events)
}

impl Snapshot {
    /// Renders this snapshot's timeline as a Chrome trace document
    /// (Perfetto / `chrome://tracing` compatible).
    pub fn to_chrome_trace(&self) -> String {
        timeline_to_chrome(&self.timeline)
    }
}

/// Converts a saved snapshot JSON document, schema 2 or newer (as written by
/// `--obs-out` / `--trace=json`) into a Chrome trace document — the
/// offline path behind `sjpl trace-export`.
pub fn snapshot_json_to_chrome(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("snapshot parse error: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_f64)
        .ok_or("not a snapshot: missing \"schema\"")?;
    if schema < 2.0 {
        return Err(format!(
            "snapshot schema {schema} has no timeline section (need schema >= 2); \
             re-record with the current build"
        ));
    }
    let timeline = doc
        .get("timeline")
        .ok_or("snapshot has no \"timeline\" section")?;
    let dropped = timeline
        .get("dropped_events")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    let mut events = Vec::new();
    for ev in timeline
        .get("events")
        .and_then(Json::as_array)
        .ok_or("timeline has no \"events\" array")?
    {
        let num = |k: &str| ev.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        events.push(render_event(
            ev.get("name").and_then(Json::as_str).unwrap_or("?"),
            num("tid") as u64,
            num("start_ns"),
            num("dur_ns"),
            num("id") as u64,
            num("parent") as u64,
            ev.get("args").and_then(Json::as_str),
        ));
    }
    Ok(render_trace(&events, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_timeline() -> TimelineSnapshot {
        TimelineSnapshot {
            events: vec![
                TimelineEvent {
                    id: 1,
                    parent: 0,
                    tid: 1,
                    name: "root",
                    start_ns: 1_000,
                    dur_ns: 9_000,
                    args: Some("points=42".into()),
                },
                TimelineEvent {
                    id: 2,
                    parent: 1,
                    tid: 2,
                    name: "worker \"a\"",
                    start_ns: 2_000,
                    dur_ns: 3_000,
                    args: None,
                },
            ],
            dropped_events: 7,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_x_events() {
        let trace = timeline_to_chrome(&sample_timeline());
        let doc = Json::parse(&trace).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let root = &events[0];
        assert_eq!(root.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(root.get("ts").unwrap().as_f64(), Some(1.0)); // µs
        assert_eq!(root.get("dur").unwrap().as_f64(), Some(9.0));
        assert_eq!(
            root.get("args").unwrap().get("detail").unwrap().as_str(),
            Some("points=42")
        );
        // The quoted worker name survives escaping.
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("worker \"a\"")
        );
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            doc.get("otherData")
                .unwrap()
                .get("dropped_events")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
    }
}
