//! The benchmark's own spans: recorded in memory around each call it
//! makes into a layer, written as one Chrome-trace JSON document (open
//! it in `chrome://tracing` or Perfetto) when the run ends.

use std::time::{Duration, Instant};

use serde_json::{Map, Value};

/// Process lanes of the trace.
pub const PID_CLIENT: u64 = 1;
pub const PID_LAYERS: u64 = 2;

/// One closed span. `parent` names the span that caused it; spans of one
/// request share the request span's id as their root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub pid: u64,
    pub tid: u64,
    pub start: Instant,
    pub dur: Duration,
    pub args: Vec<(&'static str, String)>,
}

/// A per-thread span buffer; ids are unique across buffers because each
/// buffer owns the id range starting at `(pid << 8 | tid) << 40`.
#[derive(Debug)]
pub struct Recorder {
    pid: u64,
    tid: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(pid: u64, tid: u64) -> Recorder {
        Recorder { pid, tid, next: ((pid << 8 | tid) << 40) + 1, spans: Vec::new() }
    }

    /// Reserves an id for a span that will be closed later.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    pub fn close(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        args: Vec<(&'static str, String)>,
    ) {
        let dur = start.elapsed();
        self.spans.push(Span { id, parent, name, pid: self.pid, tid: self.tid, start, dur, args });
    }

    /// Records a finished span in one call and returns its id.
    pub fn record(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        args: Vec<(&'static str, String)>,
    ) -> u64 {
        let id = self.open();
        self.close(id, parent, name, start, args);
        id
    }
}

/// Renders `spans` as a Chrome-trace document, timestamps relative to
/// `epoch`.
pub fn chrome_json(epoch: Instant, spans: &[Span]) -> String {
    let mut events = Vec::with_capacity(spans.len() + 2);
    for (pid, name) in [(PID_CLIENT, "cfload client"), (PID_LAYERS, "in-process layers")] {
        let mut args = Map::new();
        args.insert("name", name);
        let mut m = Map::new();
        m.insert("name", "process_name");
        m.insert("ph", "M");
        m.insert("pid", pid);
        m.insert("args", args);
        events.push(Value::Object(m));
    }
    for s in spans {
        let mut args = Map::new();
        args.insert("id", format!("{:x}", s.id));
        if let Some(p) = s.parent {
            args.insert("parent", format!("{p:x}"));
        }
        for (k, v) in &s.args {
            args.insert(*k, v.clone());
        }
        let mut m = Map::new();
        m.insert("name", s.name);
        m.insert("ph", "X");
        m.insert("ts", s.start.saturating_duration_since(epoch).as_secs_f64() * 1e6);
        m.insert("dur", s.dur.as_secs_f64() * 1e6);
        m.insert("pid", s.pid);
        m.insert("tid", s.tid);
        m.insert("args", args);
        events.push(Value::Object(m));
    }
    let mut doc = Map::new();
    doc.insert("traceEvents", Value::Array(events));
    doc.insert("displayTimeUnit", "ms");
    Value::Object(doc).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_document_parses_and_links_children_to_parents() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(PID_CLIENT, 3);
        let root = rec.open();
        let child =
            rec.record(Some(root), "submit", Instant::now(), vec![("status", "202".into())]);
        rec.close(root, None, "request", epoch, Vec::new());
        assert_ne!(root, child);
        let doc = serde_json::from_str(&chrome_json(epoch, &rec.spans)).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 4);
        let submit =
            events.iter().find(|e| e.get("name").and_then(|n| n.as_str()) == Some("submit"));
        let args = submit.and_then(|e| e.get("args")).unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_str()), Some(format!("{root:x}").as_str()));
    }
}
