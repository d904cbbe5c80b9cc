//! The benchmark's own in-memory spans: recorded around the calls it
//! makes into each layer's public functions, kept in memory during the
//! traced run, and written out as Chrome trace-event JSON at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// Spans of one request share a trace id.
    pub trace: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are unique across recorders that share
/// an origin but have distinct lanes.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    lane: u32,
    next: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, lane: u32) -> Recorder {
        Recorder {
            origin,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserve an id, so children recorded first can name their parent.
    pub fn reserve(&mut self) -> u32 {
        self.next += 1;
        (self.lane << 24) | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        id: u32,
        trace: u64,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        trace: u64,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.reserve();
        let start = Instant::now();
        let out = f();
        self.record(id, trace, parent, name, start, Instant::now());
        out
    }
}

/// Per span name: total self time (duration minus the part its children
/// cover) in nanoseconds, and the number of spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u128, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u128, u64)> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += u128::from(own);
        e.1 += 1;
    }
    out
}

/// Mean self time of spans named `name`, in microseconds (0 if none).
pub fn mean_self_us(times: &BTreeMap<&'static str, (u128, u64)>, name: &str) -> f64 {
    match times.get(name) {
        Some(&(ns, n)) if n > 0 => ns as f64 / n as f64 / 1e3,
        _ => 0.0,
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"trace\":{},\"id\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.id >> 24,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.trace,
            s.id,
            s.parent.map_or(-1, i64::from),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin, 1);
        let root = r.reserve();
        let child = r.reserve();
        let at = |us| origin + Duration::from_micros(us);
        r.record(child, 7, Some(root), "child", at(10), at(40));
        r.record(root, 7, None, "root", at(0), at(100));
        let t = self_times(&r.spans);
        assert_eq!(t["root"], (70_000, 1));
        assert_eq!(t["child"], (30_000, 1));
        assert!((mean_self_us(&t, "root") - 70.0).abs() < 1e-9);
        assert!(chrome_json(&r.spans).contains("\"name\":\"child\""));
    }
}
