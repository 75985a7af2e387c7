//! In-memory spans for the traced replay: name, start, end, parent span
//! and cell id (the request id), written out as JSON when the replay ends.
//! A layer's self time is its spans' durations minus the parts their child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// On-CPU time of the calling thread at open and close, when the
    /// platform exposes it.
    pub cpu_start_ns: Option<u64>,
    pub cpu_end_ns: Option<u64>,
}

impl Span {
    fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn cpu_ns(&self) -> Option<u64> {
        Some(self.cpu_end_ns?.saturating_sub(self.cpu_start_ns?))
    }
}

/// Per-layer totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub spans: u64,
    pub wall_ns: u64,
    pub self_ns: u64,
    /// `None` when thread CPU time is unavailable.
    pub self_cpu_ns: Option<u64>,
}

/// A single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// The calling thread's CPU time in nanoseconds (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span;
    /// `f` may open child spans on the tracer it is handed.
    pub fn span<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let cpu_start_ns = thread_cpu_ns();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
            cpu_start_ns,
            cpu_end_ns: None,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let cpu_end_ns = thread_cpu_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.cpu_end_ns = cpu_end_ns;
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, with self time net of direct children.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_wall = vec![0u64; self.spans.len()];
        let mut child_cpu = vec![Some(0u64); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_wall[p] += s.wall_ns();
                child_cpu[p] = child_cpu[p].zip(s.cpu_ns()).map(|(a, b)| a + b);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out
                .entry(s.name)
                .or_insert(LayerTotals { self_cpu_ns: Some(0), ..Default::default() });
            t.spans += 1;
            t.wall_ns += s.wall_ns();
            t.self_ns += s.wall_ns().saturating_sub(child_wall[i]);
            let self_cpu = s.cpu_ns().zip(child_cpu[i]).map(|(own, kids)| own.saturating_sub(kids));
            t.self_cpu_ns = t.self_cpu_ns.zip(self_cpu).map(|(a, b)| a + b);
        }
        out
    }

    /// Every span as JSON (times in µs since the tracer started).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"cell\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.cell,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.span("outer", 7, |tr| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            tr.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(8)));
        });
        let layers = tr.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!((outer.spans, inner.spans), (1, 1));
        assert_eq!(inner.self_ns, inner.wall_ns);
        assert_eq!(outer.self_ns, outer.wall_ns - inner.wall_ns);
        assert!(inner.wall_ns >= 8_000_000 && outer.self_ns >= 4_000_000);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.to_json().contains("\"name\":\"inner\",\"cell\":7,\"parent\":0"));
    }
}
