//! The benchmark's own spans.
//!
//! Spans are recorded in the benchmark's code around each call into a layer's
//! public functions: one root span per client operation and one child span
//! per layer call it makes, sharing the operation's id. Each client thread
//! owns a [`Recorder`]; nothing is shared on the hot path except the global
//! on/off switch, which the traced run flips in alternating windows so the
//! cost of tracing can be measured against untraced windows of the same run.
//! Spans are kept in memory and written as Chrome-trace JSON at exit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::Timings;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// Spans kept per thread for the Chrome-trace file; durations of every span
/// still feed the per-name aggregates past this cap.
const KEPT_PER_THREAD: usize = 20_000;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Release);
}

/// Whether spans are being recorded right now.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Nanoseconds since the process-wide trace epoch.
fn at(instant: Instant) -> u64 {
    instant.saturating_duration_since(epoch()).as_nanos() as u64
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer call or operation name, e.g. `sharding.ShardedDb::write`.
    pub name: &'static str,
    /// Operation id shared by a root span and its children.
    pub op: u64,
    /// Span id, unique within its thread.
    pub id: u32,
    /// Parent span id; 0 for a root.
    pub parent: u32,
    /// Recording thread.
    pub tid: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// An open root span; `None` inside when tracing was off at its start.
#[derive(Debug)]
pub struct OpSpan(Option<(&'static str, u64, u32, Instant)>);

impl OpSpan {
    /// Whether this operation is being traced.
    pub fn traced(&self) -> bool {
        self.0.is_some()
    }
}

/// Per-thread span store and per-name duration aggregates.
#[derive(Debug, Default)]
pub struct Recorder {
    tid: u32,
    next_id: u32,
    kept: Vec<SpanRecord>,
    durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Recorder {
    /// A recorder for client thread `tid`.
    pub fn new(tid: u32) -> Recorder {
        Recorder {
            tid,
            ..Default::default()
        }
    }

    /// Opens a root span for one client operation if tracing is on.
    pub fn begin(&mut self, name: &'static str) -> OpSpan {
        if !enabled() {
            return OpSpan(None);
        }
        self.next_id += 1;
        let op = NEXT_OP.fetch_add(1, Ordering::Relaxed);
        OpSpan(Some((name, op, self.next_id, Instant::now())))
    }

    /// Records a layer call of `op` that ran from `start` to `end`.
    pub fn child(&mut self, op: &OpSpan, name: &'static str, start: Instant, end: Instant) {
        if let Some((_, op_id, root, _)) = op.0 {
            self.next_id += 1;
            let id = self.next_id;
            self.push(name, op_id, id, root, start, end);
        }
    }

    /// Closes a root span.
    pub fn end(&mut self, op: OpSpan) {
        if let Some((name, op_id, id, start)) = op.0 {
            self.push(name, op_id, id, 0, start, Instant::now());
        }
    }

    /// Runs the layer call `f`, records its latency in `timings` and, when
    /// `op` is traced, records it as a child span named `name`.
    pub fn call<T, E>(
        &mut self,
        op: &OpSpan,
        name: &'static str,
        timings: &mut Timings,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let (result, start, end) = timings.time(f);
        self.child(op, name, start, end);
        result
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        id: u32,
        parent: u32,
        start: Instant,
        end: Instant,
    ) {
        let record = SpanRecord {
            name,
            op,
            id,
            parent,
            tid: self.tid,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.durations
            .entry(name)
            .or_default()
            .push(record.end_ns - record.start_ns);
        if self.kept.len() < KEPT_PER_THREAD {
            self.kept.push(record);
        }
    }

    /// Folds another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        self.kept.extend(other.kept);
        for (name, durations) in other.durations {
            self.durations.entry(name).or_default().extend(durations);
        }
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> &[u64] {
        self.durations.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Mean duration of spans named `name` in microseconds (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e3
        }
    }

    /// Nearest-rank quantile of spans named `name` in microseconds.
    pub fn quantile_us(&self, names: &[&str], q: f64) -> f64 {
        let mut all: Vec<u64> = names
            .iter()
            .flat_map(|n| self.durations(n))
            .copied()
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        all.sort_unstable();
        let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
        all[rank - 1] as f64 / 1e3
    }

    /// The kept spans as a Chrome-trace (`chrome://tracing`, Perfetto) JSON
    /// document: complete events with the span id, parent and op id as args.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (index, s) in self.kept.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.id,
                s.parent
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_op_and_point_at_the_root() {
        set_enabled(true);
        let mut rec = Recorder::new(3);
        let op = rec.begin("client.op");
        assert!(op.traced());
        let mut timings = Timings::default();
        let value = rec.call(&op, "layer.call", &mut timings, || Ok::<_, ()>(41 + 1));
        assert_eq!(value, Ok(42));
        assert_eq!(timings.attempted(), 1);
        rec.end(op);
        assert_eq!(rec.kept.len(), 2);
        let (child, root) = (&rec.kept[0], &rec.kept[1]);
        assert_eq!(child.op, root.op);
        assert_eq!(child.parent, root.id);
        assert_eq!(root.parent, 0);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(rec.durations("layer.call").len(), 1);
        let json = rec.chrome_trace_json();
        assert!(json.contains("\"name\":\"layer.call\"") && json.contains("\"tid\":3"));
        set_enabled(false);
        let mut off = Recorder::new(4);
        let op = off.begin("client.op");
        assert!(!op.traced());
        assert!(off
            .call(&op, "layer.call", &mut timings, || Ok::<_, ()>(()))
            .is_ok());
        assert_eq!(timings.attempted(), 2);
        off.end(op);
        assert!(off.kept.is_empty());
    }
}
