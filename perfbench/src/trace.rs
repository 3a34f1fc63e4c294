//! In-memory spans for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer; nothing inside the crates is
//! instrumented. Each span records its name, start, end, parent and the run (one setup
//! repetition or one campaign) it belongs to. Spans stay in memory until the run ends
//! and are then written out in one file, together with each span name's self time: a
//! span's duration minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique within the tracer.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The layer call this span wraps, e.g. `inject.chunk`.
    pub name: &'static str,
    /// The setup repetition or campaign the span belongs to, e.g. `campaign.3`.
    pub run: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it is recorded when the returned guard drops.
    pub fn start(&self, name: &'static str, parent: Option<u64>, run: &str) -> Span<'_> {
        Span {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            run: run.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span and the per-name self times to `path` as one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"run\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.run,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("],\"self_time\":[");
        for (i, t) in self_times(&spans).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.name, t.count, t.total_ns, t.self_ns
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// An open span; records itself into its tracer when dropped.
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    run: String,
    start_ns: u64,
}

impl Span<'_> {
    /// The id children pass as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            run: std::mem::take(&mut self.run),
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // A poisoned list only means another span's thread panicked; keep recording.
        let mut spans = match self.tracer.spans.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        spans.push(record);
    }
}

/// Where new spans go: the tracer (none when tracing is off), the parent span and the
/// run they belong to.
#[derive(Debug, Clone)]
pub struct Scope<'t> {
    tracer: Option<&'t Tracer>,
    parent: Option<u64>,
    run: String,
}

impl<'t> Scope<'t> {
    /// A top-level scope for `run`; spans are recorded only if `tracer` is given.
    pub fn new(tracer: Option<&'t Tracer>, run: impl Into<String>) -> Self {
        Scope {
            tracer,
            parent: None,
            run: run.into(),
        }
    }

    /// Opens a span under this scope's parent; `None` (and no clock read) when tracing
    /// is off.
    pub fn span(&self, name: &'static str) -> Option<Span<'t>> {
        self.tracer.map(|t| t.start(name, self.parent, &self.run))
    }

    /// The scope for spans caused by `span`.
    pub fn under(&self, span: &Option<Span<'t>>) -> Scope<'t> {
        Scope {
            tracer: self.tracer,
            parent: span.as_ref().map(Span::id).or(self.parent),
            run: self.run.clone(),
        }
    }
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// The span name.
    pub name: &'static str,
    /// How many spans carry the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their children cover.
    pub self_ns: u64,
}

/// Derives each span name's self time. Children may overlap each other (chunks run on
/// several workers), so the covered part of a parent is the union of its children's
/// intervals, clipped to the parent.
pub fn self_times(spans: &[SpanRecord]) -> Vec<SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let mut intervals: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|c| {
                c.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|&(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut current: Option<(u64, u64)> = None;
        for (a, b) in intervals {
            current = match current {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = current {
            covered += cb - ca;
        }
        let total = s.end_ns - s.start_ns;
        let entry = by_name.entry(s.name).or_insert(SelfTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered;
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            run: "campaign.0".to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            record(1, None, "arm", 0, 100),
            record(2, Some(1), "chunk", 10, 40),
            record(3, Some(1), "chunk", 30, 60),
            record(4, Some(1), "chunk", 90, 120),
        ];
        let times = self_times(&spans);
        let arm = times.iter().find(|t| t.name == "arm").unwrap();
        // Children cover [10, 60) and [90, 100) of the parent: 60 of 100 ns.
        assert_eq!(arm.self_ns, 40);
        let chunk = times.iter().find(|t| t.name == "chunk").unwrap();
        assert_eq!((chunk.count, chunk.total_ns, chunk.self_ns), (3, 90, 90));
    }

    #[test]
    fn spans_record_parent_and_run_across_threads() {
        let tracer = Tracer::new();
        let parent = tracer.start("arm", None, "campaign.1");
        let parent_id = parent.id();
        std::thread::scope(|s| {
            s.spawn(|| drop(tracer.start("chunk", Some(parent_id), "campaign.1")));
        });
        drop(parent);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(parent_id));
        assert!(spans
            .iter()
            .all(|s| s.run == "campaign.1" && s.end_ns >= s.start_ns));
        assert!(Scope::new(None, "x").span("off").is_none());
    }

    #[test]
    fn scopes_nest_spans_under_their_cause() {
        let tracer = Tracer::new();
        let scope = Scope::new(Some(&tracer), "setup.0");
        let root = scope.span("setup");
        drop(scope.under(&root).span("models.load"));
        let root_id = root.as_ref().unwrap().id();
        drop(root);
        let spans = tracer.spans();
        assert_eq!(spans[0].name, "models.load");
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[1].parent, None);
    }
}
