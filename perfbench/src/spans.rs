//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end on a
//! common clock, the span that caused it and the job it belongs to.
//! Spans stay in memory while the sweep runs and are written out as
//! JSON once it has finished. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder began.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to (`None` for sweep-wide work).
    pub job: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking job")
    }

    /// Open a span and return its id.
    pub fn open(&self, name: &'static str, parent: Option<usize>, job: Option<usize>) -> usize {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job,
        });
        spans.len() - 1
    }

    /// Close the span `id`.
    pub fn close(&self, id: usize) {
        let end = self.now();
        self.lock()[id].end = end;
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-name totals: `(total duration, total self time, span count)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += s.duration();
        e.1 += own;
        e.2 += 1;
    }
    out
}

/// The spans as a JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.job)
            )
        })
        .collect();
    format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 20, Some(0)),
            // Overlaps the first child: only [20, 30] is new coverage.
            span("b", 15, 30, Some(0)),
            // Runs past the parent's end: clipped to [90, 100].
            span("c", 90, 120, Some(0)),
            span("inner", 12, 14, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 8, 15, 30, 2]);
        let t = totals(&spans);
        assert_eq!(t["job"], (100, 70, 1));
        assert_eq!(t["a"], (10, 8, 1));
    }

    #[test]
    fn self_times_partition_a_sequential_tree() {
        // Without overlap, the self times of a tree add up to its
        // root's duration.
        let spans = vec![
            span("root", 0, 50, None),
            span("x", 5, 25, Some(0)),
            span("y", 10, 20, Some(1)),
            span("z", 30, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 50);
    }

    #[test]
    fn recorder_nests_and_closes() {
        let rec = Recorder::default();
        let outer = rec.open("outer", None, None);
        let v = rec.scope("inner", Some(outer), Some(3), || 7);
        rec.close(outer);
        assert_eq!(v, 7);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, Some(3));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(to_json(&spans).contains("\"name\": \"inner\", "));
    }
}
