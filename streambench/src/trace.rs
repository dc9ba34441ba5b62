//! In-memory spans recorded around the calls into each layer, written
//! out once the run ends.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (0 for a top-level span).
    pub parent: u32,
    pub name: &'static str,
    /// Window the call belongs to.
    pub window: u32,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Span sink shared by the caller thread and the halo pool's workers.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// The span the caller thread is inside, read by engine spans that
    /// the halo pool records on its own threads.
    current: AtomicU32,
    window: AtomicU32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            window: AtomicU32::new(0),
        }
    }
}

impl Tracer {
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_window(&self, window: usize) {
        self.window.store(window as u32, Ordering::Relaxed);
    }

    pub fn window(&self) -> u32 {
        self.window.load(Ordering::Relaxed)
    }

    /// Records a span over `f`, as a child of the caller thread's
    /// current span; engine spans recorded while `f` runs become its
    /// children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::SeqCst);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.current.store(parent, Ordering::SeqCst);
        self.record(id, parent, name, start, end);
        out
    }

    /// Records a leaf span whose start was taken earlier, as a child
    /// of the caller thread's current span. Callable from any thread.
    pub fn leaf(&self, name: &'static str, start: u64, end: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.load(Ordering::SeqCst);
        self.record(id, parent, name, start, end);
    }

    fn record(&self, id: u32, parent: u32, name: &'static str, start: u64, end: u64) {
        let window = self.window.load(Ordering::Relaxed);
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name,
                window,
                start,
                end,
            });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Length of the union of `intervals` (`(start, end)` pairs).
pub fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let inside = children.remove(&s.id).map_or(0, |c| {
                covered(
                    c.into_iter()
                        .map(|(a, b)| (a.max(s.start), b.min(s.end).max(a.max(s.start))))
                        .collect(),
                )
            });
            s.ns() - inside.min(s.ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            window: 0,
            start,
            end,
        }
    }

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 50)];
        assert_eq!(self_times(&spans), vec![60, 30, 20]);
    }
}
