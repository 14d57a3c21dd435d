//! Hierarchical RAII span profiler.
//!
//! A span is opened with [`span`] and closed when the returned [`SpanGuard`]
//! drops. Spans nest: each thread keeps a stack of open frames, so a span
//! opened while another is open becomes its child, and on close the child's
//! duration is charged against the parent's child-time. That lets reports
//! distinguish *total* time (wall clock of the whole scope) from *self* time
//! (total minus children), which is what attribution of a pipeline needs.
//!
//! When profiling is disabled (the default) [`span`] is a single relaxed
//! atomic load and returns an inert guard — no clock read, no allocation, no
//! lock — so call sites can stay unconditionally instrumented. Finished spans
//! from all threads land in one global sink, drained with [`take_spans`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global on/off switch for the profiler.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Monotonic span-id source (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Monotonic thread-ordinal source, so records carry a small stable id.
static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(0);
/// Sink of finished spans from every thread.
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
/// Common time origin so `start_ns` is comparable across threads.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Enables or disables span collection process-wide.
///
/// Disabling does not drop spans already recorded, and guards that are open
/// when the switch flips still close correctly.
pub fn set_enabled(on: bool) {
    // Make sure the epoch exists before the first span can be recorded.
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the profiler is currently collecting spans.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span as drained from the global sink.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id of this span (process-wide, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Static name of the instrumented phase (e.g. `"compile.lower"`).
    pub name: &'static str,
    /// Small per-thread ordinal (0, 1, …) identifying the recording thread.
    pub thread: u64,
    /// Start time in nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// Total wall-clock duration of the span in nanoseconds.
    pub dur_ns: u64,
    /// Nanoseconds spent inside direct child spans on the same thread.
    pub child_ns: u64,
}

impl SpanRecord {
    /// Duration not attributed to any child span.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

/// One open (not yet finished) span on a thread's stack.
struct Frame {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
}

/// RAII guard returned by [`span`]; the span closes when this drops.
///
/// The guard is deliberately `!Send`: a span measures one thread's time and
/// must close on the thread that opened it.
#[must_use = "a span guard measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    /// Whether this guard actually opened a frame (profiler was enabled).
    armed: bool,
    /// Keeps the guard `!Send` without any runtime cost.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a span named `name`; it closes when the returned guard drops.
///
/// With the profiler disabled this is one relaxed atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            armed: false,
            _not_send: std::marker::PhantomData,
        };
    }
    open_span(name)
}

#[cold]
fn open_span(name: &'static str) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().map_or(0, |f| f.id);
        stack.push(Frame {
            id,
            parent,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    SpanGuard {
        armed: true,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let record = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop()?;
            let dur_ns = frame.start.elapsed().as_nanos() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            Some(SpanRecord {
                id: frame.id,
                parent: frame.parent,
                name: frame.name,
                thread: THREAD_ORD.with(|t| *t),
                start_ns: frame.start.duration_since(epoch()).as_nanos() as u64,
                dur_ns,
                child_ns: frame.child_ns,
            })
        });
        if let Some(record) = record {
            SINK.lock().expect("span sink poisoned").push(record);
        }
    }
}

/// Drains and returns every finished span recorded so far (all threads).
#[must_use]
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the probe tests that toggle the global profiler.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let _ = take_spans();
        {
            let _s = span("probe.test.disabled");
        }
        assert!(take_spans().iter().all(|r| r.name != "probe.test.disabled"));
    }

    #[test]
    fn nesting_links_parents_and_charges_child_time() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_spans();
        {
            let _outer = span("probe.test.outer");
            spin(200);
            {
                let _inner = span("probe.test.inner");
                spin(200);
            }
            spin(200);
        }
        set_enabled(false);
        let spans = take_spans();
        let outer = spans.iter().find(|r| r.name == "probe.test.outer").unwrap();
        let inner = spans.iter().find(|r| r.name == "probe.test.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.thread, outer.thread);
        // The child closes before the parent, and the parent's child-time is
        // exactly the child's duration.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.dur_ns <= outer.dur_ns);
        assert_eq!(outer.child_ns, inner.dur_ns);
        assert_eq!(outer.self_ns(), outer.dur_ns - inner.dur_ns);
    }

    #[test]
    fn nested_child_self_time_never_exceeds_parent_total() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_spans();
        // Property check over a randomised family of nesting shapes: a
        // deterministic LCG drives how deep and how long each scope runs.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        fn nest(depth: u64, rand: &mut impl FnMut() -> u64, spin: &dyn Fn(u64)) {
            let _s = span("probe.test.prop");
            spin(20);
            if depth > 0 {
                for _ in 0..(rand() % 3) {
                    nest(depth - 1, rand, spin);
                }
            }
            spin(20);
        }
        for _ in 0..8 {
            nest(3, &mut rand, &|us| spin(us));
        }
        set_enabled(false);
        let spans: Vec<SpanRecord> = take_spans()
            .into_iter()
            .filter(|r| r.name == "probe.test.prop")
            .collect();
        assert!(!spans.is_empty());
        for child in &spans {
            assert!(child.self_ns() <= child.dur_ns);
            if child.parent != 0 {
                let parent = spans
                    .iter()
                    .find(|p| p.id == child.parent)
                    .expect("parent recorded");
                assert!(
                    child.self_ns() <= parent.dur_ns,
                    "child self {} > parent total {}",
                    child.self_ns(),
                    parent.dur_ns
                );
                assert!(parent.child_ns <= parent.dur_ns);
            }
        }
    }
}
