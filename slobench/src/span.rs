//! Spans measured from outside the program: call counts, busy time and
//! self time at each seam the benchmark times.
//!
//! A [`Span`] accumulates every interval recorded against it. Spans
//! nest per thread: while one timed call is open, any span closed on
//! the same thread is its child, and the parent's *self* time is its
//! busy time minus the part its children covered. The benchmark wraps
//! each whole iteration in a root span, so the root's self time is the
//! wall time no seam accounts for.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    /// Child nanoseconds accumulated by each open span on this thread,
    /// innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Count, busy time and self time at one seam.
///
/// The counters are statistics that publish no other data, so they use
/// relaxed atomics; a span may be shared by decorators on any thread.
#[derive(Debug, Default)]
pub struct Span {
    count: AtomicU64,
    busy_nanos: AtomicU64,
    self_nanos: AtomicU64,
}

impl Span {
    /// Times `f` as one call of this span.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        OPEN.with(|open| open.borrow_mut().push(0));
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.close(nanos);
        out
    }

    /// Records one call that took `nanos` and was timed by the caller
    /// (for call sites that need the latency itself, such as
    /// percentiles). Such a call has no children.
    pub fn record(&self, nanos: u64) {
        OPEN.with(|open| open.borrow_mut().push(0));
        self.close(nanos);
    }

    fn close(&self, nanos: u64) {
        let children = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let children = open.pop().expect("a span was opened before closing");
            if let Some(parent) = open.last_mut() {
                *parent += nanos;
            }
            children
        });
        self.count.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.self_nanos
            .fetch_add(nanos.saturating_sub(children), Ordering::Relaxed);
    }

    /// Adds `count` calls taking `nanos` in total that ran outside any
    /// open span (such as set-up, which no root span covers).
    pub fn add_detached(&self, count: u64, nanos: u64) {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.self_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Counts one call without timing it, for seams hit so often that
    /// even an atomic read-modify-write would dominate their cost.
    ///
    /// The increment is a plain load and store, not an atomic add: two
    /// threads bumping one span at once could lose a count. Every
    /// bumped span in this benchmark is advanced by a single thread
    /// (the one caller driving the plane or the simulator), so the
    /// counts are exact.
    pub fn bump(&self) {
        let n = self.count.load(Ordering::Relaxed);
        self.count.store(n + 1, Ordering::Relaxed);
    }

    /// Calls recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total time inside the span, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Time inside the span not covered by child spans, in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_self_time() {
        let parent = Span::default();
        let child = Span::default();
        let nap = || std::thread::sleep(std::time::Duration::from_millis(1));
        parent.time(|| {
            child.time(nap);
            child.time(nap);
        });
        assert_eq!((parent.count(), child.count()), (1, 2));
        assert!(child.busy_s() >= 2e-3);
        assert!(parent.busy_s() >= child.busy_s());
        let covered = parent.busy_s() - parent.self_s();
        assert!((covered - child.busy_s()).abs() < 1e-9, "covered {covered}");
        // A call recorded outside any open span covers nothing.
        let before = parent.self_s();
        child.record(5);
        assert_eq!(child.count(), 3);
        assert_eq!(parent.self_s(), before);
    }
}
