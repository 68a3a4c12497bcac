//! The benchmark's own spans: one around every public call it makes
//! into the system, kept in memory and written out when the run ends.
//!
//! A span has a name, a start and end (host ns since the run's
//! origin), the span that caused it, and the request id it belongs to.
//! Spans are recorded per thread and merged afterwards, so recording
//! takes no lock. A disabled recorder only keeps its nesting stack.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (thread in the high bits).
    pub id: u64,
    /// Enclosing span's id, 0 at the top level.
    pub parent: u64,
    /// Request id the span belongs to (the operation index).
    pub req: u64,
    /// Layer call, e.g. `core.exec_bootstrap`.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
}

/// An open span: the value [`Spans::enter`] hands back to
/// [`Spans::exit`].
#[derive(Debug)]
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    thread: u64,
    next: u64,
    stack: Vec<u64>,
    records: Vec<Span>,
}

impl Spans {
    /// A recorder on thread 0 whose times count from `origin`.
    #[must_use]
    pub fn new(origin: Instant, on: bool) -> Spans {
        Spans {
            origin,
            on,
            thread: 0,
            next: 0,
            stack: Vec::new(),
            records: Vec::new(),
        }
    }

    /// A recorder for worker `thread`, sharing this one's origin,
    /// setting and current parent.
    #[must_use]
    pub fn fork(&self, thread: u64) -> Spans {
        Spans {
            origin: self.origin,
            on: self.on,
            thread,
            next: 0,
            stack: self.stack.last().copied().into_iter().collect(),
            records: Vec::new(),
        }
    }

    /// Moves a forked recorder's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        self.records.extend(other.records);
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 48) | self.next
    }

    /// Opens a span; spans recorded before the matching [`Spans::exit`]
    /// become its children.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        let id = self.fresh_id();
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Open {
            id,
            parent,
            req,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open`, recording it if recording is on, and returns its
    /// duration in ns.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        self.stack.pop();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if self.on {
            self.push(open.id, open.parent, open.req, open.name, open.start, end);
        }
        dur
    }

    /// Records a leaf span the caller timed itself.
    pub fn leaf(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.fresh_id();
            let parent = self.stack.last().copied().unwrap_or(0);
            self.push(id, parent, req, name, start, end);
        }
    }

    /// Times `f` as a leaf span and returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.leaf(name, req, start, end);
        (out, end.duration_since(start).as_nanos() as u64)
    }

    fn push(
        &mut self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.records.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn records(&self) -> &[Span] {
        &self.records
    }

    /// The spans as JSON: one object per line inside an array, sorted
    /// by start time.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut recs = self.records.clone();
        recs.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::from("[\n");
        for (i, s) in recs.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < recs.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut s = Spans::new(Instant::now(), true);
        let outer = s.enter("outer", 1);
        let ((), _) = s.time("inner", 1, || ());
        s.exit(outer);
        let recs = s.records();
        assert_eq!(recs.len(), 2);
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(Instant::now(), false);
        let o = s.enter("outer", 0);
        let _ = s.time("inner", 0, || 1);
        s.exit(o);
        assert!(s.records().is_empty());
    }

    #[test]
    fn forked_recorders_keep_the_parent_and_unique_ids() {
        let mut s = Spans::new(Instant::now(), true);
        let o = s.enter("loop", 0);
        let mut a = s.fork(1);
        let mut b = s.fork(2);
        let _ = a.time("x", 0, || ());
        let _ = b.time("x", 0, || ());
        s.absorb(a);
        s.absorb(b);
        s.exit(o);
        let leaves: Vec<&Span> = s.records().iter().filter(|r| r.name == "x").collect();
        assert_eq!(leaves.len(), 2);
        assert_ne!(leaves[0].id, leaves[1].id);
        let loop_id = s.records().iter().find(|r| r.name == "loop").unwrap().id;
        assert!(leaves.iter().all(|l| l.parent == loop_id));
    }
}
