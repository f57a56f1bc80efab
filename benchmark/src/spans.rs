//! Benchmark-side spans: one record around every call the driver makes
//! into the program (choosing-metrics §4). Spans live in memory and are
//! written out once, after the measurements. A span's *self time* is its
//! duration minus the part its children cover; self times under the
//! repetition's root span sum to that span's duration, which is what makes the
//! `span.*.share` metrics sum to 1.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Index of the workload op this span belongs to (spans of one
    /// request share it).
    pub op: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    /// When set, sim drivers replace `run_for` by a `World::step()` loop
    /// and push each step's wall nanoseconds here.
    pub stepped: bool,
    pub step_ns: Vec<f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            stepped: false,
            step_ns: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        // Spans are strictly nested in this single-threaded driver.
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name inside the parentless spans called `root`,
    /// as shares of those spans' total duration. Spans outside them (the
    /// set-up's) are left out. Empty when nothing was recorded.
    pub fn self_shares_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // A parent is always recorded before its children.
        let mut inside = vec![false; self.spans.len()];
        let mut total = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns.saturating_sub(s.start_ns);
            match s.parent {
                Some(p) => {
                    child_ns[p as usize] += d;
                    inside[i] = inside[p as usize];
                }
                None if s.name == root => {
                    inside[i] = true;
                    total += d;
                }
                None => {}
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        if total == 0 {
            return by_name;
        }
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                let own = s
                    .end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(child_ns[i]);
                *by_name.entry(s.name).or_default() += own as f64 / total as f64;
            }
        }
        by_name
    }

    /// Writes the spans as JSONL (one object per line).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        let setup = t.enter("setup");
        t.exit(setup);
        let root = t.enter("rep");
        for op in 0..3 {
            t.set_op(op);
            let a = t.enter("a");
            let b = t.enter("b");
            std::thread::sleep(std::time::Duration::from_millis(1));
            t.exit(b);
            t.exit(a);
        }
        t.exit(root);
        let shares = t.self_shares_under("rep");
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{shares:?}");
        assert!(shares["b"] > 0.5);
        assert!(!shares.contains_key("setup"));
        assert_eq!(t.spans().len(), 8);
        assert_eq!(t.spans()[3].parent, Some(2));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x");
        t.exit(s);
        assert!(t.spans().is_empty());
        assert!(t.self_shares_under("x").is_empty());
    }
}
