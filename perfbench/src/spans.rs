//! Benchmark-side tracing: spans recorded around calls into each layer,
//! kept in memory and written out when the run ends.
//!
//! A span has a name (the layer metric it feeds), an id shared by every
//! span of one network, batch or request, a parent, a lane (the client
//! thread that recorded it) and start/end times in seconds since a common
//! origin. A span's self time is its duration minus the part of it that
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub lane: u32,
    pub start: f64,
    pub end: f64,
}

/// Handle of an open span (`None` when tracing is off).
pub type Open = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, lane: u32) -> Self {
        Tracer {
            on,
            origin,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the tracer's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return None;
        }
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            lane: self.lane,
            start,
            end: start,
        });
        let h = self.spans.len() - 1;
        self.open.push(h);
        Some(h)
    }

    /// Closes the innermost open span, which must be `h`.
    pub fn end(&mut self, h: Open) {
        if let Some(h) = h {
            let top = self.open.pop();
            assert_eq!(top, Some(h), "spans must close innermost first");
            self.spans[h].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let h = self.begin(name, id);
        let r = f(self);
        self.end(h);
        r
    }

    /// Records a span over an explicit interval (seconds since origin).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Open,
        start: f64,
        end: f64,
    ) -> Open {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            lane: self.lane,
            start,
            end,
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another tracer's closed spans (e.g. a client thread's).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut iv: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
        }
        out
    }

    /// Writes one JSON line per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut v = mocha_json::jobj! {
                "i" => i,
                "name" => s.name,
                "id" => s.id,
                "lane" => s.lane as u64,
                "start_s" => s.start,
                "end_s" => s.end,
            };
            if let Some(p) = s.parent {
                v = v.with("parent", p);
            }
            writeln!(w, "{}", v.to_string_compact())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let root = t.record("root", 1, None, 0.0, 10.0);
        t.record("a", 1, root, 1.0, 4.0);
        t.record("a", 1, root, 3.0, 5.0); // overlaps the first child
        t.record("b", 1, root, 8.0, 12.0); // clipped to the parent
        let st = t.self_times();
        assert!((st["root"] - (10.0 - 4.0 - 2.0)).abs() < 1e-12);
        assert!((st["a"] - 5.0).abs() < 1e-12);
        assert!((st["b"] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_and_disabled_tracer() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].id, 7);
        let mut off = Tracer::new(false, Instant::now(), 0);
        off.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        assert!(off.spans().is_empty());
    }
}
