//! In-memory spans around calls into each layer, written out as JSON lines
//! when the run ends.
//!
//! The harness records these itself, from outside the library: one root
//! span per run, one child per chunk of reads, and under each chunk one span
//! per layer that worked on it. Counts ride on the span that did the work,
//! so every ratio is measured where the work happens.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Chunk index, for chunk spans and the layer spans under them.
    pub chunk: Option<u32>,
    /// Nanoseconds since the trace was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, by counter name.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays open (zero length) until [`Trace::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        chunk: Option<u32>,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            chunk,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId, counts: &[(&'static str, u64)]) {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].counts.extend_from_slice(counts);
    }

    /// Times `body` as one span under `parent`; `body` returns its result
    /// and the counts to attach.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        body: impl FnOnce() -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        let chunk = self.spans[parent].chunk;
        let id = self.open(name, Some(parent), chunk);
        let (out, counts) = body();
        self.close(id, &counts);
        out
    }

    /// A span's duration minus the part of that interval its child spans
    /// cover (children may overlap each other; covered time counts once).
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.duration_ns() - covered
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Sum of counter `counter` over every span called `name`.
    pub fn total_count(&self, name: &str, counter: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == counter)
            .map(|(_, v)| v)
            .sum()
    }

    /// One JSON object per span, in the order spans were opened.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(out, "{{\"trace\":\"{workload}\",\"span\":{id},\"parent\":")?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            write!(out, ",\"name\":\"{}\",\"chunk\":", s.name)?;
            match s.chunk {
                Some(c) => write!(out, "{c}")?,
                None => write!(out, "null")?,
            }
            write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.start_ns,
                s.end_ns,
                self.self_time_ns(id)
            )?;
            for (k, v) in &s.counts {
                write!(out, ",\"{k}\":{v}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Trace {
        let mut t = Trace::default();
        for &(name, parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                name,
                parent,
                chunk: None,
                start_ns,
                end_ns,
                counts: Vec::new(),
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = fixed(&[
            ("run", None, 0, 100),
            ("chunk", Some(0), 10, 60),
            ("extend", Some(1), 20, 50),
            // Overlaps the chunk span: the shared 10 ns count once.
            ("gaf", Some(0), 50, 80),
            // Outside the parent on the right: clipped.
            ("late", Some(0), 95, 120),
        ]);
        assert_eq!(t.self_time_ns(0), 100 - (50 + 20 + 5));
        assert_eq!(t.self_time_ns(1), 50 - 30);
        assert_eq!(t.self_time_ns(2), 30);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let t = fixed(&[
            ("run", None, 0, 1000),
            ("chunk", Some(0), 0, 400),
            ("chunk", Some(0), 400, 900),
            ("a", Some(1), 10, 200),
            ("b", Some(1), 200, 390),
            ("a", Some(2), 400, 700),
        ]);
        let total: u64 = (0..t.spans.len()).map(|i| t.self_time_ns(i)).sum();
        assert_eq!(total, 1000);
        assert_eq!(t.total_ns("a"), 190 + 300);
    }

    #[test]
    fn spans_nest_and_serialise() {
        let mut t = Trace::default();
        let run = t.open("run", None, None);
        let chunk = t.open("chunk", Some(run), Some(3));
        let got = t.span("core.extend", chunk, || {
            (7, vec![("extensions", 11), ("reads", 2)])
        });
        assert_eq!(got, 7);
        t.close(chunk, &[("reads", 2)]);
        t.close(run, &[]);
        assert_eq!(t.spans[2].chunk, Some(3));
        assert_eq!(t.total_count("core.extend", "extensions"), 11);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let dir = crate::test_dir("trace");
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path, "w").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(
            "{\"trace\":\"w\",\"span\":0,\"parent\":null,\"name\":\"run\",\"chunk\":null"
        ));
        assert!(lines[2].contains("\"parent\":1,\"name\":\"core.extend\",\"chunk\":3"));
        assert!(lines[2].ends_with(",\"extensions\":11,\"reads\":2}"));
    }
}
