//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is opened with [`Tracer::begin`] right before a call into a
//! module's public function and closed with [`Tracer::end`] right after
//! it. Spans nest (the innermost open span is the parent), carry the job
//! id they belong to and an optional work count (instructions, accesses,
//! bytes) so rates can be derived per call. Nothing is written until the
//! run ends. With tracing off, `begin` and `end` record nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the call did (0 when the span carries no count).
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (or of nothing, when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off; only legal between top-level spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, job: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, and with it any span opened inside it that an early
    /// error return left open.
    pub fn end(&mut self, id: SpanId, work: u64) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        self.spans[id].work = work;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `id parent job name start_ns end_ns self_ns work`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tjob\tname\tstart_ns\tend_ns\tself_ns\twork"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.job, s.name, s.start_ns, s.end_ns, self_ns[i], s.work
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.max(s.start_ns),
                        spans[k].end_ns.min(s.end_ns),
                    )
                })
                .collect();
            intervals.sort_unstable();
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("job", None, 0, 100),
            span("build", Some(0), 10, 30),
            span("run", Some(0), 40, 90),
            span("inner", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", None, 100, 200),
            span("a", Some(0), 90, 130),
            span("b", Some(0), 120, 150),
            span("c", Some(0), 190, 250),
        ];
        // Covered: [100,150) and [190,200) = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_records_nothing_when_off() {
        let mut off = Tracer::new(false);
        let id = off.begin("x", 1);
        off.end(id, 5);
        assert!(off.spans().is_empty());

        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer", 7);
        let inner = tr.begin("inner", 7);
        tr.end(inner, 3);
        tr.end(outer, 0);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].work, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(own[0], s[0].duration_ns() - s[1].duration_ns());
    }
}
