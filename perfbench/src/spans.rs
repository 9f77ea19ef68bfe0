//! Spans recorded from the benchmark's side of each call into a layer.
//! Kept in memory, written as JSON lines when the pass ends. One pass is
//! one tree: span 0 is the root and every other span names its parent.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the pass (0 = root).
    pub id: u32,
    /// Enclosing span; `None` for the root.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `netsim.sim.drain`.
    pub name: String,
    /// Nanoseconds since the pass began.
    pub start_ns: u64,
    /// Nanoseconds since the pass began.
    pub end_ns: u64,
    /// Counts taken at the same boundary.
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one traced pass.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty pass; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            // Room for every span of a pass, so recording one never
            // reallocates inside another's interval.
            spans: Vec::with_capacity(512),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. The clock is read
    /// last, so bookkeeping stays outside the interval.
    pub fn enter(&mut self, name: &str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
            attrs: Vec::new(),
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Closes the innermost open span, which must be `id`. The clock is
    /// read first.
    pub fn exit(&mut self, id: u32, attrs: &[(&str, f64)]) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.attrs = attrs.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    }

    /// Times `f` as a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id, &[]);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(w, "{}", span_json(s))?;
        }
        w.flush()
    }
}

fn span_json(s: &Span) -> Json {
    let mut attrs = Json::obj();
    for (k, v) in &s.attrs {
        attrs.set(k, *v);
    }
    let mut j = Json::obj();
    j.set("id", u64::from(s.id))
        .set(
            "parent",
            s.parent.map_or(Json::Null, |p| u64::from(p).into()),
        )
        .set("name", s.name.as_str())
        .set("start_ns", s.start_ns)
        .set("end_ns", s.end_ns)
        .set("attrs", attrs);
    j
}

/// Reads back a file written by [`Tracer::write_jsonl`].
pub fn read_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let j = Json::parse(l)?;
            let n = |k: &str| {
                j.get(k)
                    .and_then(Json::num)
                    .ok_or_else(|| format!("span lacks {k}: {l}"))
            };
            Ok(Span {
                id: n("id")? as u32,
                parent: j.get("parent").and_then(Json::num).map(|p| p as u32),
                name: j
                    .get("name")
                    .and_then(Json::str)
                    .ok_or_else(|| format!("span lacks name: {l}"))?
                    .to_owned(),
                start_ns: n("start_ns")? as u64,
                end_ns: n("end_ns")? as u64,
                attrs: j
                    .get("attrs")
                    .map(|a| {
                        a.members()
                            .iter()
                            .filter_map(|(k, v)| v.num().map(|v| (k.clone(), v)))
                            .collect()
                    })
                    .unwrap_or_default(),
            })
        })
        .collect()
}

/// A span's duration minus the part of it its children cover.
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id as usize].duration_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        t.span("a", |t| {
            t.span("a.inner", |_| std::hint::black_box(0));
        });
        let b = t.enter("b");
        t.exit(b, &[("ops", 3.0)]);
        t.exit(root, &[]);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].attrs, vec![("ops".to_owned(), 3.0)]);
        for c in &s[1..] {
            let p = &s[c.parent.unwrap() as usize];
            assert!(p.start_ns <= c.start_ns && c.end_ns <= p.end_ns);
        }
        assert_eq!(
            self_ns(s, 0),
            s[0].duration_ns() - s[1].duration_ns() - s[3].duration_ns()
        );
        let text: String = s.iter().map(|s| format!("{}\n", span_json(s))).collect();
        assert_eq!(read_jsonl(&text).unwrap(), s);
    }
}
