//! Host-time spans kept in memory during a traced pass and written out
//! as JSONL when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One host-time interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in its [`SpanLog`].
    pub id: usize,
    /// Enclosing span; `None` for a run root.
    pub parent: Option<usize>,
    /// Simulated job the span belongs to, when known.
    pub job: Option<usize>,
    /// `run`, `job`, `attempt`, or the operation (`decide`, `actuate`,
    /// `impose`, ...).
    pub name: &'static str,
    /// Module doing the work.
    pub layer: &'static str,
    /// Host microseconds since the log's origin.
    pub start_us: u64,
    /// Host microseconds since the log's origin.
    pub end_us: u64,
}

impl Span {
    /// Length of the span, microseconds.
    pub fn us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Every span of one traced pass.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log measuring from `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_micros()).unwrap_or(u64::MAX)
    }

    /// Open a span at `at`; it stays zero-length until closed.
    pub fn open(
        &mut self,
        parent: Option<usize>,
        job: Option<usize>,
        name: &'static str,
        layer: &'static str,
        at: Instant,
    ) -> usize {
        let id = self.spans.len();
        let t = self.us(at);
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            layer,
            start_us: t,
            end_us: t,
        });
        id
    }

    /// Set the end of span `id` to `at`.
    pub fn close(&mut self, id: usize, at: Instant) {
        let t = self.us(at);
        if let Some(s) = self.spans.get_mut(id) {
            s.end_us = t.max(s.start_us);
        }
    }

    /// Check that every span lies within its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            let parent = self
                .spans
                .get(p)
                .ok_or_else(|| format!("span {} names missing parent {p}", s.id))?;
            if p >= s.id || s.start_us < parent.start_us || s.end_us > parent.end_us {
                return Err(format!(
                    "span {} {} [{}, {}] escapes parent {} {} [{}, {}]",
                    s.id,
                    s.name,
                    s.start_us,
                    s.end_us,
                    p,
                    parent.name,
                    parent.start_us,
                    parent.end_us
                ));
            }
        }
        Ok(())
    }

    /// Self time of every span: its length minus the part of it that
    /// its children cover (overlapping children count once).
    pub fn self_us(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_us;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.us() - covered
            })
            .collect()
    }

    /// Self time summed per layer, microseconds.
    pub fn layer_self_us(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_us()) {
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_us\":{},\"end_us\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.job),
                s.name,
                s.layer,
                s.start_us,
                s.end_us
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_duration_minus_time_covered_by_children() {
        let o = Instant::now();
        let mut log = SpanLog::new(o);
        let run = log.open(None, None, "run", "grid.stream", at(o, 0));
        let job = log.open(Some(run), Some(3), "job", "grid.stream", at(o, 10));
        let a = log.open(Some(job), Some(3), "decide", "core.coordinator", at(o, 20));
        log.close(a, at(o, 50));
        // Overlaps the decide span by 10 µs: the overlap counts once.
        let b = log.open(Some(job), Some(3), "actuate", "metasim.exec", at(o, 40));
        log.close(b, at(o, 70));
        log.close(job, at(o, 90));
        log.close(run, at(o, 100));
        log.check_nesting().unwrap();

        assert_eq!(log.self_us(), vec![20, 30, 30, 30]);
        let by_layer = log.layer_self_us();
        assert_eq!(by_layer["grid.stream"], 50);
        assert_eq!(by_layer["core.coordinator"], 30);
        assert_eq!(by_layer["metasim.exec"], 30);
    }

    #[test]
    fn nesting_violations_are_reported() {
        let o = Instant::now();
        let mut log = SpanLog::new(o);
        let run = log.open(None, None, "run", "grid.stream", at(o, 0));
        log.close(run, at(o, 10));
        let late = log.open(Some(run), None, "impose", "grid.impose", at(o, 5));
        log.close(late, at(o, 20));
        assert!(log.check_nesting().is_err());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let o = Instant::now();
        let mut log = SpanLog::new(o);
        let run = log.open(None, None, "run", "grid.stream", at(o, 0));
        log.open(Some(run), Some(1), "job", "grid.stream", at(o, 2));
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"job\":1"));
    }
}
