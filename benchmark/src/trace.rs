//! Benchmark-side spans. Each span records its name, start, end and the
//! span that caused it; spans stay in memory and are written out when
//! the run ends. A disabled recorder runs the closures and records
//! nothing, so untraced runs pay no clock reads.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span, passed to the closure so children can name
/// their parent explicitly (the layers run closures on worker threads,
/// where an implicit per-thread stack would lose the parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are seconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Option<Mutex<Vec<SpanRecord>>>,
}

impl Recorder {
    pub fn off() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: None,
        }
    }

    pub fn on() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`. The span's
    /// end is left NaN until `f` returns, so a span a panic left open
    /// fails the balance check in [`Recorder::finish`].
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        name: &str,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut spans = spans
                .lock()
                .expect("span list poisoned by a panicking worker");
            let id = spans.len();
            spans.push(SpanRecord {
                id,
                parent: parent.map(|p| p.0),
                name: name.to_string(),
                start_s: self.epoch.elapsed().as_secs_f64(),
                end_s: f64::NAN,
            });
            id
        };
        let out = f(Some(SpanId(id)));
        let end = self.epoch.elapsed().as_secs_f64();
        spans
            .lock()
            .expect("span list poisoned by a panicking worker")[id]
            .end_s = end;
        out
    }

    /// Summed duration and count of the closed spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let Some(spans) = &self.spans else {
            return (0.0, 0);
        };
        let spans = spans
            .lock()
            .expect("span list poisoned by a panicking worker");
        spans
            .iter()
            .filter(|s| s.name == name && !s.end_s.is_nan())
            .fold((0.0, 0), |(t, n), s| (t + (s.end_s - s.start_s), n + 1))
    }

    /// Mean duration of the spans named `name` (0 when there are none).
    pub fn mean(&self, name: &str) -> f64 {
        let (t, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t / n as f64
        }
    }

    /// The recorded spans, or an error naming a span that never closed
    /// or whose parent does not enclose it.
    pub fn finish(self) -> Result<Vec<SpanRecord>, String> {
        let spans = match self.spans {
            Some(m) => m
                .into_inner()
                .expect("span list poisoned by a panicking worker"),
            None => return Ok(Vec::new()),
        };
        for s in &spans {
            if s.end_s.is_nan() || s.end_s < s.start_s {
                return Err(format!("span {} ({}) never closed", s.id, s.name));
            }
            if let Some(p) = s.parent.map(|p| &spans[p]) {
                if s.start_s < p.start_s || s.end_s > p.end_s {
                    return Err(format!(
                        "span {} ({}) escapes its parent {}",
                        s.id, s.name, p.name
                    ));
                }
            }
        }
        Ok(spans)
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (overlapping children counted once).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for &(a, b) in kids.iter() {
            match &mut cur {
                Some((_, e)) if a <= *e => *e = e.max(b),
                _ => {
                    if let Some((x, y)) = cur {
                        covered += y - x;
                    }
                    cur = Some((a, b));
                }
            }
        }
        if let Some((x, y)) = cur {
            covered += y - x;
        }
        *out.entry(s.name.clone()).or_insert(0.0) += (s.end_s - s.start_s) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, name: &str, start_s: f64, end_s: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(0, None, "run", 0.0, 10.0),
            rec(1, Some(0), "a", 1.0, 4.0),
            rec(2, Some(0), "b", 3.0, 5.0), // overlaps a: union 1..5
            rec(3, Some(0), "a", 7.0, 8.0),
            rec(4, Some(3), "c", 7.5, 8.0),
        ];
        let st = self_times(&spans);
        assert!((st["run"] - 5.0).abs() < 1e-12);
        assert!((st["a"] - 3.5).abs() < 1e-12);
        assert!((st["b"] - 2.0).abs() < 1e-12);
        assert!((st["c"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_balances() {
        let r = Recorder::on();
        let v = r.span(None, "outer", |p| r.span(p, "inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(r.total("inner").1, 1);
        let spans = r.finish().expect("balanced");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::off();
        assert_eq!(r.span(None, "x", |p| p), None);
        assert_eq!(r.total("x"), (0.0, 0));
        assert!(r.finish().expect("nothing open").is_empty());
    }
}
