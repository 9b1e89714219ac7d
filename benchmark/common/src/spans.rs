//! In-memory spans around the benchmark's calls into each layer, written
//! out once at exit as a Chrome trace (`chrome://tracing`, Perfetto).

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub workload: String,
}

/// A span recorder. `open`/`close` nest: a span opened while another is
/// open gets it as its parent.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str, workload: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            workload: workload.to_string(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured interval under the innermost open span.
    pub fn add(&mut self, name: &str, workload: &str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            workload: workload.to_string(),
        });
    }

    /// Imports spans a child process recorded against its own epoch, which
    /// began at `offset_ns` on this recorder's clock.
    pub fn absorb(&mut self, child: &[Span], offset_ns: u64) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        for s in child {
            self.spans.push(Span {
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                parent: s.parent.map(|p| p + base).or(under),
                ..s.clone()
            });
        }
    }

    /// The spans as a JSON array (the exchange format between the two
    /// benchmark binaries).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name.as_str())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload", Json::from(s.workload.as_str())),
                    ])
                })
                .collect(),
        )
    }

    /// Inverse of [`Spans::to_json`].
    pub fn from_json(v: &Json) -> Result<Vec<Span>, String> {
        v.as_arr()
            .ok_or("spans must be an array")?
            .iter()
            .map(|s| {
                Ok(Span {
                    name: s
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("span without name")?
                        .to_string(),
                    start_ns: s.num_at(&["start_ns"])? as u64,
                    end_ns: s.num_at(&["end_ns"])? as u64,
                    parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                    workload: s
                        .get("workload")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                })
            })
            .collect()
    }

    /// Chrome trace: one complete (`X`) event per span, timestamps in µs,
    /// one track (`tid`) per workload; `args` keeps the exact ns and the
    /// parent index.
    pub fn to_chrome_trace(&self) -> Json {
        let mut tracks: Vec<&str> = Vec::new();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let tid = match tracks.iter().position(|w| *w == s.workload) {
                    Some(t) => t,
                    None => {
                        tracks.push(&s.workload);
                        tracks.len() - 1
                    }
                };
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("ph", Json::from("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(tid as f64)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::from(s.workload.as_str())),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ns")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_survive_the_exchange_format() {
        let mut s = Spans::new();
        let outer = s.open("traced", "serve-mix");
        let inner = s.open("request", "serve-mix");
        s.close(inner);
        s.add("reply", "serve-mix", 5, 9);
        s.close(outer);
        let spans = &s.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let back = Spans::from_json(&s.to_json()).expect("round trip");
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].parent, Some(0));

        let mut host = Spans::new();
        let root = host.open("probes", "layers");
        host.absorb(&back, 1_000);
        host.close(root);
        assert_eq!(
            host.spans[1].parent,
            Some(root),
            "child roots hang under the open span"
        );
        assert_eq!(host.spans[2].parent, Some(1), "child parents are re-based");
        assert_eq!(host.spans[3].start_ns, 1_005);
        let trace = host.to_chrome_trace();
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(4)
        );
    }
}
