//! In-memory spans recorded around the calls into each layer, and the two
//! files a traced run writes from them at exit.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of its request. The benchmark records them from outside the program:
//! one span around each call at an entry point, plus `pool.queue_wait`
//! and `engine.run` children rebuilt from the durations the server's
//! `Done` frame reports. Their offsets inside the parent are not known,
//! so the two children are laid end to end in its middle.

use std::time::Instant;
use xsb_obs::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// the entry point ("rung") the request went in through
    pub rung: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub failed: bool,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

pub const QUEUE_WAIT: &str = "pool.queue_wait";
pub const ENGINE_RUN: &str = "engine.run";

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records the span of one call, and under it the queue wait and run
    /// time the server reported for the request (`None`: the entry point
    /// reports neither).
    pub fn record(
        &mut self,
        (name, rung): (&'static str, &'static str),
        req: u64,
        start: Instant,
        end: Instant,
        failed: bool,
        done: Option<(u64, u64)>,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.spans.len();
        self.spans.push(Span {
            name,
            rung,
            req,
            start_ns,
            end_ns,
            parent: None,
            failed,
        });
        let Some((queue_wait_ns, run_ns)) = done else {
            return;
        };
        let slack = (end_ns - start_ns).saturating_sub(queue_wait_ns + run_ns);
        let mut at = start_ns + slack / 2;
        for (name, dur) in [(QUEUE_WAIT, queue_wait_ns), (ENGINE_RUN, run_ns)] {
            self.spans.push(Span {
                name,
                rung,
                req,
                start_ns: at,
                end_ns: at + dur,
                parent: Some(parent),
                failed: false,
            });
            at += dur;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

/// One row of the layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    pub rung: &'static str,
    pub name: &'static str,
    pub count: u64,
    /// time the layer worked (total span time; 0 for a span of waiting)
    pub busy_ns: u64,
    /// time work waited for the layer
    pub wait_ns: u64,
    pub self_ns: u64,
    pub failures: u64,
}

/// Groups spans by (rung, name), in order of first appearance.
pub fn layers(spans: &[Span]) -> Vec<Layer> {
    let own = self_times(spans);
    let mut rows: Vec<Layer> = Vec::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let at = rows
            .iter()
            .position(|r| r.rung == s.rung && r.name == s.name)
            .unwrap_or_else(|| {
                rows.push(Layer {
                    rung: s.rung,
                    name: s.name,
                    count: 0,
                    busy_ns: 0,
                    wait_ns: 0,
                    self_ns: 0,
                    failures: 0,
                });
                rows.len() - 1
            });
        let row = &mut rows[at];
        let dur = s.end_ns - s.start_ns;
        row.count += 1;
        if s.name == QUEUE_WAIT {
            row.wait_ns += dur;
        } else {
            row.busy_ns += dur;
        }
        row.self_ns += self_ns;
        row.failures += s.failed as u64;
    }
    rows
}

fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

pub fn layers_json(rows: &[Layer]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("rung", Json::str(r.rung)),
                    ("layer", Json::str(r.name)),
                    ("count", Json::Int(r.count as i64)),
                    ("busy_us", us(r.busy_ns)),
                    ("wait_us", us(r.wait_ns)),
                    ("self_us", us(r.self_ns)),
                    ("mean_self_us", us(r.self_ns / r.count.max(1))),
                    ("failures", Json::Int(r.failures as i64)),
                ])
            })
            .collect(),
    )
}

/// Chrome trace events (`ph: "X"`), one track per rung; `limit` bounds the
/// requests kept per rung so the file stays small enough to open.
pub fn chrome_trace_json(spans: &[Span], limit: u64) -> Json {
    let mut rungs: Vec<&str> = Vec::new();
    let mut first_req: Vec<u64> = Vec::new();
    let mut events = Vec::new();
    for s in spans {
        let tid = rungs.iter().position(|r| *r == s.rung).unwrap_or_else(|| {
            rungs.push(s.rung);
            first_req.push(s.req);
            rungs.len() - 1
        });
        if s.req - first_req[tid] >= limit {
            continue;
        }
        events.push(Json::obj([
            ("name", Json::str(s.name)),
            ("cat", Json::str(s.rung)),
            ("ph", Json::str("X")),
            ("ts", us(s.start_ns)),
            ("dur", us(s.end_ns - s.start_ns)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid as i64 + 1)),
            (
                "args",
                Json::obj([
                    ("req", Json::Int(s.req as i64)),
                    ("failed", Json::Bool(s.failed)),
                ]),
            ),
        ]));
    }
    for (tid, rung) in rungs.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid as i64 + 1)),
            ("args", Json::obj([("name", Json::str(*rung))])),
        ]));
    }
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            rung: "remote",
            req: 0,
            start_ns,
            end_ns,
            parent,
            failed: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = [
            span("client.request", 0, 100, None),
            span(QUEUE_WAIT, 10, 30, Some(0)),
            span(ENGINE_RUN, 30, 70, Some(0)),
            // a child that overhangs its parent counts only where it overlaps
            span("late", 90, 150, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 40 - 10, 20, 40, 60]);
    }

    #[test]
    fn recorded_children_fit_inside_and_layers_add_up() {
        let mut t = Tracer::new();
        let start = t.origin + Duration::from_nanos(1_000);
        let end = start + Duration::from_nanos(119_000);
        t.record(
            ("client.request", "remote"),
            1,
            start,
            end,
            false,
            Some((21_000, 22_000)),
        );
        t.record(
            ("client.request", "remote"),
            2,
            start,
            end,
            true,
            Some((1_000, 2_000)),
        );
        assert_eq!(t.spans.len(), 6);
        for s in &t.spans[1..3] {
            assert!(s.start_ns >= t.spans[0].start_ns && s.end_ns <= t.spans[0].end_ns);
        }
        let rows = layers(&t.spans);
        assert_eq!(rows.len(), 3);
        let (req, wait, run) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!((req.count, req.failures), (2, 1));
        assert_eq!(wait.wait_ns, 22_000);
        assert_eq!(wait.busy_ns, 0);
        assert_eq!(run.busy_ns, 24_000);
        // self + children = the time the client saw
        assert_eq!(req.self_ns + wait.wait_ns + run.busy_ns, req.busy_ns);
        assert_eq!(req.busy_ns, 2 * 119_000);
    }

    #[test]
    fn trace_json_parses_and_keeps_the_first_requests() {
        let mut t = Tracer::new();
        let now = Instant::now();
        for req in 5..9 {
            t.record(
                ("client.request", "remote"),
                req,
                now,
                now,
                false,
                Some((0, 0)),
            );
        }
        let json = chrome_trace_json(&t.spans, 2);
        let parsed = Json::parse(&json.to_string()).unwrap();
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("no traceEvents");
        };
        // 2 requests x 3 spans + 1 track name
        assert_eq!(events.len(), 7);
        assert!(Json::parse(&layers_json(&layers(&t.spans)).to_string()).is_ok());
    }
}
