//! In-memory span recorder for the traced runs.
//!
//! A span is (name, start, end, parent, op id). Spans are kept in a
//! vector while the run executes and written out as JSON when it ends;
//! a layer's self time is the sum of its spans' durations minus the part
//! covered by their child spans.

use repf_metrics::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Where result records and span dumps go: inside the checkout, under
/// the build directory that version control ignores.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_build").join("perfbench-out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded under this name.
    pub calls: u64,
    /// Σ span durations minus the time their children cover (seconds).
    pub self_s: f64,
}

pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing (the untraced runs).
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for operation `op`. Spans
    /// opened inside `f` become its children.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Rename the most recently closed span named `from` (used when the
    /// layer a call belongs to is only known from its result, e.g. a
    /// model lookup that turned out to be a fit).
    pub fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }

    /// Calls and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as `[name, start_ns, end_ns, parent, op]`.
    pub fn write(&self, file: &str) {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(s.name),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    Json::Num(s.op as f64),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("columns", Json::str("name,start_ns,end_ns,parent,op")),
            ("spans", Json::Arr(rows)),
        ]);
        let path = out_dir().join(file);
        if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}
