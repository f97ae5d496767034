//! In-memory span recorder for the traced run. A span is opened around
//! each call into one of the program's layers; spans nest through the
//! closure the recorder passes down, so every span knows its parent.
//! Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: its name (`layer.operation`), its start and end in
/// nanoseconds since the recorder was created, and the span that made it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Single-threaded: the traced run drives every layer
/// from one thread, so children never overlap each other.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open = Some(id);
        let out = f(self);
        self.open = parent;
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Render every span as CSV (`id,parent,name,start_ns,end_ns`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,name,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            out.push_str(&format!(
                "{i},{parent},{},{},{}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one span run one after another on one thread, so
/// their durations never overlap and simply subtract.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// True when span `i` lies in the tree rooted at `root`.
fn within(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Seconds of self time per span name, over the descendants of `root`
/// (the root's own self time is glue between layer calls, not a layer).
pub fn self_seconds_by_name(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if i != root && within(spans, i, root) {
            *out.entry(s.name).or_insert(0.0) += own[i] as f64 / 1e9;
        }
    }
    out
}

/// The reconciliation behind `exec.unattributed_s`: the untraced
/// single-thread sweep time minus the summed self time of every layer
/// span under `root`. What is left is executor work no layer call covers
/// (negative when the traced walk is slower than the executor).
pub fn unattributed_s(sweep_1t_s: f64, spans: &[Span], root: usize) -> f64 {
    sweep_1t_s - self_seconds_by_name(spans, root).values().sum::<f64>()
}

/// The root span with the given name (the last one, if recorded twice).
pub fn find_root(spans: &[Span], name: &str) -> Option<usize> {
    spans
        .iter()
        .rposition(|s| s.parent.is_none() && s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    /// root [0, 100]: a [10, 40] (with a.child [15, 25]), b [50, 90].
    fn tree() -> Vec<Span> {
        vec![
            span("exec", 0, 100, None),
            span("a.x", 10, 40, Some(0)),
            span("a.child", 15, 25, Some(1)),
            span("b.y", 50, 90, Some(0)),
            span("probe", 100, 300, None),
            span("a.x", 110, 200, Some(4)),
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_times_ns(&tree()), vec![30, 20, 10, 40, 110, 90]);
    }

    #[test]
    fn layer_seconds_cover_only_the_root_tree() {
        let by = self_seconds_by_name(&tree(), 0);
        assert_eq!(by.len(), 3);
        assert!((by["a.x"] - 20e-9).abs() < 1e-18);
        assert!((by["a.child"] - 10e-9).abs() < 1e-18);
        assert!((by["b.y"] - 40e-9).abs() < 1e-18);
    }

    #[test]
    fn unattributed_is_wall_minus_layer_self_times() {
        // Layers cover 70 ns of the 100 ns root; the untraced sweep took
        // 90 ns, so 20 ns belong to no layer.
        let u = unattributed_s(90e-9, &tree(), 0);
        assert!((u - 20e-9).abs() < 1e-18, "{u}");
        // A traced walk slower than the untraced sweep goes negative.
        assert!(unattributed_s(50e-9, &tree(), 0) < 0.0);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut t = Tracer::new();
        let v = t.span("exec", |t| {
            t.span("a.x", |t| t.span("a.child", |_| 1)) + t.span("b.y", |_| 2)
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| (s.name, s.parent)).collect::<Vec<_>>(),
            vec![
                ("exec", None),
                ("a.x", Some(0)),
                ("a.child", Some(1)),
                ("b.y", Some(0))
            ]
        );
        for x in s {
            assert!(x.start_ns <= x.end_ns);
            if let Some(p) = x.parent {
                assert!(s[p].start_ns <= x.start_ns && x.end_ns <= s[p].end_ns);
            }
        }
        assert_eq!(find_root(s, "exec"), Some(0));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.lines().nth(2).unwrap().starts_with("1,0,a.x,"));
    }
}
