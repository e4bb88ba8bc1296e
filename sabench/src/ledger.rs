//! The per-layer host-time ledger: span trees in, self time per layer
//! out.
//!
//! Span trees come from two places: the in-process
//! [`sa_profile::ProfileTree`] a traced simulation fills, and the JSON
//! tree sa-serve answers on `GET /profile`. Both are converted to
//! [`Span`] so one self-time rule applies to both: a span's self time is
//! its duration minus the part its children cover (never negative).

use std::collections::BTreeMap;

use sa_metrics::JsonValue;
use sa_profile::ProfileTree;

/// One aggregated span: every entry of `name` under the same parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub total_ns: u64,
    pub count: u64,
    pub children: Vec<Span>,
}

impl Span {
    /// Self time: total minus the children's totals, clamped at zero
    /// (a manually recorded child can nominally exceed its parent).
    pub fn self_ns(&self) -> u64 {
        let kids: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(kids)
    }

    /// The direct child named `name`.
    pub fn child(&self, name: &str) -> Option<&Span> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// The roots of a profiler tree.
pub fn from_tree(tree: &ProfileTree) -> Vec<Span> {
    fn node(tree: &ProfileTree, idx: usize) -> Span {
        let n = tree.node(idx);
        Span {
            name: n.name.clone(),
            total_ns: n.total_ns,
            count: n.count,
            children: tree.children(idx).iter().map(|&c| node(tree, c)).collect(),
        }
    }
    tree.roots().iter().map(|&r| node(tree, r)).collect()
}

/// The roots of a `GET /profile` answer
/// (`{"total_ns":N,"roots":[{name,total_ns,count,children:[…]}…]}`).
pub fn from_json(text: &str) -> Result<Vec<Span>, String> {
    fn node(v: &JsonValue) -> Result<Span, String> {
        let field = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        Ok(Span {
            name: v
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("span without a name")?
                .to_string(),
            total_ns: field("total_ns").ok_or("span without total_ns")?,
            count: field("count").ok_or("span without count")?,
            children: v
                .get("children")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(node)
                .collect::<Result<_, _>>()?,
        })
    }
    let v = JsonValue::parse(text)?;
    v.get("roots")
        .and_then(JsonValue::as_arr)
        .ok_or("profile without roots")?
        .iter()
        .map(node)
        .collect()
}

/// Self nanoseconds summed by span name over the whole forest: a name
/// entered under several parents (`sq_search` runs under both
/// `sched_scan` and `lsq_retry`) is one layer.
pub fn self_ns_by_name(roots: &[Span]) -> BTreeMap<String, u64> {
    fn walk(s: &Span, out: &mut BTreeMap<String, u64>) {
        *out.entry(s.name.clone()).or_default() += s.self_ns();
        for c in &s.children {
            walk(c, out);
        }
    }
    let mut out = BTreeMap::new();
    for r in roots {
        walk(r, &mut out);
    }
    out
}

/// Total nanoseconds the roots account for.
pub fn covered_ns(roots: &[Span]) -> u64 {
    roots.iter().map(|r| r.total_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, total_ns: u64, children: Vec<Span>) -> Span {
        Span {
            name: name.to_string(),
            total_ns,
            count: 1,
            children,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let tick = span(
            "tick",
            100,
            vec![
                span("sched_scan", 30, vec![span("sq_search", 10, vec![])]),
                span("lsq_retry", 20, vec![span("sq_search", 5, vec![])]),
            ],
        );
        assert_eq!(tick.self_ns(), 50);
        let by_name = self_ns_by_name(&[span("event", 120, vec![tick])]);
        assert_eq!(by_name["event"], 20);
        assert_eq!(by_name["tick"], 50);
        assert_eq!(by_name["sched_scan"], 20);
        assert_eq!(by_name["lsq_retry"], 15);
        // One layer, two parents.
        assert_eq!(by_name["sq_search"], 15);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let s = span("job", 10, vec![span("queue_wait", 25, vec![])]);
        assert_eq!(s.self_ns(), 0);
    }

    #[test]
    fn profiler_tree_and_json_agree() {
        let (_, tree) = sa_profile::capture(|| {
            use sa_profile::{Profiler, WallProfiler};
            let _run = WallProfiler::span("run");
            let _tick = WallProfiler::span("tick");
            WallProfiler::sample_ns("frontend", 7);
        });
        let a = from_tree(&tree);
        let b = from_json(&tree.to_json()).expect("profiler JSON parses");
        assert_eq!(a, b);
        assert_eq!(
            a[0].child("tick")
                .unwrap()
                .child("frontend")
                .unwrap()
                .total_ns,
            7
        );
        assert_eq!(covered_ns(&a), tree.total_ns());
    }
}
