//! Traced sorts: span self times per layer and the Perfetto export.

use crate::drivers::sort_once;
use crate::model::{self, family};
use crate::spec::{WorkloadSpec, TRACE_GROUPS};
use dss_net::trace::{self, cat, Span, Trace};
use dss_net::CostModel;
use dss_sort::Algorithm;
use std::collections::BTreeMap;

/// One traced sort.
pub struct TracedRep {
    pub makespan_ns: f64,
    /// Self time per PE of each of [`TRACE_GROUPS`], in nanoseconds.
    pub self_ns: [f64; TRACE_GROUPS.len()],
    pub trace: Trace,
}

/// Runs `f` with span recording on and drains what it recorded.
pub fn record<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    trace::reset();
    trace::enable(trace::DEFAULT_SPAN_CAP);
    let out = f();
    trace::disable();
    (out, trace::take())
}

/// Sorts once with tracing on.
pub fn traced_rep(
    w: &WorkloadSpec,
    alg: Algorithm,
    seed: u64,
    model: &CostModel,
) -> Result<TracedRep, String> {
    let (rep, trace) = record(|| sort_once(w, alg, seed, true));
    let rep = rep?;
    let spans = trace::pair_spans(&trace)?;
    let mut self_ns = [0.0; TRACE_GROUPS.len()];
    for (group, ns) in sort_self_times(&trace, &spans) {
        self_ns[group] += ns as f64 / w.p as f64;
    }
    if trace.dropped > 0 {
        return Err(format!("{} spans dropped at the buffer cap", trace.dropped));
    }
    Ok(TracedRep {
        makespan_ns: model::makespan_ns(&rep.stats, model),
        self_ns,
        trace,
    })
}

/// The [`TRACE_GROUPS`] index a span counts toward, if any.
fn group_of(s: &Span) -> Option<usize> {
    let key = if s.cat == cat::PHASE {
        s.name.as_str()
    } else {
        s.cat
    };
    if s.cat == cat::PHASE && key != "local_sort" {
        return None;
    }
    TRACE_GROUPS.iter().position(|&g| g == key)
}

/// Self time (duration minus the direct children's durations) of every
/// span on a PE thread that starts inside that PE's sort, by group.
pub fn sort_self_times(trace: &Trace, spans: &[Span]) -> Vec<(usize, u64)> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    // `pair_spans` orders by (thread, start, longest first), so the
    // latest span seen one level up is the parent.
    let mut open: Vec<usize> = Vec::new();
    let mut tid = None;
    for (i, s) in spans.iter().enumerate() {
        if tid != Some(s.tid) {
            tid = Some(s.tid);
            open.clear();
        }
        open.truncate(s.depth);
        if s.depth > 0 {
            if let Some(&parent) = open.get(s.depth - 1) {
                self_ns[parent] = self_ns[parent].saturating_sub(s.dur_ns);
            }
        }
        open.push(i);
    }
    // Per PE thread: from the first sort phase to the next phase outside
    // the sort (the closing fence).
    let mut windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let phases = spans.iter().filter(|s| s.cat == cat::PHASE);
    for s in phases.clone().filter(|s| family(&s.name).is_some()) {
        let w = windows.entry(s.tid).or_insert((u64::MAX, u64::MAX));
        w.0 = w.0.min(s.start_ns);
    }
    for s in phases.filter(|s| family(&s.name).is_none()) {
        if let Some(w) = windows.get_mut(&s.tid) {
            if s.start_ns > w.0 {
                w.1 = w.1.min(s.start_ns);
            }
        }
    }
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| trace.thread_name(s.tid).starts_with("pe"))
        .filter_map(|(s, ns)| {
            let (begin, end) = windows.get(&s.tid)?;
            let inside = (*begin..*end).contains(&s.start_ns);
            Some((group_of(s).filter(|_| inside)?, ns))
        })
        .collect()
}

/// Chrome trace-event JSON of several drained traces, for Perfetto.
pub fn perfetto_json(traces: Vec<Trace>) -> Result<String, String> {
    let mut all = Trace::default();
    for t in traces {
        all.dropped += t.dropped;
        all.threads.extend(t.threads);
    }
    trace::chrome_trace_json(&all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_gen::Workload;

    #[test]
    fn traced_sort_reports_self_time_inside_the_sort() {
        let _serial = crate::SORTS.lock().expect("no test panicked while sorting");
        let w = WorkloadSpec {
            name: "tiny",
            p: 4,
            workload: Workload::DnRatio {
                n_per_pe: 500,
                len: 30,
                r: 0.3,
                sigma: 8,
            },
        };
        let rep = traced_rep(&w, Algorithm::Ms, 3, &CostModel::default()).expect("traced");
        assert!(!trace::enabled());
        assert!(rep.makespan_ns > 0.0);
        for (g, ns) in TRACE_GROUPS.iter().zip(rep.self_ns) {
            assert!(ns > 0.0, "no self time in {g}");
        }
        let json = perfetto_json(vec![rep.trace]).expect("balanced");
        assert!(json.contains("\"local_sort\""));
    }
}
