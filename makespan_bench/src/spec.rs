//! What the benchmark runs and what it reports: the workloads, the six
//! drivers and every metric name with its unit.

use crate::model::Family;
use dss_gen::Workload;
use dss_sort::Algorithm;

/// One benchmark workload: a generator and the simulated machine size.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub p: usize,
    pub workload: Workload,
}

/// Every workload, in report order.
pub fn workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "dn-short",
            p: 16,
            workload: Workload::DnRatio {
                n_per_pe: 20_000,
                len: 40,
                r: 0.1,
                sigma: 26,
            },
        },
        WorkloadSpec {
            name: "dn-long",
            p: 16,
            workload: Workload::DnRatio {
                n_per_pe: 5_000,
                len: 400,
                r: 0.9,
                sigma: 26,
            },
        },
        WorkloadSpec {
            name: "web-small",
            p: 64,
            workload: Workload::Web { n_per_pe: 1_000 },
        },
    ]
}

pub fn workload(name: &str) -> Option<WorkloadSpec> {
    workloads().into_iter().find(|w| w.name == name)
}

/// The six merge-based drivers, in report order.
pub const DRIVERS: [Algorithm; 6] = [
    Algorithm::Ms,
    Algorithm::Pdms,
    Algorithm::Ms2l,
    Algorithm::Msml,
    Algorithm::PdMs2l,
    Algorithm::PdMsml,
];

/// The drivers whose traced runs report span self times.
pub const TRACED_DRIVERS: [Algorithm; 2] = [Algorithm::Ms, Algorithm::PdMsml];

/// Span groups whose self time the traced run reports. `local_sort` is
/// the phase span of the local sort: at one thread per PE the
/// work-stealing sort, the only emitter of `sort-task` spans, never runs.
pub const TRACE_GROUPS: [&str; 5] = ["encode", "decode", "merge", "local_sort", "coll"];

pub fn has_prefix_doubling(a: Algorithm) -> bool {
    matches!(a, Algorithm::Pdms | Algorithm::PdMs2l | Algorithm::PdMsml)
}

pub fn has_grid(a: Algorithm) -> bool {
    matches!(
        a,
        Algorithm::Ms2l | Algorithm::Msml | Algorithm::PdMs2l | Algorithm::PdMsml
    )
}

/// A metric name with its unit.
pub type MetricDef = (String, &'static str);

/// End-to-end metrics, printed by untraced runs.
pub fn e2e_metrics() -> Vec<MetricDef> {
    let mut out = Vec::new();
    for a in DRIVERS {
        out.push((format!("{}.makespan_ms", a.label()), "ms"));
    }
    for a in DRIVERS {
        out.push((format!("{}.wire_bytes_per_string", a.label()), "B/str"));
    }
    out.push(("setup_s".into(), "s"));
    out.push(("peak_rss_mb".into(), "MB"));
    out.push(("check_pass_share".into(), "ratio"));
    out
}

/// A statistic of one phase family in the untraced driver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyStat {
    CpuMs,
    Rounds,
    MsgsPerPe,
    BytesPerString,
}

impl FamilyStat {
    /// Metric-name component.
    pub fn label(self) -> &'static str {
        match self {
            FamilyStat::CpuMs => "cpu_ms",
            FamilyStat::Rounds => "rounds",
            FamilyStat::MsgsPerPe => "msgs_per_pe",
            FamilyStat::BytesPerString => "bytes_per_string",
        }
    }

    pub fn unit(self) -> &'static str {
        match self {
            FamilyStat::CpuMs => "ms",
            FamilyStat::Rounds => "count",
            FamilyStat::MsgsPerPe => "msg/PE",
            FamilyStat::BytesPerString => "B/str",
        }
    }
}

/// The family statistics reported for driver `a`, in report order: the
/// layers it runs, each with the statistics that layer can move.
pub fn family_stats(a: Algorithm) -> Vec<(Family, FamilyStat)> {
    use FamilyStat::*;
    let mut out = vec![(Family::LocalSort, CpuMs)];
    if has_prefix_doubling(a) {
        out.extend([
            (Family::PrefixDoubling, CpuMs),
            (Family::PrefixDoubling, Rounds),
            (Family::PrefixDoubling, BytesPerString),
        ]);
    }
    if has_grid(a) {
        out.extend([(Family::GridSetup, CpuMs), (Family::GridSetup, Rounds)]);
    }
    out.extend([
        (Family::Partition, CpuMs),
        (Family::Partition, Rounds),
        (Family::Partition, BytesPerString),
        (Family::Exchange, CpuMs),
        (Family::Exchange, Rounds),
        (Family::Exchange, MsgsPerPe),
        (Family::Exchange, BytesPerString),
    ]);
    out
}

/// Per-layer metrics, printed by traced runs.
pub fn per_layer_metrics() -> Vec<MetricDef> {
    let mut out = Vec::new();
    for a in DRIVERS {
        let l = a.label();
        for (f, stat) in family_stats(a) {
            out.push((format!("{l}.{}.{}", f.label(), stat.label()), stat.unit()));
        }
        out.push((format!("{l}.comm_model_ms"), "ms"));
        out.push((format!("{l}.cpu_imbalance"), "ratio"));
    }
    for (name, unit) in [
        ("strkit.sort_ms", "ms"),
        ("strkit.chars_inspected_share", "ratio"),
        ("strkit.sort_bytes_copied", "B"),
        ("strkit.merge_ms", "ms"),
        ("strkit.merge_bytes_copied", "B"),
        ("strkit.par_merge_bytes_copied", "B"),
        ("codec.encode_ns_per_string", "ns/str"),
        ("codec.decode_ns_per_string", "ns/str"),
        ("codec.lcp_bytes_per_string", "B/str"),
        ("dedup.prefix_doubling_ms", "ms"),
        ("dedup.dist_prefix_share", "ratio"),
        ("partition.splitters_ms", "ms"),
        ("partition.bucket_imbalance", "ratio"),
        ("exchange.merge_ms", "ms"),
        ("exchange.bytes_copied", "B"),
        ("exchange.allocs", "count"),
        ("net.grid_setup_ms", "ms"),
        ("net.partners_per_pe", "count"),
    ] {
        out.push((name.into(), unit));
    }
    for a in TRACED_DRIVERS {
        for g in TRACE_GROUPS {
            out.push((format!("{}.trace.{g}.self_ms", a.label()), "ms"));
        }
    }
    out.push(("trace.overhead_ratio".into(), "ratio"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_are_valid_unique_and_within_limits() {
        let e2e = e2e_metrics();
        let layer = per_layer_metrics();
        assert_eq!(e2e.len(), 15);
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut seen = BTreeSet::new();
        for (name, unit) in e2e.iter().chain(&layer) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && *u == "s"));
        for w in workloads() {
            assert!(valid_name(w.name));
        }
    }

    /// Every `"name": "…"` value in the repository's BENCHMARK.json.
    fn spec_names(section: &str, json: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("name value") + 1..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            // The package also builds from a checkout of its own directory.
            return;
        };
        let names = |defs: Vec<MetricDef>| defs.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(spec_names("end_to_end", &json), names(e2e_metrics()));
        assert_eq!(spec_names("per_layer", &json), names(per_layer_metrics()));
        let wl: Vec<String> = workloads().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(spec_names("workloads", &json), wl);
        for (name, unit) in e2e_metrics().iter().chain(&per_layer_metrics()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "BENCHMARK.json unit of {name} is not {unit}"
            );
        }
    }
}
