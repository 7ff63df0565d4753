//! Folding measured reps into metric values, and JSON output.

use crate::drivers::DriverRuns;
use crate::model::SortCost;
use crate::spec::{family_stats, FamilyStat};
use std::collections::BTreeMap;

/// First quartile, median and third quartile of `v` (linear
/// interpolation between order statistics); `None` when empty.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    (!s.is_empty()).then(|| [at(0.25), at(0.5), at(0.75)])
}

/// Median of `v` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    quartiles(v).map(|q| q[1])
}

pub type Values = BTreeMap<String, f64>;

/// The end-to-end metrics of untraced driver runs.
pub fn e2e_values(runs: &[DriverRuns], peak_rss_mb: f64) -> Values {
    let mut v = Values::new();
    for r in runs {
        let l = r.alg.label();
        if let Some(m) = median(&r.makespans_ns) {
            v.insert(format!("{l}.makespan_ms"), m / 1e6);
        }
        if r.strings > 0 {
            v.insert(
                format!("{l}.wire_bytes_per_string"),
                r.wire_bytes as f64 / r.strings as f64,
            );
        }
    }
    let setups: Vec<f64> = runs.iter().flat_map(|r| r.setups_ns.clone()).collect();
    if let Some(s) = median(&setups) {
        v.insert("setup_s".into(), s / 1e9);
    }
    v.insert("peak_rss_mb".into(), peak_rss_mb);
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.failures.len()).sum();
    v.insert(
        "check_pass_share".into(),
        (attempted as f64 - failed as f64) / attempted.max(1) as f64,
    );
    v
}

/// The per-layer metrics of untraced driver runs: medians over reps of
/// each family's CPU and model terms, and the (repeating) counters.
pub fn driver_layer_values(runs: &[DriverRuns]) -> Values {
    let mut v = Values::new();
    for r in runs {
        let Some(last) = r.costs.last() else { continue };
        let l = r.alg.label();
        let med = |f: &dyn Fn(&SortCost) -> f64| median(&r.costs.iter().map(f).collect::<Vec<_>>());
        let per_string = |bytes: u64| bytes as f64 / r.strings.max(1) as f64;
        for (fam, stat) in family_stats(r.alg) {
            let value = match stat {
                FamilyStat::CpuMs => med(&|c| c.family(fam).cpu_max_ns).map(|ns| ns / 1e6),
                FamilyStat::Rounds => Some(last.family(fam).rounds as f64),
                FamilyStat::MsgsPerPe => {
                    Some(last.family(fam).msgs_sent as f64 / last.num_pes.max(1) as f64)
                }
                FamilyStat::BytesPerString => Some(per_string(last.family(fam).bytes_sent)),
            };
            if let Some(x) = value {
                v.insert(format!("{l}.{}.{}", fam.label(), stat.label()), x);
            }
        }
        if let Some(m) = med(&|c| c.comm_model_ns()) {
            v.insert(format!("{l}.comm_model_ms"), m / 1e6);
        }
        if let Some(m) = med(&|c| c.cpu_imbalance()) {
            v.insert(format!("{l}.cpu_imbalance"), m);
        }
    }
    v
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit Rust's shortest round-trip formatting
/// gives, and `null` for values JSON cannot hold.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, …}` in the given order.
pub fn metrics_json(metrics: &[(String, &'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_json_helpers() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), Some([2.0, 3.0, 4.0]));
        assert_eq!(json_num(0.1), "0.1");
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(
            metrics_json(&[("x.y".into(), "ms", 1.5)]),
            "{\"x.y\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
