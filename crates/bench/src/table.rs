//! Plain-text tables and CSV output for the experiment binaries.

use crate::harness::Measurement;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Renders results as an aligned table, grouped the way the paper's
/// figures read: one block per workload, rows = (p, algorithm).
pub fn print_table(title: &str, results: &[Measurement]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let mut workloads: Vec<&str> = results.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    for w in workloads {
        let _ = writeln!(out, "\n[{w}]");
        let _ = writeln!(
            out,
            "{:>6} {:<16} {:>12} {:>10} {:>10} {:>10} {:>14} {:>7}",
            "p",
            "algorithm",
            "modeled(ms)",
            "comp(ms)",
            "comm(ms)",
            "wall(ms)",
            "bytes/string",
            "check"
        );
        for r in results.iter().filter(|r| r.workload == w) {
            let _ = writeln!(
                out,
                "{:>6} {:<16} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>14.1} {:>7}",
                r.p,
                r.label,
                r.modeled().as_secs_f64() * 1e3,
                r.compute().as_secs_f64() * 1e3,
                r.comm_modeled().as_secs_f64() * 1e3,
                r.wall.as_secs_f64() * 1e3,
                r.bytes_per_string(),
                r.check_label()
            );
        }
    }
    out
}

/// Writes results as CSV (one row per cell, with the per-phase modeled
/// times folded into a `phase:ms;…` field). `wall_ms` is the max-PE wall
/// time of the sort region; `check` is `ok`, `FAIL` or `skipped`.
pub fn write_csv(path: &Path, results: &[Measurement]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = String::from(
        "workload,p,algorithm,n,n_chars,modeled_ms,compute_ms,comm_ms,wall_ms,bytes_sent,bytes_per_string,check,phases\n",
    );
    for r in results {
        let phases: String = r
            .stats
            .modeled_phase_times(&r.model)
            .iter()
            .map(|(n, d)| format!("{n}:{:.3}", d.as_secs_f64() * 1e3))
            .collect::<Vec<_>>()
            .join(";");
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{},{:.2},{},{}",
            r.workload,
            r.p,
            r.label,
            r.n,
            r.chars,
            r.modeled().as_secs_f64() * 1e3,
            r.compute().as_secs_f64() * 1e3,
            r.comm_modeled().as_secs_f64() * 1e3,
            r.wall.as_secs_f64() * 1e3,
            r.stats.total_bytes_sent(),
            r.bytes_per_string(),
            r.check_label(),
            phases
        );
    }
    fs::write(path, out)
}

/// Ratio helper for the paper's headline claims ("X times faster than Y
/// at the largest configuration").
pub fn speedup_at(
    results: &[Measurement],
    p: usize,
    workload: &str,
    base: &str,
    best_of: &[&str],
) -> Option<f64> {
    let base_t = results
        .iter()
        .find(|r| r.p == p && r.workload == workload && r.label == base)?
        .modeled()
        .as_secs_f64();
    let best_t = results
        .iter()
        .filter(|r| r.p == p && r.workload == workload && best_of.contains(&r.label))
        .map(|r| r.modeled().as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    (best_t.is_finite() && best_t > 0.0).then(|| base_t / best_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use dss_net::metrics::{PhaseCounters, PhaseSummary};
    use dss_net::{CostModel, NetStats};
    use std::time::Duration;

    fn dummy(alg: &'static str, p: usize, modeled_ms: u64) -> Measurement {
        let ms = |v: u64| v * 1_000_000;
        let phase = PhaseSummary {
            name: "x".into(),
            total: PhaseCounters {
                bytes_sent: 1000,
                ..PhaseCounters::default()
            },
            max: PhaseCounters {
                compute_ns: ms(modeled_ms),
                ..PhaseCounters::default()
            },
        };
        Measurement {
            label: alg,
            workload: "W".into(),
            p,
            n: 10,
            chars: 100,
            stats: NetStats {
                num_pes: p,
                phases: vec![phase],
                wall: Duration::from_millis(1),
            },
            model: CostModel::default(),
            wall: Duration::from_millis(1),
            counters: Counters::default(),
            overlap_ratio: None,
            trace: None,
            check: Some(Ok(())),
        }
    }

    #[test]
    fn table_contains_all_rows() {
        let rows = vec![dummy("A", 2, 10), dummy("B", 2, 20)];
        let t = print_table("t", &rows);
        assert!(t.contains("A") && t.contains("B") && t.contains("[W]"));
    }

    #[test]
    fn speedup_computes_ratio() {
        let rows = vec![
            dummy("slow", 4, 100),
            dummy("fast", 4, 20),
            dummy("faster", 4, 10),
        ];
        let s = speedup_at(&rows, 4, "W", "slow", &["fast", "faster"]).unwrap();
        assert!((s - 10.0).abs() < 1e-9);
        assert!(speedup_at(&rows, 8, "W", "slow", &["fast"]).is_none());
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("dss_bench_test");
        let path = dir.join("out.csv");
        write_csv(&path, &[dummy("A", 2, 5)]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        let row = content.lines().nth(1).unwrap();
        assert!(row.starts_with("W,2,A,10,100,5.000,"), "{row}");
        assert!(row.ends_with(",1000,100.00,ok,x:5.000"), "{row}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
