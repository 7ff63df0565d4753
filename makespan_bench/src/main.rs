//! `makespan-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <result.json>] [--perfetto <trace.json>]`
//!
//! Measures one workload and prints one `name value unit` line per
//! metric, then, as the last line, the JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones.
//! `--list-workloads` prints every workload name.
//!
//! Refuses to run (exit code 2, no result) when a setting would change
//! what is measured: a coarse thread CPU clock, `DSS_MSML_LEVELS` set,
//! or `DSS_TRACE` switching tracing on.

use dss_net::cputime::thread_cpu_ns;
use dss_net::{trace, CostModel};
use dss_sort::Algorithm;
use makespan_bench::report::{json_num, json_str, metrics_json, peak_rss_mb};
use makespan_bench::{drivers, measure, spec, Outcome};
use std::process::{exit, Command};
use std::time::{Duration, Instant};

/// The coarsest thread CPU clock step the makespan can rest on.
const MAX_CLOCK_STEP_NS: u64 = 100_000;

fn refuse(msg: &str) -> ! {
    eprintln!("makespan-bench: {msg}");
    exit(2)
}

struct Args {
    workload: spec::WorkloadSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    perfetto: Option<String>,
    /// `--rss-probe <driver>`: sort once with that driver and print the
    /// process's peak RSS in MB.
    rss_probe: Option<Algorithm>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list-workloads") {
        for w in spec::workloads() {
            println!("{}", w.name);
        }
        exit(0);
    }
    let get = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |key: &str| get(key).unwrap_or_else(|| refuse(&format!("missing {key}")));
    let name = need("--workload");
    let workload = spec::workload(&name).unwrap_or_else(|| {
        let known: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
        refuse(&format!(
            "unknown workload {name}; known: {}",
            known.join(", ")
        ))
    });
    let seed = need("--seed")
        .parse()
        .unwrap_or_else(|_| refuse("--seed must be a non-negative integer"));
    let rss_probe = get("--rss-probe").map(|label| {
        spec::DRIVERS
            .into_iter()
            .find(|a| a.label() == label)
            .unwrap_or_else(|| refuse(&format!("unknown driver {label}")))
    });
    if rss_probe.is_some() {
        return Args {
            workload,
            seed,
            seconds: 0.0,
            traced: false,
            out: None,
            perfetto: None,
            rss_probe,
        };
    }
    let seconds: f64 = need("--seconds")
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .unwrap_or_else(|| refuse("--seconds must be a non-negative number"));
    let traced = match need("--trace").as_str() {
        "0" => false,
        "1" => true,
        other => refuse(&format!("--trace must be 0 or 1, got {other}")),
    };
    Args {
        workload,
        seed,
        seconds,
        traced,
        out: get("--out"),
        perfetto: get("--perfetto"),
        rss_probe,
    }
}

/// Smallest positive step of this thread's CPU clock.
fn cpu_clock_step_ns() -> u64 {
    let start = Instant::now();
    let mut step = u64::MAX;
    let mut steps = 0;
    let mut last = thread_cpu_ns();
    while steps < 200 && start.elapsed() < Duration::from_secs(2) {
        let now = thread_cpu_ns();
        if now > last {
            step = step.min(now - last);
            steps += 1;
            last = now;
        }
    }
    step
}

fn guards() -> u64 {
    if std::env::var_os("DSS_MSML_LEVELS").is_some() {
        refuse("DSS_MSML_LEVELS is set; it changes the grid MSML measures. Unset it.");
    }
    trace::init_from_env();
    if trace::enabled() {
        refuse("DSS_TRACE switches tracing on, which would slow the untraced sorts. Unset it.");
    }
    let step = cpu_clock_step_ns();
    if step > MAX_CLOCK_STEP_NS {
        refuse(&format!(
            "the thread CPU clock steps by {step} ns (limit {MAX_CLOCK_STEP_NS} ns); \
             every makespan is built from it"
        ));
    }
    step
}

fn result_json(a: &Args, o: &Outcome, clock_step_ns: u64, nproc: usize) -> String {
    let model = CostModel::default();
    let reps: Vec<String> = o
        .reps
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_str(k)))
        .collect();
    let quartiles: Vec<String> = o
        .makespan_quartiles_ms
        .iter()
        .map(|(k, q)| {
            format!(
                "{}: [{}, {}, {}]",
                json_str(k),
                json_num(q[0]),
                json_num(q[1]),
                json_num(q[2])
            )
        })
        .collect();
    let failures: Vec<String> = o.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n \
         \"config\": {{\"mode\": \"blocking\", \"threads_per_pe\": 1, \"p\": {}, \"nproc\": {nproc}, \
         \"alpha_ns\": {}, \"beta_ns_per_byte\": {}, \"cpu_clock_step_ns\": {clock_step_ns}, \
         \"strings\": {}, \"chars\": {}}},\n \"reps\": {{{}}},\n \"makespan_quartiles_ms\": {{{}}},\n \"failures\": [{}],\n \
         \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \"metrics\": {}}}\n",
        json_str(a.workload.name),
        a.seed,
        json_num(a.seconds),
        u8::from(a.traced),
        a.workload.p,
        json_num(model.alpha_ns),
        json_num(model.beta_ns_per_byte),
        o.strings,
        o.chars,
        reps.join(", "),
        quartiles.join(", "),
        failures.join(", "),
        o.failures.is_empty(),
        o.attempted,
        o.failures.len(),
        metrics_json(&o.metrics),
    )
}

fn write(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        refuse(&format!("cannot write {path}: {e}"));
    }
}

/// Runs `--rss-probe` in a child process of this executable.
fn probe_in_child(a: &Args, alg: Algorithm) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--rss-probe", alg.label(), "--workload", a.workload.name])
        .args(["--seed", &a.seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(mb) if out.status.success() => Ok(mb),
        _ => Err(format!(
            "exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn main() {
    let args = parse_args();
    if let Some(alg) = args.rss_probe {
        match drivers::sort_once(&args.workload, alg, args.seed, false) {
            Ok(_) => println!("{}", peak_rss_mb()),
            Err(e) => refuse(&e),
        }
        return;
    }
    let clock_step_ns = guards();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = CostModel::default();
    println!(
        "workload {} p={} seed={} mode=blocking threads_per_pe=1 nproc={nproc} \
         alpha_ns={} beta_ns_per_byte={} cpu_clock_step_ns={clock_step_ns}",
        args.workload.name, args.workload.p, args.seed, model.alpha_ns, model.beta_ns_per_byte
    );
    let o = measure(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        &|alg| probe_in_child(&args, alg),
    );
    for (k, n) in &o.reps {
        println!("reps {k} {n}");
    }
    for (k, q) in &o.makespan_quartiles_ms {
        println!("quartiles {k}.makespan_ms {} {} {}", q[0], q[1], q[2]);
    }
    for f in &o.failures {
        println!("FAILED {f}");
    }
    for (name, unit, value) in &o.metrics {
        println!("{name} {value} {unit}");
    }
    if let (Some(path), Some(json)) = (&args.perfetto, &o.perfetto) {
        write(path, json);
    }
    if let Some(path) = &args.out {
        write(path, &result_json(&args, &o, clock_step_ns, nproc));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failures.is_empty(),
        o.attempted,
        o.failures.len(),
        metrics_json(&o.metrics)
    );
}
