//! The repository's benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_burst --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed correctness
//! check exits with code 1, a run that could not measure with code 2.
//! See `perfbench/NOTES.md` for every metric and why each workload exists.

mod azure;
mod layer_sink;
mod live;
mod sim_burst;
mod util;

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use util::{Metrics, Spans, Verdict};

/// p99 limit, in simulated ms, that a load level of a simulated workload
/// must meet to count towards `max_rate_per_s`.
pub const SIM_LIMIT_MS: f64 = 10_000.0;

const WORKLOADS: [&str; 3] = ["sim_burst", "sim_azure_stream", "live_gateway"];
const SCHEDULERS: [&str; 6] = [
    "vanilla",
    "sfs",
    "kraken",
    "hiku",
    "core-late-bind",
    "faasbatch",
];
/// The two schedulers the `<vf>` metrics cover.
const VF: [&str; 2] = ["vanilla", "faasbatch"];

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start; span times are relative to it.
    pub origin: Instant,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("bad --seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; valid: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        origin: Instant::now(),
    })
}

/// End-to-end metrics and their units; every workload reports each.
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("inv_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_us_per_job", "us"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_containers", "count"),
    ("p50_ms.low", "ms"),
    ("p50_ms.mid", "ms"),
    ("p50_ms.high", "ms"),
    ("p99_ms.low", "ms"),
    ("p99_ms.mid", "ms"),
    ("p99_ms.high", "ms"),
    ("max_rate_per_s", "1/s"),
];

/// Per-layer metrics and their units. A layer a workload does not run
/// reports 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_owned(), unit));
    add("trace.gen_s", "s");
    add("trace.invocations", "count");
    for (prefix, unit) in [
        ("schedulers.host_s", "s"),
        ("simcore.events", "count"),
        ("simcore.us_per_event", "us"),
    ] {
        for s in SCHEDULERS {
            add(&format!("{prefix}.{s}"), unit);
        }
    }
    add("simcore.cpu_tasks", "count");
    for prefix in [
        "simcore.cpu_peak_tasks",
        "simcore.cpu_peak_groups",
        "schedulers.batch_size",
    ] {
        for s in SCHEDULERS {
            add(&format!("{prefix}.{s}"), "count");
        }
    }
    for (prefix, unit) in [
        ("schedulers.daemon_core_s", "s"),
        ("schedulers.sched_p99_ms", "ms"),
        ("container.cold_starts", "count"),
        ("container.restores", "count"),
        ("container.warm_hit_ratio", "ratio"),
        ("container.snapshot_hit_ratio", "ratio"),
        ("container.snapshot_evictions", "count"),
        ("container.peak_live", "count"),
    ] {
        for s in VF {
            add(&format!("{prefix}.{s}"), unit);
        }
    }
    add("core.mux_requests.faasbatch", "count");
    add("core.mux_hit_ratio.faasbatch", "ratio");
    for (prefix, unit) in [
        ("storage.clients_created", "count"),
        ("storage.client_mb", "MiB"),
    ] {
        for s in VF {
            add(&format!("{prefix}.{s}"), unit);
        }
    }
    for (name, unit) in [
        ("metrics.sink_batches", "count"),
        ("metrics.events_per_batch", "count"),
        ("metrics.sink_self_s", "s"),
        ("metrics.events_per_s", "1/s"),
        ("metrics.trace_overhead", "ratio"),
        ("metrics.audit_s", "s"),
        ("metrics.attribution_s", "s"),
        ("metrics.audit_violations", "count"),
        ("fleet.host_s", "s"),
        ("fleet.chunks", "count"),
        ("fleet.worker_load_cov", "ratio"),
        ("fleet.retries", "count"),
        ("exec.polls", "count"),
        ("exec.steals", "count"),
        ("exec.steal_ratio", "ratio"),
        ("exec.parks", "count"),
        ("exec.shed", "count"),
        ("exec.peak_in_flight", "count"),
        ("exec.timers_scheduled", "count"),
        ("exec.max_queue_depth", "count"),
        ("exec.max_injector_depth", "count"),
        ("core.batches", "count"),
        ("core.batch_size", "count"),
        ("core.containers_created", "count"),
        ("core.containers_evicted", "count"),
        ("core.cold_share", "ratio"),
        ("core.queued_p50_ms", "ms"),
        ("core.queued_p99_ms", "ms"),
        ("core.exec_p50_ms", "ms"),
        ("core.exec_p99_ms", "ms"),
        ("core.clients_created", "count"),
        ("gateway.invoke_p50_us", "us"),
        ("gateway.invoke_p99_us", "us"),
        ("gateway.rejected", "count"),
        ("gateway.routed_groups", "count"),
        ("gateway.group_size", "count"),
        ("gateway.peak_in_flight", "count"),
        ("gateway.shard_skew", "ratio"),
        ("metrics.render_ms", "ms"),
        ("metrics.families", "count"),
        ("loadgen.lag_p99_ms", "ms"),
        ("loadgen.lag_max_ms", "ms"),
        ("loadgen.attempted", "count"),
        ("error_rate", "ratio"),
    ] {
        add(name, unit);
    }
    out
}

/// Checks that `BENCHMARK.json` declares every metric this run reports.
fn check_declared(names: &[&str]) -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !declared.contains(&format!("\"{n}\"")))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json does not declare {}",
            missing.join(", ")
        ))
    }
}

fn run(args: &Args) -> Result<(Metrics, Verdict, Vec<String>), String> {
    let mut metrics = Metrics::default();
    let mut verdict = Verdict::default();
    let mut host = vec![
        format!("nproc={}", util::nproc()),
        format!("kernel={}", util::kernel()),
    ];
    let steal_before = util::steal_ticks()?;
    if args.trace {
        let mut spans = Spans::new(args.origin);
        match args.workload.as_str() {
            "sim_burst" => sim_burst::run_traced(args, &mut metrics, &mut verdict, &mut spans)?,
            "sim_azure_stream" => azure::run_traced(args, &mut metrics, &mut verdict, &mut spans)?,
            _ => live::run_traced(args, &mut metrics, &mut verdict, &mut spans, &mut host)?,
        }
        metrics.set(
            "error_rate",
            util::ratio(verdict.failed as f64, verdict.attempted as f64),
        );
        let path = format!("perfbench/out/spans-{}.jsonl", args.workload);
        spans.write_jsonl(Path::new(&path))?;
        host.push(format!("spans={} written to {path}", spans.len()));
        for (layer, s) in spans.self_seconds() {
            host.push(format!("self_s {layer} = {s:.6}"));
        }
    } else {
        match args.workload.as_str() {
            "sim_burst" => sim_burst::run(args, &mut metrics, &mut verdict, &mut host)?,
            "sim_azure_stream" => azure::run(args, &mut metrics, &mut verdict, &mut host)?,
            _ => live::run(args, &mut metrics, &mut verdict, &mut host)?,
        }
        metrics.set("peak_rss_mb", util::peak_rss_mb()?);
    }
    let steal_after = util::steal_ticks()?;
    host.push(format!(
        "cpu_steal={:.2}%",
        100.0
            * util::ratio(
                (steal_after.0 - steal_before.0) as f64,
                (steal_after.1 - steal_before.1) as f64
            )
    ));
    Ok((metrics, verdict, host))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let catalogue: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let names: Vec<&str> = catalogue.iter().map(|(n, _)| n.as_str()).collect();
    let outcome = check_declared(&names).and_then(|()| run(&args));
    let (metrics, verdict, host) = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &host {
        println!("host {line}");
    }
    let mut json = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("error: the run did not measure {name}");
                std::process::exit(2);
            }
        };
        if !value.is_finite() {
            eprintln!("error: metric {name} is not finite ({value})");
            std::process::exit(2);
        }
        println!("metric {name} = {value} {unit}");
        if i > 0 {
            json.push(',');
        }
        write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            .expect("formatting into a String never fails");
    }
    let mut verdict = verdict;
    verdict.check(verdict.attempted > 0, || {
        "the run attempted nothing".to_owned()
    });
    for e in &verdict.errors {
        eprintln!("check failed: {e}");
    }
    let correct = verdict.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        verdict.attempted, verdict.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
