//! `faasbatch` — command-line front end for the reproduction.
//!
//! Every subcommand declares its flags in one [`Command`] table (name,
//! value placeholder, default, help); the usage text, the option parser,
//! and every default are read from those tables. Run `faasbatch help` for
//! the generated usage.

use faasbatch::container::snapshot::{EvictionPolicy, SnapshotConfig};
use faasbatch::core::policy::FaasBatchConfig;
use faasbatch::core::scheduler_kind::{run_kinds, KindRun, SchedulerKind, SchedulerSetup};
use faasbatch::fleet::config::{FaultKind, FleetConfig, WorkerFault};
use faasbatch::fleet::routing::RoutingKind;
use faasbatch::fleet::sim::run_fleet;
use faasbatch::metrics::analysis::{
    diff_reports, load_events, AttributionEngine, AttributionReport,
};
use faasbatch::metrics::autoscaler::{AutoscalerConfig, AutoscalerSink};
use faasbatch::metrics::events::{
    chrome_trace_to, AuditorSink, MultiSink, SimEvent, TraceSink, VecSink,
};
use faasbatch::metrics::report::{text_table, RunReport};
use faasbatch::schedulers::config::SimConfig;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::arrival::{bin_counts, burstiness};
use faasbatch::trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use std::collections::HashMap;
use std::process::ExitCode;

type Str = &'static str;

/// One flag of a subcommand.
struct Flag {
    /// The flag as typed, e.g. `--seed`.
    name: Str,
    /// Placeholder for the flag's value in the usage; `None` marks a
    /// boolean flag that takes no value.
    metavar: Option<Str>,
    /// The value used when the flag is absent; `None` when there is none.
    default: Option<Str>,
    /// One line of help.
    help: Str,
}

/// A flag that takes a value and has a default.
const fn value(name: Str, metavar: Str, default: Str, help: Str) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        default: Some(default),
        help,
    }
}

/// A flag that takes a value and has no default.
const fn optional(name: Str, metavar: Str, help: Str) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        default: None,
        help,
    }
}

/// A boolean flag: present means true.
const fn switch(name: Str, help: Str) -> Flag {
    Flag {
        name,
        metavar: None,
        default: None,
        help,
    }
}

/// A subcommand: its flag table, usage lines, and entry point.
struct Command {
    /// The words that select it, e.g. `compare` or `live --gateway`.
    name: Str,
    /// Positional arguments in the usage line (empty: none accepted).
    positionals: Str,
    /// What the command does.
    about: Str,
    /// Its flags, as slices so commands can share groups of them.
    flags: &'static [&'static [Flag]],
    /// Runs the command on its parsed options.
    run: fn(&Options) -> Result<(), String>,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }
}

/// Per-kind workload defaults: kind, invocations, span (s), bursts.
const WORKLOAD_KINDS: [(&str, usize, u64, usize); 2] = [("cpu", 800, 60, 6), ("io", 400, 30, 4)];

/// Flags of every command that generates a workload.
#[rustfmt::skip]
const WORKLOAD_FLAGS: &[Flag] = &[
    value("--workload", "KIND", "cpu", "workload kind, cpu|io"),
    value("--seed", "N", "2023", "workload RNG seed"),
    optional("--total", "N", "invocations (default: 800 for cpu, 400 for io)"),
    optional("--span-s", "N", "arrival span in seconds (default: 60 for cpu, 30 for io)"),
    value("--functions", "N", "8", "distinct functions"),
    optional("--bursts", "N", "arrival bursts (default: 6 for cpu, 4 for io)"),
    value("--heterogeneity", "H", "0.0", "per-function duration heterogeneity"),
];

/// Flags of every command that replays a workload in the simulator.
#[rustfmt::skip]
const REPLAY_FLAGS: &[Flag] = &[
    value("--window-ms", "N", "200", "dispatch window in ms (at least 1)"),
    optional("--import", "FILE", "replay a workload exported by `workload --export`"),
];

/// The snapshot-restore start tier of the single-worker simulator.
#[rustfmt::skip]
const SNAPSHOT_FLAGS: &[Flag] = &[
    value("--snapshot-cap", "N", "0", "snapshot cache slots (0 = tier off)"),
    value("--snapshot-eviction", "EVICTION", "lru", "snapshot cache eviction policy"),
];

/// Flags of both `live` modes.
#[rustfmt::skip]
const LIVE_FLAGS: &[Flag] = &[
    value("--batch-size", "N", "100", "invocations per function"),
    value("--window-ms", "N", "25", "dispatch window in ms"),
    value("--cold-ms", "N", "2", "cold-start delay in ms"),
    value("--work-us", "N", "250", "handler sleep per invocation in µs"),
    switch("--audit", "audit and attribute the emitted event stream"),
    optional("--out", "FILE", "export the event stream as JSONL"),
    optional("--metrics-addr", "HOST:PORT", "serve Prometheus /metrics and /json"),
    value("--serve-ms", "N", "0", "hold the metrics endpoint open after the burst"),
    optional("--flight-record", "FILE", "dump a ring of recent events as JSONL on exit"),
    value("--flight-capacity", "N", "262144", "flight recorder ring size"),
];

/// Every subcommand, in usage order.
#[rustfmt::skip]
const COMMANDS: [Command; 11] = [
    Command {
        name: "compare",
        positionals: "",
        about: "replay one workload under every SCHEDULER",
        flags: &[WORKLOAD_FLAGS, REPLAY_FLAGS, SNAPSHOT_FLAGS, &[
            switch("--no-multiplex", "turn FaaSBatch's resource multiplexer off"),
        ]],
        run: cmd_compare,
    },
    Command {
        name: "workload",
        positionals: "",
        about: "generate a workload and print its statistics",
        flags: &[WORKLOAD_FLAGS, &[
            optional("--export", "FILE", "write the workload as JSON"),
        ]],
        run: cmd_workload,
    },
    Command {
        name: "fleet",
        positionals: "",
        about: "replay one workload across a fleet of workers, with optional faults",
        flags: &[WORKLOAD_FLAGS, REPLAY_FLAGS, &[
            value("--workers", "N", "4", "fleet size"),
            value("--policy", "POLICY", "least-loaded", "routing policy"),
            value("--scheduler", "SCHEDULER", "faasbatch", "scheduler of every worker"),
            value("--max-retries", "N", "3", "re-dispatch budget per invocation"),
            value("--redispatch-ms", "N", "50", "delay before a crash's re-dispatch"),
            optional("--crash", "W@MS[,W@MS…]", "crash worker W at MS ms"),
            optional("--drain", "W@MS[,W@MS…]", "drain worker W at MS ms"),
        ]],
        run: cmd_fleet,
    },
    Command {
        name: "trace",
        positionals: "",
        about: "replay under one scheduler; audit, attribute, and export the event stream",
        flags: &[WORKLOAD_FLAGS, REPLAY_FLAGS, SNAPSHOT_FLAGS, &[
            value("--scheduler", "SCHEDULER", "faasbatch", "scheduler to trace"),
            switch("--no-multiplex", "turn FaaSBatch's resource multiplexer off"),
            optional("--out", "FILE", "JSONL path (default: results/trace_SCHEDULER.jsonl)"),
            optional("--chrome", "FILE", "also write a Chrome about:tracing timeline"),
            optional("--analyze", "FILE", "instead attribute an existing JSONL log offline"),
        ]],
        run: cmd_trace,
    },
    Command {
        name: "trace-diff",
        positionals: "A.jsonl B.jsonl",
        about: "attribute the latency delta between two event logs to named phases",
        flags: &[&[
            value("--top", "K", "10", "invocations with the largest deltas to list"),
            optional("--json", "FILE", "write the diff as JSON"),
        ]],
        run: cmd_trace_diff,
    },
    Command {
        name: "autoscale",
        positionals: "",
        about: "replay under one scheduler, static config vs the autoscaling controller",
        flags: &[WORKLOAD_FLAGS, REPLAY_FLAGS, SNAPSHOT_FLAGS, &[
            value("--scheduler", "SCHEDULER", "faasbatch", "scheduler to replay"),
            value("--keepalive-s", "N", "2", "static keep-alive in seconds"),
            value("--prewarm-cap", "N", "4", "controller prewarm cap per function"),
            value("--keepalive-floor-s", "N", "2", "controller keep-alive floor in seconds"),
            value("--keepalive-ceiling-s", "N", "60", "controller keep-alive ceiling in seconds"),
            switch("--snapshot-prewarm", "let the controller pick the prewarm tier"),
        ]],
        run: cmd_autoscale,
    },
    Command {
        name: "live",
        positionals: "",
        about: "fire a synthetic burst at the live platform; print throughput and latency",
        flags: &[LIVE_FLAGS, &[
            value("--jobs", "N", "2000", "invocations to fire"),
            value("--workers", "N", "0", "executor workers (0 = executor default)"),
            value("--seed", "N", "2023", "executor seed"),
            value("--backend", "BACKEND", "executor", "executor|thread-per-job"),
            value("--snapshots", "N", "0", "template snapshots per function"),
            value("--restore-ms", "N", "1", "snapshot restore delay in ms"),
        ]],
        run: cmd_live,
    },
    Command {
        name: "live --gateway",
        positionals: "",
        about: "fire the burst through the sharded live gateway onto live workers",
        flags: &[LIVE_FLAGS, &[
            switch("--gateway", "selects this mode"),
            value("--jobs", "N", "20000", "invocations to fire"),
            value("--workers", "N", "8", "live worker platforms"),
            value("--shards", "N", "4", "ingress shards"),
            value("--shard-depth", "N", "65536", "per-shard queue bound"),
            value("--policy", "POLICY", "least-loaded", "routing policy"),
        ]],
        run: cmd_live_gateway,
    },
    Command {
        name: "top",
        positionals: "",
        about: "one-shot table of a running live endpoint's /json snapshot",
        flags: &[&[value("--addr", "HOST:PORT", "127.0.0.1:9100", "live metrics endpoint")]],
        run: cmd_top,
    },
    Command {
        name: "figures",
        positionals: "",
        about: "list the per-figure regeneration binaries",
        flags: &[],
        run: cmd_figures,
    },
    Command {
        name: "help",
        positionals: "",
        about: "print this text",
        flags: &[],
        run: cmd_help,
    },
];

/// One command's usage: its synopsis, what it does, and its flag table.
fn command_usage(cmd: &Command) -> String {
    use std::fmt::Write as _;
    let synopsis = format!("faasbatch {} {}", cmd.name, cmd.positionals);
    let options = if cmd.flags.is_empty() {
        ""
    } else {
        " [options]"
    };
    let mut text = format!("{}{options}\n    {}\n", synopsis.trim_end(), cmd.about);
    for f in cmd.flags() {
        let spec = format!("{} {}", f.name, f.metavar.unwrap_or(""));
        let default = f.default.map(|d| format!(" (default: {d})"));
        let help = format!("{}{}", f.help, default.unwrap_or_default());
        let _ = writeln!(text, "    {:<30} {help}", spec.trim_end());
    }
    text
}

/// Builds the usage text from [`COMMANDS`]; the value lists come from the
/// registries ([`SchedulerKind::ALL`], [`RoutingKind::ALL`],
/// [`EvictionPolicy::ALL`]), so a new entry shows up without touching this.
fn usage() -> String {
    let commands: Vec<String> = COMMANDS.iter().map(command_usage).collect();
    format!(
        "faasbatch — FaaSBatch (ICDCS'23) reproduction CLI\n\n{}\nVALUES:\n    \
         SCHEDULER  {}\n    POLICY     {}\n    EVICTION   {}\n\n\
         {} schedulers are registered. Workloads exported with `workload --export`\n\
         replay bit-identically via `--import`.",
        commands.join("\n"),
        SchedulerKind::ALL.map(SchedulerKind::name).join("|"),
        RoutingKind::ALL.map(RoutingKind::name).join("|"),
        EvictionPolicy::ALL.map(EvictionPolicy::name).join("|"),
        SchedulerKind::ALL.len()
    )
}

/// Parsed options of one [`Command`]: the given flags and positionals;
/// absent flags read their default from the command's table.
struct Options {
    command: &'static Command,
    values: HashMap<Str, String>,
    positionals: Vec<String>,
}

impl Options {
    /// Parses `args` against `command`'s flag table. An unknown flag, a
    /// flag missing its value, or a positional the command does not take
    /// is an error naming it.
    fn parse(command: &'static Command, args: &[String]) -> Result<Options, String> {
        let mut values = HashMap::new();
        let mut positionals = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if command.positionals.is_empty() {
                    return Err(format!("unexpected argument: {arg}"));
                }
                positionals.push(arg.clone());
                continue;
            }
            let flag = command
                .flag(arg)
                .ok_or_else(|| format!("unknown flag {arg} for `faasbatch {}`", command.name))?;
            let value = match flag.metavar {
                None => "true".to_owned(),
                Some(_) => args
                    .next()
                    .ok_or_else(|| format!("missing value for {arg}"))?
                    .clone(),
            };
            values.insert(flag.name, value);
        }
        Ok(Options {
            command,
            values,
            positionals,
        })
    }

    /// The given value of `key`, else its default. Asking for a flag the
    /// command does not declare is a bug in the command, not bad input.
    fn value(&self, key: &str) -> Option<&str> {
        let flag = self.command.flag(key);
        let flag = flag.unwrap_or_else(|| panic!("{key} is not a flag of `{}`", self.command.name));
        self.values
            .get(flag.name)
            .map(String::as_str)
            .or(flag.default)
    }

    /// `key`'s value parsed, `None` when absent without a default.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value for {key}: {v}"))
            })
            .transpose()
    }

    /// `key`'s value (or default) parsed.
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| format!("missing {key}"))
    }

    /// Whether boolean flag `key` was given.
    fn flag(&self, key: &str) -> bool {
        self.value(key).is_some()
    }
}

fn build_workload(opts: &Options) -> Result<(String, Workload), String> {
    let kind: String = opts.get("--workload")?;
    let &(_, total, span_s, bursts) = WORKLOAD_KINDS
        .iter()
        .find(|k| k.0 == kind)
        .ok_or_else(|| format!("unknown workload kind: {kind} (use cpu|io)"))?;
    let rng = DetRng::new(opts.get("--seed")?);
    let cfg = WorkloadConfig {
        total: opts.opt("--total")?.unwrap_or(total),
        span: SimDuration::from_secs(opts.opt("--span-s")?.unwrap_or(span_s)),
        functions: opts.get("--functions")?,
        bursts: opts.opt("--bursts")?.unwrap_or(bursts),
        heterogeneity: opts.get("--heterogeneity")?,
    };
    let w = match kind.as_str() {
        "cpu" => cpu_workload(&rng, &cfg),
        _ => io_workload(&rng, &cfg),
    };
    Ok((kind, w))
}

fn load_or_build(opts: &Options) -> Result<(String, Workload), String> {
    match opts.value("--import") {
        None => build_workload(opts),
        Some(path) => {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let w: Workload =
                serde_json::from_str(&json).map_err(|e| format!("invalid workload JSON: {e}"))?;
            Ok(("imported".to_owned(), w))
        }
    }
}

/// The simulators' `--window-ms`. A zero window is an input error here,
/// before any scheduler could assert on it.
fn sim_window(opts: &Options) -> Result<SimDuration, String> {
    match opts.get("--window-ms")? {
        0 => Err("--window-ms must be at least 1".to_owned()),
        ms => Ok(SimDuration::from_millis(ms)),
    }
}

/// The `--scheduler` of `trace`, `autoscale`, and `fleet`; an unknown name
/// is an error listing every valid scheduler.
fn scheduler_kind(opts: &Options) -> Result<SchedulerKind, String> {
    let name: String = opts.get("--scheduler")?;
    SchedulerKind::parse(&name).map_err(|e| e.to_string())
}

/// Parses the `--snapshot-cap` / `--snapshot-eviction` pair shared by the
/// simulation subcommands. Capacity 0 (the default) leaves the tier off.
fn snapshot_config(opts: &Options) -> Result<SnapshotConfig, String> {
    let name: String = opts.get("--snapshot-eviction")?;
    let eviction = EvictionPolicy::parse(&name).ok_or_else(|| {
        format!(
            "unknown eviction policy: {name} (use {})",
            EvictionPolicy::ALL.map(EvictionPolicy::name).join("|")
        )
    })?;
    Ok(SnapshotConfig {
        capacity: opts.get("--snapshot-cap")?,
        eviction,
        ..SnapshotConfig::default()
    })
}

fn cmd_compare(opts: &Options) -> Result<(), String> {
    let (label, w) = load_or_build(opts)?;
    let window = sim_window(opts)?;
    let cfg = SimConfig {
        snapshot: snapshot_config(opts)?,
        ..SimConfig::default()
    };
    println!(
        "replaying {} invocations ({label}) with a {window} window…\n",
        w.len()
    );
    let mut setup = SchedulerSetup::new(window);
    setup.faasbatch.multiplex = !opts.flag("--no-multiplex");
    let runs = run_kinds(&SchedulerKind::ALL, &w, &cfg, &label, &setup, |_| None);
    let reports: Vec<RunReport> = runs.into_iter().map(|(report, _)| report).collect();

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r: &RunReport| {
            vec![
                r.scheduler.clone(),
                format!("{}", r.end_to_end_cdf().mean()),
                format!("{}", r.end_to_end_cdf().quantile(0.99)),
                r.provisioned_containers.to_string(),
                r.restored_starts.to_string(),
                format!("{:.0} MB", r.mean_memory_bytes() / (1 << 20) as f64),
                format!("{:.1}%", r.mean_cpu_utilization() * 100.0),
                format!("{:.1}", r.core_seconds_daemon),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "scheduler",
                "e2e mean",
                "e2e p99",
                "containers",
                "restored",
                "mem mean",
                "cpu util",
                "daemon cpu-s"
            ],
            &rows,
        )
    );
    if reports.iter().any(|r| r.restored_starts > 0) {
        for r in &reports {
            let s = r.snapshot_stats;
            println!(
                "{}: snapshot cache hits {} | misses {} | evictions {} | captures {}",
                r.scheduler, s.hits, s.misses, s.evictions, s.captures
            );
        }
    }
    Ok(())
}

fn cmd_workload(opts: &Options) -> Result<(), String> {
    let (label, w) = build_workload(opts)?;
    if let Some(path) = opts.value("--export") {
        let json = serde_json::to_string(&w).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("exported workload to {path}");
    }
    println!(
        "{label} workload: {} invocations, {} functions, span {}",
        w.len(),
        w.registry().len(),
        w.last_arrival()
    );
    let arrivals: Vec<_> = w.invocations().iter().map(|i| i.arrival).collect();
    let span = (w.last_arrival() + SimDuration::from_secs(1))
        .saturating_duration_since(faasbatch::simcore::time::SimTime::ZERO);
    let per_sec = bin_counts(&arrivals, SimDuration::from_secs(1), span);
    println!(
        "arrivals: peak {}/s, burstiness {:.1}",
        per_sec.iter().max().copied().unwrap_or(0),
        burstiness(&per_sec)
    );
    println!(
        "total intrinsic work: {:.1} core-seconds",
        w.total_work().as_secs_f64()
    );
    let mut counts: Vec<(String, usize)> = w
        .registry()
        .iter()
        .map(|(id, p)| {
            (
                p.name.clone(),
                w.invocations().iter().filter(|i| i.function == id).count(),
            )
        })
        .collect();
    counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let rows: Vec<Vec<String>> = counts
        .into_iter()
        .map(|(name, c)| {
            vec![
                name,
                c.to_string(),
                format!("{:.1}%", 100.0 * c as f64 / w.len() as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["function", "invocations", "share"], &rows)
    );
    Ok(())
}

/// Parses a `W@MS[,W@MS…]` fault list (worker index @ millisecond instant).
fn parse_faults(spec: &str, kind: FaultKind) -> Result<Vec<WorkerFault>, String> {
    spec.split(',')
        .map(|part| {
            let (w, ms) = part
                .split_once('@')
                .ok_or_else(|| format!("invalid fault `{part}` (expected W@MS)"))?;
            Ok(WorkerFault {
                worker: w
                    .parse()
                    .map_err(|_| format!("invalid worker index in `{part}`"))?,
                at: faasbatch::simcore::time::SimTime::from_millis(
                    ms.parse()
                        .map_err(|_| format!("invalid millisecond instant in `{part}`"))?,
                ),
                kind,
            })
        })
        .collect()
}

fn cmd_fleet(opts: &Options) -> Result<(), String> {
    let (label, w) = load_or_build(opts)?;
    let kind = RoutingKind::parse(&opts.get::<String>("--policy")?).map_err(|e| e.to_string())?;
    let window = sim_window(opts)?;
    let mut faults = Vec::new();
    if let Some(spec) = opts.value("--crash") {
        faults.extend(parse_faults(spec, FaultKind::Crash)?);
    }
    if let Some(spec) = opts.value("--drain") {
        faults.extend(parse_faults(spec, FaultKind::Drain)?);
    }
    let cfg = FleetConfig {
        workers: opts.get("--workers")?,
        window,
        scheduler: scheduler_kind(opts)?,
        faasbatch: FaasBatchConfig::with_window(window),
        faults,
        max_retries: opts.get("--max-retries")?,
        redispatch_delay: SimDuration::from_millis(opts.get("--redispatch-ms")?),
        ..FleetConfig::default()
    };
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    if let Some(f) = cfg.faults.iter().find(|f| f.worker >= cfg.workers) {
        return Err(format!(
            "fault references worker {} but the fleet has {}",
            f.worker, cfg.workers
        ));
    }

    println!(
        "replaying {} invocations ({label}) over {} workers, {} routing…\n",
        w.len(),
        cfg.workers,
        kind.name()
    );
    let report = run_fleet(&w, &cfg, kind.build(), &label)
        .map_err(|e| format!("fleet replay failed: {e}"))?;

    let rows: Vec<Vec<String>> = report
        .workers
        .iter()
        .map(|wr| {
            vec![
                wr.worker.to_string(),
                wr.fault.map_or("-".to_owned(), |f| {
                    format!("{:?}@{}", f.kind, f.at).to_lowercase()
                }),
                wr.completed.to_string(),
                wr.lost.to_string(),
                wr.report.provisioned_containers.to_string(),
                wr.report.warm_hits.to_string(),
                format!("{:.2}", wr.report.sampler.mean_busy_cores()),
                format!("{:.0} MB", wr.report.mean_memory_bytes() / (1 << 20) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "worker",
                "fault",
                "completed",
                "lost",
                "containers",
                "warm hits",
                "busy cores",
                "mem mean"
            ],
            &rows,
        )
    );
    let e2e = report.end_to_end_cdf();
    println!(
        "fleet: e2e mean {} | e2e p99 {} | warm-hit rate {:.1}% | imbalance CoV {:.3}",
        e2e.mean(),
        e2e.quantile(0.99),
        report.warm_hit_rate() * 100.0,
        report.load_imbalance()
    );
    println!(
        "       retries {} | retry delay {} | makespan {}",
        report.retries, report.retry_delay_total, report.makespan
    );
    Ok(())
}

/// Folds an event stream into its attribution report.
fn attribute_events(events: &[SimEvent]) -> AttributionReport {
    let mut engine = AttributionEngine::new();
    engine.consume(events);
    engine.finish()
}

/// Prints the attribution of `events`; its phases must sum exactly to
/// every invocation's end-to-end latency.
fn print_attribution(events: &[SimEvent]) -> Result<(), String> {
    let report = attribute_events(events);
    print!("{}", report.render());
    if !report.all_exact() {
        return Err("attribution phases do not sum to end-to-end latency".to_owned());
    }
    Ok(())
}

/// Replays `events` through the online auditor; a violation means the run
/// broke a simulation invariant.
fn audit(events: &[SimEvent]) -> Result<(), String> {
    let mut auditor = AuditorSink::new();
    for event in events {
        auditor.record(event);
    }
    let violations = auditor.finish();
    if !violations.is_empty() {
        for v in violations {
            eprintln!("auditor violation: {v}");
        }
        return Err(format!(
            "the event stream violated {} invariant(s)",
            violations.len()
        ));
    }
    println!("auditor: stream is clean (0 violations)");
    Ok(())
}

/// Writes `events` to `path` as JSONL, one event per line.
fn write_jsonl(path: &str, events: &[SimEvent]) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut jsonl = String::new();
    for event in events {
        jsonl.push_str(&serde_json::to_string(event).map_err(|e| e.to_string())?);
        jsonl.push('\n');
    }
    std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `faasbatch trace --analyze FILE`: offline attribution of an existing
/// JSONL event log. Malformed or truncated input surfaces as a typed
/// [`faasbatch::metrics::analysis::TraceLoadError`], never a panic.
fn analyze_trace(path: &str) -> Result<(), String> {
    let events = load_events(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    println!("analyzing {} events from {path}…", events.len());
    print_attribution(&events)
}

fn cmd_trace(opts: &Options) -> Result<(), String> {
    if let Some(path) = opts.value("--analyze") {
        return analyze_trace(path);
    }
    let (label, w) = load_or_build(opts)?;
    let kind = scheduler_kind(opts)?;
    let scheduler = kind.name();
    let mut setup = SchedulerSetup::new(sim_window(opts)?);
    setup.faasbatch.multiplex = !opts.flag("--no-multiplex");
    let cfg = SimConfig {
        snapshot: snapshot_config(opts)?,
        ..SimConfig::default()
    };
    println!(
        "tracing {} invocations ({label}) under {scheduler}…",
        w.len()
    );
    let (report, sink) = run_one(
        kind,
        &w,
        &cfg,
        &label,
        &setup,
        Some(Box::new(VecSink::new())),
    );
    let events = sink
        .as_ref()
        .expect("traced run returns its sink")
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("the vec sink comes back from the run")
        .events();
    let out = opts
        .value("--out")
        .map_or_else(|| format!("results/trace_{scheduler}.jsonl"), str::to_owned);
    write_jsonl(&out, events)?;
    println!(
        "wrote {} events ({} invocation records) to {out}",
        events.len(),
        report.records.len()
    );
    if let Some(chrome_path) = opts.value("--chrome") {
        // Stream straight to the file: a full-day timeline never holds a
        // second in-memory copy of the JSON.
        let write_chrome = || -> std::io::Result<()> {
            let file = std::fs::File::create(chrome_path)?;
            let mut buffered = std::io::BufWriter::new(file);
            chrome_trace_to(events, &mut buffered)?;
            std::io::Write::flush(&mut buffered)
        };
        write_chrome().map_err(|e| format!("cannot write {chrome_path}: {e}"))?;
        println!("wrote Chrome about:tracing timeline to {chrome_path}");
    }
    print_attribution(events)?;
    audit(events)
}

/// `faasbatch trace-diff A.jsonl B.jsonl`: attribute both logs and explain
/// the latency delta phase by phase.
fn cmd_trace_diff(opts: &Options) -> Result<(), String> {
    let [a_path, b_path] = &opts.positionals[..] else {
        return Err(format!(
            "trace-diff takes exactly two trace files, got {}",
            opts.positionals.len()
        ));
    };
    let top_k: usize = opts.get("--top")?;
    let attribute = |path: &String| -> Result<AttributionReport, String> {
        let events = load_events(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        let report = attribute_events(&events);
        if report.invocations.is_empty() {
            return Err(format!("{path} holds no completed invocations"));
        }
        if !report.all_exact() {
            return Err(format!(
                "{path}: attribution phases do not sum to end-to-end latency"
            ));
        }
        Ok(report)
    };
    let a = attribute(a_path)?;
    let b = attribute(b_path)?;
    let diff = diff_reports(&a, &b);
    print!("{}", diff.render(a_path, b_path, top_k));
    if let Some(json_path) = opts.value("--json") {
        let json = serde_json::to_string_pretty(&diff).map_err(|e| e.to_string())?;
        std::fs::write(json_path, json).map_err(|e| format!("cannot write {json_path}: {e}"))?;
        println!("\nwrote machine-readable diff to {json_path}");
    }
    Ok(())
}

/// Runs one scheduler over `w` through the shared runner, traced through
/// `sink` when one is given.
fn run_one(
    kind: SchedulerKind,
    w: &Workload,
    cfg: &SimConfig,
    label: &str,
    setup: &SchedulerSetup,
    mut sink: Option<Box<dyn TraceSink>>,
) -> KindRun {
    let mut runs = run_kinds(&[kind], w, cfg, label, setup, |_| sink.take());
    runs.pop().expect("one run per kind")
}

fn cmd_autoscale(opts: &Options) -> Result<(), String> {
    let (label, w) = load_or_build(opts)?;
    let kind = scheduler_kind(opts)?;
    let scheduler = kind.name();
    let setup = SchedulerSetup::new(sim_window(opts)?);
    let keep_alive = SimDuration::from_secs(opts.get("--keepalive-s")?);
    let cfg = SimConfig {
        keep_alive,
        snapshot: snapshot_config(opts)?,
        ..SimConfig::default()
    };
    let ac = AutoscalerConfig {
        prewarm_cap: opts.get("--prewarm-cap")?,
        keepalive_floor: SimDuration::from_secs(opts.get("--keepalive-floor-s")?),
        keepalive_ceiling: SimDuration::from_secs(opts.get("--keepalive-ceiling-s")?),
        base_keep_alive: keep_alive,
        snapshot_prewarm: opts.flag("--snapshot-prewarm"),
        ..AutoscalerConfig::default()
    };
    ac.validate()
        .map_err(|e| format!("invalid autoscaler config: {e}"))?;

    println!(
        "replaying {} invocations ({label}) under {scheduler}, static {keep_alive} \
         keep-alive vs controller…\n",
        w.len()
    );
    let (static_report, _) = run_one(kind, &w, &cfg, &label, &setup, None);
    let sink = MultiSink::new(vec![
        Box::new(AutoscalerSink::new(ac)),
        Box::new(VecSink::new()),
    ]);
    let (auto_report, sink) = run_one(kind, &w, &cfg, &label, &setup, Some(Box::new(sink)));
    let multi = sink
        .as_ref()
        .expect("traced run returns its sink")
        .as_any()
        .downcast_ref::<MultiSink>()
        .expect("the multi sink comes back from the run");
    let controller = multi.sinks()[0]
        .as_any()
        .downcast_ref::<AutoscalerSink>()
        .expect("controller sink");
    let events = multi.sinks()[1]
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink")
        .events();

    let rows: Vec<Vec<String>> = [("static", &static_report), ("autoscaled", &auto_report)]
        .iter()
        .map(|(mode, r)| {
            vec![
                (*mode).to_owned(),
                format!("{:.1}%", r.cold_fraction() * 100.0),
                r.provisioned_containers.to_string(),
                r.warm_hits.to_string(),
                format!("{}", r.end_to_end_cdf().quantile(0.5)),
                format!("{}", r.end_to_end_cdf().quantile(0.99)),
                format!("{:.0} MB", r.mean_memory_bytes() / (1 << 20) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "mode",
                "cold%",
                "containers",
                "warm hits",
                "e2e p50",
                "e2e p99",
                "mem mean"
            ],
            &rows,
        )
    );
    let stats = controller.stats();
    println!(
        "controller: {} prewarm action(s) launching {} container(s), \
         {} keep-alive change(s), max outstanding prewarm {}",
        stats.prewarm_actions,
        stats.prewarmed_containers,
        stats.keepalive_actions,
        stats.max_outstanding_prewarm
    );
    if opts.flag("--snapshot-prewarm") {
        println!(
            "controller tiers: {} snapshot-tier prewarm(s), {} warm-tier prewarm(s); \
             autoscaled run restored {} start(s)",
            stats.snapshot_tier_prewarms, stats.warm_tier_prewarms, auto_report.restored_starts
        );
    }
    audit(events)
}

/// Live-telemetry wiring shared by `live` and `live --gateway`:
/// `--metrics-addr` binds the exposition endpoint, `--serve-ms` holds it
/// open after the burst, `--flight-record` keeps a bounded event ring that
/// dumps JSONL on panic (hook) or clean shutdown ([`LiveTelemetry::finish`]).
struct LiveTelemetry {
    registry: Option<faasbatch::metrics::MetricRegistry>,
    server: Option<faasbatch::metrics::TelemetryServer>,
    flight: Option<(faasbatch::metrics::FlightRecorder, String)>,
    /// The run's trace recorder, when `--audit`, `--out`, or the flight
    /// ring needs the typed event stream; it mirrors into the ring.
    recorder: Option<faasbatch::metrics::live::LiveTraceRecorder>,
    serve_ms: u64,
}

impl LiveTelemetry {
    fn from_opts(opts: &Options) -> Result<LiveTelemetry, String> {
        let serve_ms: u64 = opts.get("--serve-ms")?;
        let capacity: usize = opts.get("--flight-capacity")?;
        let flight = opts.value("--flight-record").map(|path| {
            let recorder = faasbatch::metrics::FlightRecorder::new(capacity);
            recorder.install_panic_hook(std::path::PathBuf::from(path));
            (recorder, path.to_owned())
        });
        let addr = opts.value("--metrics-addr");
        let registry = addr.map(|_| faasbatch::metrics::MetricRegistry::default());
        let server = match (addr, &registry) {
            (Some(addr), Some(registry)) => {
                let server = faasbatch::metrics::TelemetryServer::bind(addr, registry.clone())
                    .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
                println!(
                    "serving metrics on http://{}/metrics (JSON snapshot on /json)",
                    server.local_addr()
                );
                Some(server)
            }
            _ => None,
        };
        let trace = opts.flag("--audit") || opts.value("--out").is_some() || flight.is_some();
        let recorder = trace.then(|| match &flight {
            Some((flight, _)) => {
                faasbatch::metrics::live::LiveTraceRecorder::with_flight(flight.clone())
            }
            None => faasbatch::metrics::live::LiveTraceRecorder::new(),
        });
        Ok(LiveTelemetry {
            registry,
            server,
            flight,
            recorder,
            serve_ms,
        })
    }

    /// Post-run epilogue: hold the endpoint open for `--serve-ms`, write the
    /// flight ring's post-mortem, shut the server down, then export and
    /// audit the recorded stream.
    fn finish(self, opts: &Options) -> Result<(), String> {
        if self.serve_ms > 0 && self.server.is_some() {
            println!(
                "holding the metrics endpoint open for {} ms…",
                self.serve_ms
            );
            std::thread::sleep(std::time::Duration::from_millis(self.serve_ms));
        }
        if let Some((flight, path)) = &self.flight {
            let n = flight
                .dump_to_path(std::path::Path::new(path))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "flight recorder: wrote {n} events to {path} ({} dropped from the ring)",
                flight.dropped()
            );
        }
        drop(self.server);
        match self.recorder {
            Some(recorder) => audit_and_export(recorder, opts),
            None => Ok(()),
        }
    }
}

/// Smallest bucket bound `le` whose cumulative count reaches the
/// nearest-rank target for `q` — mirrors the histogram's own quantile.
fn cumulative_quantile(buckets: &[(u64, u64)], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    for &(le, cum) in buckets {
        if cum >= target {
            return le;
        }
    }
    buckets.last().map_or(0, |&(le, _)| le)
}

/// `faasbatch top`: one-shot snapshot of a running live endpoint.
fn cmd_top(opts: &Options) -> Result<(), String> {
    let addr: String = opts.get("--addr")?;
    let body = faasbatch::metrics::telemetry::http_get(addr.as_str(), "/json")
        .map_err(|e| format!("cannot scrape {addr}: {e}"))?;
    print!("{}", render_top(&body)?);
    Ok(())
}

/// Object-field lookup on the shim [`serde::Value`] tree.
fn json_field<'a>(value: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
    match value {
        serde::Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn json_u64(value: &serde::Value) -> Option<u64> {
    match value {
        serde::Value::U64(n) => Some(*n),
        serde::Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn json_number_display(value: &serde::Value) -> Option<String> {
    match value {
        serde::Value::U64(n) => Some(n.to_string()),
        serde::Value::I64(n) => Some(n.to_string()),
        serde::Value::F64(n) => Some(n.to_string()),
        _ => None,
    }
}

/// Renders a `/json` snapshot as a table: counters and gauges with their
/// value, histograms with count, mean, and quantiles (bucket upper bounds,
/// so values carry the histogram's ≤6.25% resolution).
fn render_top(json: &str) -> Result<String, String> {
    let value: serde::Value =
        serde_json::from_str(json).map_err(|e| format!("invalid /json payload: {e}"))?;
    let Some(serde::Value::Seq(metrics)) = json_field(&value, "metrics") else {
        return Err("malformed /json payload: no `metrics` array".to_owned());
    };
    let mut rows = Vec::with_capacity(metrics.len());
    for metric in metrics {
        let mut name = match json_field(metric, "name") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => "?".to_owned(),
        };
        if let Some(serde::Value::Map(labels)) = json_field(metric, "labels") {
            if !labels.is_empty() {
                let rendered: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| match v {
                        serde::Value::Str(s) => format!("{k}={s}"),
                        _ => format!("{k}=?"),
                    })
                    .collect();
                name = format!("{name}{{{}}}", rendered.join(","));
            }
        }
        let kind = match json_field(metric, "type") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => "?".to_owned(),
        };
        if kind == "histogram" {
            let count = json_field(metric, "count").and_then(json_u64).unwrap_or(0);
            let sum = json_field(metric, "sum").and_then(json_u64).unwrap_or(0);
            let mut buckets: Vec<(u64, u64)> = Vec::new();
            if let Some(serde::Value::Seq(pairs)) = json_field(metric, "buckets") {
                for pair in pairs {
                    if let serde::Value::Seq(pair) = pair {
                        if let (Some(le), Some(cum)) = (
                            pair.first().and_then(json_u64),
                            pair.get(1).and_then(json_u64),
                        ) {
                            buckets.push((le, cum));
                        }
                    }
                }
            }
            let mean = sum.checked_div(count).unwrap_or(0);
            rows.push(vec![
                name,
                kind,
                count.to_string(),
                mean.to_string(),
                cumulative_quantile(&buckets, count, 0.50).to_string(),
                cumulative_quantile(&buckets, count, 0.95).to_string(),
                cumulative_quantile(&buckets, count, 0.999).to_string(),
            ]);
        } else {
            let shown = json_field(metric, "value")
                .and_then(json_number_display)
                .unwrap_or_else(|| "?".to_owned());
            let dash = "-".to_owned();
            rows.push(vec![
                name,
                kind,
                shown,
                dash.clone(),
                dash.clone(),
                dash.clone(),
                dash,
            ]);
        }
    }
    Ok(text_table(
        &[
            "metric",
            "type",
            "value/count",
            "mean",
            "p50",
            "p95",
            "p99.9",
        ],
        &rows,
    ))
}

/// Nearest-rank quantile over an already-sorted latency vector.
fn quantile_sorted(sorted: &[std::time::Duration], q: f64) -> std::time::Duration {
    if sorted.is_empty() {
        return std::time::Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Waits for every ticket; returns the sorted latencies and the number of
/// invocations that panicked.
fn wait_all(
    tickets: Vec<faasbatch::core::platform::InvokeTicket>,
) -> (Vec<std::time::Duration>, usize) {
    let mut latencies = Vec::with_capacity(tickets.len());
    let mut panicked = 0usize;
    for t in tickets {
        let outcome = t.wait();
        panicked += usize::from(outcome.panicked);
        latencies.push(outcome.total());
    }
    latencies.sort_unstable();
    (latencies, panicked)
}

fn print_latencies(sorted: &[std::time::Duration]) {
    println!(
        "latency: p50 {:.2?} | p95 {:.2?} | p99 {:.2?} | max {:.2?}",
        quantile_sorted(sorted, 0.50),
        quantile_sorted(sorted, 0.95),
        quantile_sorted(sorted, 0.99),
        sorted.last().copied().unwrap_or_default(),
    );
}

/// Exports (`--out`) and audits (`--audit`) a recorded live event stream —
/// shared tail of `live` and `live --gateway`.
fn audit_and_export(
    recorder: faasbatch::metrics::live::LiveTraceRecorder,
    opts: &Options,
) -> Result<(), String> {
    let events = recorder.take_trace();
    if let Some(out) = opts.value("--out") {
        write_jsonl(out, &events)?;
        println!("wrote {} events to {out}", events.len());
    }
    print_attribution(&events)?;
    audit(&events)
}

fn cmd_live_gateway(opts: &Options) -> Result<(), String> {
    use faasbatch::gateway::{Gateway, GatewayError};

    let jobs: usize = opts.get("--jobs")?;
    let batch_size: usize = opts.get("--batch-size")?;
    let workers: usize = opts.get("--workers")?;
    let shards: usize = opts.get("--shards")?;
    let shard_depth: usize = opts.get("--shard-depth")?;
    let window = std::time::Duration::from_millis(opts.get("--window-ms")?);
    let cold = std::time::Duration::from_millis(opts.get("--cold-ms")?);
    let work = std::time::Duration::from_micros(opts.get("--work-us")?);
    let policy = RoutingKind::parse(&opts.get::<String>("--policy")?).map_err(|e| e.to_string())?;
    if jobs == 0 || batch_size == 0 {
        return Err("--jobs and --batch-size must be at least 1".to_owned());
    }
    let functions = jobs.div_ceil(batch_size);
    let telemetry = LiveTelemetry::from_opts(opts)?;

    let mut builder = Gateway::builder()
        .workers(workers)
        .shards(shards)
        .shard_depth(shard_depth)
        .window(window)
        .cold_start_delay(cold)
        .policy(policy);
    if let Some(rec) = &telemetry.recorder {
        builder = builder.trace(rec.clone());
    }
    if let Some(registry) = &telemetry.registry {
        builder = builder.telemetry(registry);
    }
    for f in 0..functions {
        builder = builder.register(&format!("burst-{f}"), move |_env| {
            if !work.is_zero() {
                std::thread::sleep(work);
            }
        });
    }
    let gateway = builder.start();

    println!(
        "firing {jobs} invocations over {functions} function(s) through \
         {shards} gateway shard(s) onto {workers} live worker platform(s), \
         {} routing…",
        policy.name()
    );
    let started = std::time::Instant::now();
    let mut tickets = Vec::with_capacity(jobs);
    let mut rejected = 0usize;
    for n in 0..jobs {
        match gateway.invoke(&format!("burst-{}", n % functions), bytes::Bytes::new()) {
            Ok(t) => tickets.push(t),
            Err(GatewayError::Rejected { .. }) => rejected += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
    let (latencies, panicked) = wait_all(tickets);
    gateway.drain().map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();

    let completed = latencies.len();
    println!(
        "done in {elapsed:.2?}: {:.0} invocations/s | completed {completed} | \
         rejected {rejected} | panicked {panicked} | peak in-flight {}",
        completed as f64 / elapsed.as_secs_f64(),
        gateway.peak_in_flight(),
    );
    print_latencies(&latencies);
    for (shard, s) in gateway.stats().shards.iter().enumerate() {
        println!(
            "shard {shard}: enqueued {} | admitted {} | rejected {} | groups {}",
            s.enqueued, s.admitted, s.rejected, s.routed_groups
        );
    }

    drop(gateway);
    telemetry.finish(opts)
}

fn cmd_live(opts: &Options) -> Result<(), String> {
    use faasbatch::container::live::LiveBackend;
    use faasbatch::core::platform::PlatformBuilder;
    use faasbatch::exec::{Executor, ExecutorConfig};

    let jobs: usize = opts.get("--jobs")?;
    let batch_size: usize = opts.get("--batch-size")?;
    let workers: usize = opts.get("--workers")?;
    let seed: u64 = opts.get("--seed")?;
    let window = std::time::Duration::from_millis(opts.get("--window-ms")?);
    let cold = std::time::Duration::from_millis(opts.get("--cold-ms")?);
    let work = std::time::Duration::from_micros(opts.get("--work-us")?);
    let snapshots: usize = opts.get("--snapshots")?;
    let restore = std::time::Duration::from_millis(opts.get("--restore-ms")?);
    let backend = match opts.get::<String>("--backend")?.as_str() {
        "executor" => LiveBackend::Executor,
        "thread-per-job" => LiveBackend::ThreadPerJob,
        other => {
            return Err(format!(
                "unknown backend: {other} (use executor|thread-per-job)"
            ))
        }
    };
    if jobs == 0 || batch_size == 0 {
        return Err("--jobs and --batch-size must be at least 1".to_owned());
    }
    let functions = jobs.div_ceil(batch_size);
    let telemetry = LiveTelemetry::from_opts(opts)?;

    let mut exec_config = ExecutorConfig {
        seed,
        ..ExecutorConfig::default()
    };
    if workers > 0 {
        exec_config.workers = workers;
    }
    let executor = Executor::new(exec_config);
    let mut builder = PlatformBuilder::new()
        .window(window)
        .cold_start_delay(cold)
        .snapshots(snapshots)
        .restore_delay(restore)
        .backend(backend)
        .executor(std::sync::Arc::clone(&executor));
    if let Some(rec) = &telemetry.recorder {
        builder = builder.trace(rec.clone());
    }
    if let Some(registry) = &telemetry.registry {
        builder = builder.telemetry(faasbatch::core::telemetry::PlatformTelemetry::new(registry));
        faasbatch::core::telemetry::register_executor(registry, &executor);
    }
    for f in 0..functions {
        builder = builder.register(&format!("burst-{f}"), move |_env| {
            if !work.is_zero() {
                std::thread::sleep(work);
            }
        });
    }
    let platform = builder.start();

    println!(
        "firing {jobs} invocations over {functions} function(s) (target batch \
         {batch_size}) on the {backend:?} backend, {} worker(s)…",
        executor.workers()
    );
    let started = std::time::Instant::now();
    let tickets: Vec<_> = (0..jobs)
        .map(|n| {
            platform
                .invoke(&format!("burst-{}", n % functions), bytes::Bytes::new())
                .expect("registered")
        })
        .collect();
    let (latencies, panicked) = wait_all(tickets);
    platform.drain().map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();

    let stats = platform.stats();
    println!(
        "done in {elapsed:.2?}: {:.0} invocations/s | containers {} | restored {} | batches {} | panicked {panicked}",
        jobs as f64 / elapsed.as_secs_f64(),
        stats.containers_created.load(std::sync::atomic::Ordering::Relaxed),
        stats.containers_restored.load(std::sync::atomic::Ordering::Relaxed),
        stats.batches.load(std::sync::atomic::Ordering::Relaxed),
    );
    print_latencies(&latencies);
    let metrics = executor.metrics();
    if backend == LiveBackend::Executor {
        println!(
            "executor: {} worker(s) | peak in-flight {} | spawned {} | steals {}",
            metrics.workers,
            metrics.peak_in_flight,
            metrics.spawned_total,
            metrics.total_steals(),
        );
    }

    drop(platform);
    telemetry.finish(opts)
}

fn cmd_help(_: &Options) -> Result<(), String> {
    println!("{}", usage());
    Ok(())
}

fn cmd_figures(_: &Options) -> Result<(), String> {
    println!(
        "Figure harnesses (run with `cargo run --release -p faasbatch-bench --bin <name>`):\n"
    );
    #[rustfmt::skip]
    let figures = [
        ("headline_summary", "abstract/§V reduction table"),
        ("six_schedulers", "six-way comparison: +Hiku, +core-late-bind"),
        ("headline_attribution", "six-way phase attribution + trace diff"),
        ("fig01_sharing_vs_monopoly", "Fig. 1 — sharing vs monopoly"),
        ("fig02_invocation_patterns", "Fig. 2 — hot-function day patterns"),
        ("fig03_blob_iat_cdf", "Fig. 3 — blob inter-access-time CDF"),
        ("fig04_client_creation_latency", "Fig. 4 — client creation time"),
        ("fig05_client_creation_memory", "Fig. 5 — client creation memory"),
        ("fig09_duration_distribution", "Fig. 9 — duration distribution"),
        ("fig10_workload_pattern", "Fig. 10 — arrival pattern"),
        ("fig11_cpu_latency", "Fig. 11 — CPU latency CDFs"),
        ("fig12_io_latency", "Fig. 12 — I/O latency CDFs"),
        ("fig13_cpu_resources", "Fig. 13 — CPU-workload resources"),
        ("fig14_io_resources", "Fig. 14 — I/O-workload resources"),
        ("ablation_multiplexer", "multiplexer on/off"),
        ("ablation_group_cap", "inline-parallelism degree"),
        ("ablation_window_sweep", "extended window sweep"),
        ("ablation_keepalive", "keep-alive TTL sensitivity"),
        ("ablation_early_return", "batch vs early-return responses"),
        ("ablation_kraken_prediction", "Kraken lazy/oracle/EWMA"),
        ("fleet_scaling", "multi-worker fleet: workers × routing policies"),
    ];
    for (name, what) in figures {
        println!("  {name:<30} {what}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
    };
    let name = match command {
        "--help" | "-h" => "help",
        "live" if rest.iter().any(|a| a == "--gateway") => "live --gateway",
        other => other,
    };
    let cmd = COMMANDS.iter().find(|c| c.name == name);
    let result = match cmd {
        Some(cmd) => Options::parse(cmd, rest).and_then(|opts| (cmd.run)(&opts)),
        None => Err(format!("unknown command: {command}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // A known command shows its own usage; anything else the whole text.
            let help = cmd.map_or_else(usage, |cmd| {
                format!(
                    "{}\n(`faasbatch help` lists every command and value)",
                    command_usage(cmd)
                )
            });
            eprintln!("error: {msg}\n\n{help}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, args: &[&str]) -> Result<Options, String> {
        let command = COMMANDS.iter().find(|c| c.name == name).expect("a command");
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(command, &args)
    }

    /// `compare`'s options: every workload, replay, and snapshot flag.
    fn opts(args: &[&str]) -> Result<Options, String> {
        parse("compare", args)
    }

    #[test]
    fn parses_key_values_and_flags() {
        let o = opts(&["--seed", "7", "--no-multiplex", "--workload", "io"]).unwrap();
        assert_eq!(o.get::<u64>("--seed").unwrap(), 7);
        assert!(o.flag("--no-multiplex"));
        assert_eq!(o.value("--workload"), Some("io"));
        assert_eq!(o.opt::<u64>("--total").unwrap(), None);
        assert_eq!(o.get::<u64>("--window-ms").unwrap(), 200, "table default");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(opts(&["positional"]).is_err());
        assert!(opts(&["--seed"]).is_err());
        let o = opts(&["--seed", "abc"]).unwrap();
        assert!(o.get::<u64>("--seed").is_err());
        // A misspelled flag is an error naming the flag and the subcommand.
        for args in [&["--snapshot-capp", "8"][..], &["--windw-ms", "50"]] {
            let err = opts(args).err().expect("a misspelled flag is an error");
            assert!(
                err.contains(args[0]) && err.contains("faasbatch compare"),
                "{err}"
            );
        }
        // A flag of one `live` mode is unknown to the other.
        assert!(parse("live --gateway", &["--gateway", "--backend", "executor"]).is_err());
        assert!(parse("live", &["--shards", "2"]).is_err());
        // A zero dispatch window is an input error on every simulation command.
        for name in ["compare", "trace", "autoscale", "fleet"] {
            let err = sim_window(&parse(name, &["--window-ms", "0"]).unwrap()).unwrap_err();
            assert!(err.contains("--window-ms"), "{name}: {err}");
            let o = parse(name, &["--window-ms", "1"]).unwrap();
            assert_eq!(sim_window(&o), Ok(SimDuration::from_millis(1)));
        }
    }

    /// The documented default of every flag, by command and by shared group
    /// (`+name`); changing one is a user-visible change this test must see.
    #[rustfmt::skip]
    const DEFAULTS: &[(&str, &[(&str, &str)])] = &[
        ("+workload", &[("--workload", "cpu"), ("--seed", "2023"), ("--functions", "8"),
            ("--heterogeneity", "0.0")]),
        ("+replay", &[("--window-ms", "200")]),
        ("+snapshot", &[("--snapshot-cap", "0"), ("--snapshot-eviction", "lru")]),
        ("+live", &[("--batch-size", "100"), ("--window-ms", "25"), ("--cold-ms", "2"),
            ("--work-us", "250"), ("--serve-ms", "0"), ("--flight-capacity", "262144")]),
        ("fleet", &[("--workers", "4"), ("--policy", "least-loaded"), ("--scheduler", "faasbatch"),
            ("--max-retries", "3"), ("--redispatch-ms", "50")]),
        ("trace", &[("--scheduler", "faasbatch")]),
        ("trace-diff", &[("--top", "10")]),
        ("autoscale", &[("--scheduler", "faasbatch"), ("--keepalive-s", "2"),
            ("--prewarm-cap", "4"), ("--keepalive-floor-s", "2"), ("--keepalive-ceiling-s", "60")]),
        ("live", &[("--jobs", "2000"), ("--workers", "0"), ("--seed", "2023"),
            ("--backend", "executor"), ("--snapshots", "0"), ("--restore-ms", "1")]),
        ("live --gateway", &[("--jobs", "20000"), ("--workers", "8"), ("--shards", "4"),
            ("--shard-depth", "65536"), ("--policy", "least-loaded")]),
        ("top", &[("--addr", "127.0.0.1:9100")]),
    ];

    #[test]
    fn table_defaults_match_the_documented_defaults() {
        for cmd in &COMMANDS {
            let shared: &[&str] = match cmd.name {
                "compare" | "trace" | "autoscale" => &["+workload", "+replay", "+snapshot"],
                "fleet" => &["+workload", "+replay"],
                "workload" => &["+workload"],
                "live" | "live --gateway" => &["+live"],
                _ => &[],
            };
            let groups = DEFAULTS
                .iter()
                .filter(|g| g.0 == cmd.name || shared.contains(&g.0));
            let mut expected: Vec<_> = groups.flat_map(|g| g.1.iter().copied()).collect();
            let mut actual: Vec<_> = cmd
                .flags()
                .filter_map(|f| Some((f.name, f.default?)))
                .collect();
            expected.sort_unstable();
            actual.sort_unstable();
            assert_eq!(actual, expected, "{}", cmd.name);
        }
        assert_eq!(EvictionPolicy::default().name(), "lru");
        assert_eq!(WORKLOAD_KINDS, [("cpu", 800, 60, 6), ("io", 400, 30, 4)]);
    }

    #[test]
    fn builds_both_workload_kinds() {
        let o = opts(&["--workload", "io", "--total", "30", "--span-s", "5"]).unwrap();
        let (label, w) = build_workload(&o).unwrap();
        assert_eq!(label, "io");
        assert_eq!(w.len(), 30);
        let o = opts(&["--total", "25"]).unwrap();
        let (label, w) = build_workload(&o).unwrap();
        assert_eq!(label, "cpu");
        assert_eq!(w.len(), 25);
    }

    #[test]
    fn unknown_workload_kind_is_an_error() {
        let o = opts(&["--workload", "gpu"]).unwrap();
        assert!(build_workload(&o).is_err());
    }

    #[test]
    fn split_positionals_separates_paths_from_options() {
        let args = ["a.jsonl", "--top", "5", "b.jsonl", "--json", "d.json"];
        let o = parse("trace-diff", &args).unwrap();
        assert_eq!(o.positionals, vec!["a.jsonl", "b.jsonl"]);
        assert_eq!(o.get::<usize>("--top").unwrap(), 5);
        assert_eq!(o.value("--json"), Some("d.json"));
        // Commands without positionals reject them.
        assert!(opts(&["a.jsonl"]).is_err());
    }

    #[test]
    fn quantile_sorted_uses_nearest_rank() {
        use std::time::Duration;
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(quantile_sorted(&sorted, 0.50), Duration::from_millis(50));
        assert_eq!(quantile_sorted(&sorted, 0.95), Duration::from_millis(95));
        assert_eq!(quantile_sorted(&sorted, 0.99), Duration::from_millis(99));
        assert_eq!(quantile_sorted(&[], 0.5), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(quantile_sorted(&one, 0.01), one[0]);
        assert_eq!(quantile_sorted(&one, 1.0), one[0]);
    }

    #[test]
    fn cumulative_quantile_walks_the_sparse_buckets() {
        let buckets = [(10, 50), (100, 90), (1000, 100)];
        assert_eq!(cumulative_quantile(&buckets, 100, 0.50), 10);
        assert_eq!(cumulative_quantile(&buckets, 100, 0.90), 100);
        assert_eq!(cumulative_quantile(&buckets, 100, 0.999), 1000);
        assert_eq!(cumulative_quantile(&buckets, 0, 0.5), 0);
        assert_eq!(cumulative_quantile(&[], 5, 0.5), 0);
    }

    #[test]
    fn render_top_formats_counters_and_histograms() {
        let registry = faasbatch::metrics::MetricRegistry::default();
        registry
            .counter("faasbatch_demo_total", "demo counter")
            .add(7);
        let hist = registry.histogram("faasbatch_demo_latency_us", "demo latency");
        for v in [10u64, 20, 30, 4000] {
            hist.record(v);
        }
        let table = render_top(&registry.render_json()).unwrap();
        assert!(table.contains("faasbatch_demo_total"));
        assert!(table.contains("counter"));
        assert!(table.contains("histogram"));
        assert!(render_top("not json").is_err());
        assert!(render_top("{\"nope\":1}").is_err());
    }

    #[test]
    fn usage_lists_every_registered_scheduler_and_eviction_policy() {
        let text = usage();
        for kind in SchedulerKind::ALL {
            assert!(
                text.contains(kind.name()),
                "usage must list scheduler `{}`",
                kind.name()
            );
        }
        for policy in EvictionPolicy::ALL {
            assert!(
                text.contains(policy.name()),
                "usage must list eviction policy `{}`",
                policy.name()
            );
        }
        assert!(text.contains(&SchedulerKind::ALL.len().to_string()));
        for cmd in &COMMANDS {
            assert!(text.contains(&command_usage(cmd)), "{}", cmd.name);
            for f in cmd.flags() {
                assert!(
                    command_usage(cmd).contains(f.name),
                    "{}: {}",
                    cmd.name,
                    f.name
                );
            }
        }
    }

    #[test]
    fn snapshot_config_parses_and_rejects() {
        let o = opts(&["--snapshot-cap", "8", "--snapshot-eviction", "cost-aware"]).unwrap();
        let cfg = snapshot_config(&o).unwrap();
        assert_eq!(cfg.capacity, 8);
        assert_eq!(cfg.eviction, EvictionPolicy::CostAware);
        assert!(snapshot_config(&opts(&[]).unwrap()).unwrap().capacity == 0);
        let bad = opts(&["--snapshot-eviction", "fifo"]).unwrap();
        assert!(snapshot_config(&bad).is_err());
    }

    #[test]
    fn trace_diff_requires_two_paths() {
        let o = parse("trace-diff", &["only-one.jsonl"]).unwrap();
        let err = cmd_trace_diff(&o).expect_err("one path must be rejected");
        assert!(err.contains("exactly two"));
    }
}
