//! Headline comparison *with phase breakdowns*: where the time goes under
//! each scheduler, and which phases FaaSBatch's win comes from.
//!
//! Regenerates the headline comparison across all six schedulers
//! (Vanilla/SFS/Kraken/Hiku/core-late-bind/FaaSBatch) on both canonical
//! workloads, attributes every invocation's latency to the eleven phases of
//! DESIGN.md §13/§19, prints per-scheduler breakdowns plus the
//! Vanilla-vs-FaaSBatch trace diff, and commits the text report to
//! `results/headline_attribution.txt` and a compact per-scheduler
//! mean-phase JSON to `results/headline_attribution.json`.
//!
//! A final section re-runs the CPU workload with the snapshot tier enabled
//! (short keep-alive so the pool churns, then a capacity-8 cache): the
//! cold-start phase mass visibly moves into the restore phase, which is the
//! headline claim of the snapshot tier.

use faasbatch_bench::{
    paper_cpu_workload, paper_io_workload, snapshot_ablation_setup, traced, DEFAULT_WINDOW,
};
use faasbatch_container::snapshot::SnapshotConfig;
use faasbatch_core::scheduler_kind::SchedulerKind;
use faasbatch_metrics::analysis::{diff_reports, AttributionEngine, AttributionReport, Phase};
use faasbatch_metrics::events::SimEvent;
use faasbatch_schedulers::config::SimConfig;
use serde::Value;
use std::fmt::Write as _;

fn attribute(events: &[SimEvent]) -> AttributionReport {
    let mut engine = AttributionEngine::new();
    engine.consume(events);
    let report = engine.finish();
    assert!(
        report.all_exact(),
        "attribution phases must sum exactly to end-to-end latency"
    );
    report
}

/// Mean phase durations as a deterministic JSON object (µs per phase).
fn mean_phases_json(report: &AttributionReport) -> Value {
    let mean = report.mean_phases();
    Value::Map(
        Phase::ALL
            .iter()
            .map(|&p| (p.name().to_owned(), Value::U64(mean.get(p).as_micros())))
            .collect(),
    )
}

fn main() {
    let mut text = String::new();
    let mut json: Vec<(String, Value)> = Vec::new();

    for (label, workload) in [("cpu", paper_cpu_workload()), ("io", paper_io_workload())] {
        let (reports, streams) = traced(
            &SchedulerKind::ALL,
            &workload,
            label,
            DEFAULT_WINDOW,
            &SimConfig::default(),
        );
        let attributed: Vec<AttributionReport> = streams.iter().map(|s| attribute(s)).collect();

        let _ = writeln!(
            text,
            "=== {label} workload ({} invocations) ===\n",
            workload.len()
        );
        let mut schedulers: Vec<(String, Value)> = Vec::new();
        for (report, attribution) in reports.iter().zip(&attributed) {
            let _ = writeln!(text, "--- {} ---", report.scheduler);
            let _ = write!(text, "{}", attribution.render());
            let _ = writeln!(text);
            schedulers.push((report.scheduler.clone(), mean_phases_json(attribution)));
        }

        // The headline claim, attributed: vanilla (A) vs faasbatch (B).
        let diff = diff_reports(&attributed[0], &attributed[5]);
        let _ = write!(
            text,
            "{}",
            diff.render(
                &format!("vanilla/{label}"),
                &format!("faasbatch/{label}"),
                10
            )
        );
        let _ = writeln!(text);
        assert!(
            diff.attributed_fraction() >= 0.9,
            "phase deltas must explain >= 90% of the latency movement"
        );

        json.push((
            label.to_owned(),
            Value::Map(vec![
                (
                    "mean_phases_us_per_scheduler".to_owned(),
                    Value::Map(schedulers),
                ),
                (
                    "vanilla_vs_faasbatch_mean_delta_us".to_owned(),
                    Value::I64(diff.mean_delta_micros),
                ),
                (
                    "attributed_fraction".to_owned(),
                    Value::F64(diff.attributed_fraction()),
                ),
            ]),
        ));
    }

    // DESIGN.md §19: the snapshot tier moves cold-start mass into the
    // restore phase. Re-run the CPU workload under a churn-inducing 2 s
    // keep-alive, with the tier off and with a capacity-8 cache, and show
    // the per-scheduler mean cold-start/restore phases side by side.
    let base = snapshot_ablation_setup();
    let snap = SimConfig {
        snapshot: SnapshotConfig::with_capacity(8),
        ..base.clone()
    };
    let cpu = paper_cpu_workload();
    let all = &SchedulerKind::ALL;
    let (off_reports, off_streams) = traced(all, &cpu, "cpu-churn", DEFAULT_WINDOW, &base);
    let (on_reports, on_streams) = traced(all, &cpu, "cpu-snap", DEFAULT_WINDOW, &snap);
    let _ = writeln!(
        text,
        "=== snapshot tier (cpu workload, 2s keep-alive, cache off vs capacity 8) ===\n"
    );
    let mut snap_json: Vec<(String, Value)> = Vec::new();
    for i in 0..6 {
        let off = attribute(&off_streams[i]).mean_phases();
        let on = attribute(&on_streams[i]).mean_phases();
        let (cold_off, cold_on) = (off.get(Phase::ColdStart), on.get(Phase::ColdStart));
        let (restore_off, restore_on) = (off.get(Phase::Restore), on.get(Phase::Restore));
        assert!(
            restore_off.is_zero(),
            "restore phase must be empty with the tier disabled"
        );
        assert!(
            on_reports[i].restored_starts > 0 && !restore_on.is_zero(),
            "the capacity-8 cache must serve restores under a churning pool"
        );
        assert!(
            cold_on < cold_off,
            "restores must drain mean cold-start mass"
        );
        let _ = writeln!(
            text,
            "{:>16}: mean cold-start {} -> {}, mean restore {} -> {} ({} restored starts)",
            off_reports[i].scheduler,
            cold_off,
            cold_on,
            restore_off,
            restore_on,
            on_reports[i].restored_starts,
        );
        snap_json.push((
            off_reports[i].scheduler.clone(),
            Value::Map(vec![
                ("cold_us_off".to_owned(), Value::U64(cold_off.as_micros())),
                ("cold_us_on".to_owned(), Value::U64(cold_on.as_micros())),
                (
                    "restore_us_on".to_owned(),
                    Value::U64(restore_on.as_micros()),
                ),
                (
                    "restored_starts".to_owned(),
                    Value::U64(on_reports[i].restored_starts),
                ),
            ]),
        ));
    }
    let _ = writeln!(
        text,
        "\nWith the cache on, every scheduler trades full re-boots for restores:\n\
         the cold-start phase shrinks and the (much smaller) restore phase\n\
         absorbs the difference, invocation by invocation, summing exactly."
    );
    json.push(("snapshot_tier_cpu".to_owned(), Value::Map(snap_json)));

    print!("{text}");
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write("results/headline_attribution.txt", &text);
        if let Ok(pretty) = serde_json::to_string_pretty(&Value::Map(json)) {
            let _ = std::fs::write("results/headline_attribution.json", pretty);
        }
        println!("wrote results/headline_attribution.txt and results/headline_attribution.json");
    }
}
