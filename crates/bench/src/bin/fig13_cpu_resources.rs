//! Fig. 13 — resource costs on the CPU-intensive workload as a function of
//! the dispatch interval: (a) total memory, (b) provisioned containers,
//! (c) CPU utilization, for all four schedulers.
//!
//! Vanilla and SFS have no dispatch interval (they dispatch per arrival);
//! their series are flat, as in the paper's plots.

use faasbatch_bench::{export_json, paper_cpu_workload, reports, DISPATCH_INTERVALS_MS};
use faasbatch_core::scheduler_kind::SchedulerKind;
use faasbatch_metrics::report::{text_table, RunReport};
use faasbatch_simcore::time::SimDuration;

fn main() {
    let w = paper_cpu_workload();
    println!(
        "Fig. 13 — resource cost vs dispatch interval, CPU workload ({} invocations)\n",
        w.len()
    );
    let mut all: Vec<RunReport> = Vec::new();
    let mut mem_rows = Vec::new();
    let mut ctr_rows = Vec::new();
    let mut cpu_rows = Vec::new();
    for &ms in &DISPATCH_INTERVALS_MS {
        let window = SimDuration::from_millis(ms);
        let reports = reports(&SchedulerKind::PAPER_FOUR, &w, "cpu", window);
        let interval = format!("{:.2}s", ms as f64 / 1e3);
        mem_rows.push(
            std::iter::once(interval.clone())
                .chain(
                    reports
                        .iter()
                        .map(|r| format!("{:.2}", r.mean_memory_bytes() / (1u64 << 30) as f64)),
                )
                .collect(),
        );
        ctr_rows.push(
            std::iter::once(interval.clone())
                .chain(reports.iter().map(|r| r.provisioned_containers.to_string()))
                .collect(),
        );
        cpu_rows.push(
            std::iter::once(interval)
                .chain(
                    reports
                        .iter()
                        .map(|r| format!("{:.3}", r.mean_cpu_utilization())),
                )
                .collect(),
        );
        all.extend(reports);
    }
    let headers = ["interval", "vanilla", "sfs", "kraken", "faasbatch"];
    println!(
        "(a) mean system memory (GB)\n{}",
        text_table(&headers, &mem_rows)
    );
    println!(
        "(b) provisioned containers\n{}",
        text_table(&headers, &ctr_rows)
    );
    println!(
        "(c) mean CPU utilization\n{}",
        text_table(&headers, &cpu_rows)
    );
    println!("Expected shape: FaaSBatch lowest on every panel; Kraken close on");
    println!("containers (within ~12%); FaaSBatch improves as the interval grows.");
    export_json("fig13_cpu_resources", &all);
}
