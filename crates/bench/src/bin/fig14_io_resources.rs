//! Fig. 14 — resource costs on the I/O workload vs dispatch interval:
//! (a) total memory, (b) provisioned containers, (c) CPU utilization, and
//! (d) memory footprint per client-creation request.

use faasbatch_bench::{export_json, paper_io_workload, reports, DISPATCH_INTERVALS_MS};
use faasbatch_core::scheduler_kind::SchedulerKind;
use faasbatch_metrics::report::{text_table, RunReport};
use faasbatch_simcore::time::SimDuration;

fn main() {
    let w = paper_io_workload();
    println!(
        "Fig. 14 — resource cost vs dispatch interval, I/O workload ({} invocations)\n",
        w.len()
    );
    let mut all: Vec<RunReport> = Vec::new();
    let mut mem_rows = Vec::new();
    let mut ctr_rows = Vec::new();
    let mut cpu_rows = Vec::new();
    let mut client_rows = Vec::new();
    for &ms in &DISPATCH_INTERVALS_MS {
        let window = SimDuration::from_millis(ms);
        let reports = reports(&SchedulerKind::PAPER_FOUR, &w, "io", window);
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
            std::iter::once(interval.clone())
                .chain(
                    reports
                        .iter()
                        .map(|r| format!("{:.3}", r.mean_cpu_utilization())),
                )
                .collect(),
        );
        client_rows.push(
            std::iter::once(interval)
                .chain(
                    reports.iter().map(|r| {
                        format!("{:.2}", r.client_memory_per_request() / (1 << 20) as f64)
                    }),
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
    println!(
        "(d) memory per client-creation request (MB)\n{}",
        text_table(&headers, &client_rows)
    );
    println!("Expected shape: baselines ≈15 MB per client request, FaaSBatch ≪1 MB;");
    println!("FaaSBatch memory falls as the interval grows (more stuffing, more reuse)");
    println!("while Vanilla/SFS stay flat-to-rising; FaaSBatch lowest CPU.");
    export_json("fig14_io_resources", &all);
}
