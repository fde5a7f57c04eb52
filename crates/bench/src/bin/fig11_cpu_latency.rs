//! Fig. 11 — CDFs of invocation latency components for the CPU-intensive
//! workload under Vanilla, SFS, Kraken, and FaaSBatch:
//! (a) scheduling latency, (b) cold-start latency, (c) execution latency
//! (plus Kraken's `Exec+Queue` series).

use faasbatch_bench::{
    cdf_table, export_json, paper_cpu_workload, reports, summary_table, DEFAULT_WINDOW,
};
use faasbatch_core::scheduler_kind::SchedulerKind;
use faasbatch_metrics::stats::Cdf;

fn main() {
    let w = paper_cpu_workload();
    println!(
        "Fig. 11 — latency CDFs, CPU-intensive workload ({} invocations)\n",
        w.len()
    );
    let reports = reports(&SchedulerKind::PAPER_FOUR, &w, "cpu", DEFAULT_WINDOW);

    let series = |f: &dyn Fn(&faasbatch_metrics::report::RunReport) -> Cdf| -> Vec<(&str, Cdf)> {
        reports
            .iter()
            .map(|r| (r.scheduler.as_str(), f(r)))
            .collect()
    };
    println!(
        "{}",
        cdf_table("(a) scheduling latency", &series(&|r| r.scheduling_cdf()))
    );
    println!(
        "{}",
        cdf_table("(b) cold-start latency", &series(&|r| r.cold_start_cdf()))
    );
    println!(
        "{}",
        cdf_table("(c) execution latency", &series(&|r| r.execution_cdf()))
    );
    let mut exec_queue = series(&|r| r.execution_cdf());
    exec_queue.push(("kraken exec+queue", reports[2].exec_queue_cdf()));
    println!("{}", cdf_table("(c') execution + queuing", &exec_queue));

    println!("{}", summary_table(&reports));
    println!("Expected shape: FaaSBatch lowest scheduling + cold-start tails;");
    println!("Kraken comparable until ~p96 then diverging; exec similar for all");
    println!("but Kraken's Exec+Queue far above everyone (queuing penalty).");
    export_json("fig11_cpu_latency", &reports);
}
