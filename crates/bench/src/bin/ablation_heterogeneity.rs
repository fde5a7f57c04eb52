//! Ablation — per-function duration heterogeneity: the paper's workload
//! samples every invocation from one global distribution; real platforms
//! have short functions and long functions. This harness turns on distinct
//! per-function duration profiles and checks which scheduler conclusions
//! survive — notably whether SFS's short-function priority and Kraken's
//! per-function SLOs start paying off.

use faasbatch_bench::{reports, summary_table, DEFAULT_WINDOW, SEED};
use faasbatch_core::scheduler_kind::SchedulerKind;
use faasbatch_simcore::rng::DetRng;
use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};

fn main() {
    for h in [0.0, 2.0] {
        let w = cpu_workload(
            &DetRng::new(SEED),
            &WorkloadConfig {
                heterogeneity: h,
                ..WorkloadConfig::default()
            },
        );
        println!(
            "=== heterogeneity {h} ({} invocations, {} functions) ===",
            w.len(),
            w.registry().len()
        );
        let reports = reports(&SchedulerKind::PAPER_FOUR, &w, "cpu-hetero", DEFAULT_WINDOW);
        println!("{}", summary_table(&reports));
    }
    println!("Expected: the FaaSBatch-first ordering is unchanged; with distinct");
    println!("profiles SFS's short-function gains and Kraken's per-function SLO");
    println!("batching become visible in the per-scheduler latency columns.");
}
