//! The traced runs' event sink: counts work per layer where the program
//! emits it, times itself, and forwards every event to an inner sink.

use faasbatch_container::ids::ContainerId;
use faasbatch_metrics::events::{EventKind, SimEvent, TaskKind, TraceSink};
use std::any::Any;
use std::collections::HashMap;
use std::time::Instant;

/// Where a simulated CPU task runs: the container daemon, or a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Group {
    Daemon,
    Container(ContainerId),
    /// A batch whose dispatch decision has not been seen yet.
    Batch(u64),
}

/// Counts the stream at the `metrics` sink boundary and derives the
/// `simcore` CPU-model load from `TaskStart`/`TaskFinish`.
pub struct LayerSink {
    inner: Box<dyn TraceSink>,
    /// Sink calls (`record` or `record_batch`).
    pub calls: u64,
    pub events: u64,
    /// Host seconds spent inside this sink, forwarding included.
    pub self_s: f64,
    /// `(start, end)` of every `record_batch` call, for spans.
    pub batch_calls: Vec<(Instant, Instant)>,
    pub tasks_started: u64,
    tasks_live: u64,
    pub peak_tasks: u64,
    group_tasks: HashMap<Group, u64>,
    pub peak_groups: u64,
    batch_container: HashMap<u64, ContainerId>,
    /// `DispatchDecision`s seen and their total members.
    pub decisions: u64,
    pub decision_members: u64,
    /// Fleet `GroupFormed` groups seen and their total size.
    pub fleet_groups: u64,
    pub fleet_group_members: u64,
}

impl LayerSink {
    pub fn new(inner: Box<dyn TraceSink>) -> Self {
        LayerSink {
            inner,
            calls: 0,
            events: 0,
            self_s: 0.0,
            batch_calls: Vec::new(),
            tasks_started: 0,
            tasks_live: 0,
            peak_tasks: 0,
            group_tasks: HashMap::new(),
            peak_groups: 0,
            batch_container: HashMap::new(),
            decisions: 0,
            decision_members: 0,
            fleet_groups: 0,
            fleet_group_members: 0,
        }
    }

    /// The forwarded-to sink, for downcasting after the run.
    pub fn inner(&self) -> &dyn TraceSink {
        self.inner.as_ref()
    }

    fn group(&self, task: &TaskKind) -> Group {
        let of_batch = |batch: &u64| {
            self.batch_container
                .get(batch)
                .map_or(Group::Batch(*batch), |&c| Group::Container(c))
        };
        match task {
            TaskKind::Decision { .. } | TaskKind::PrewarmLaunch { .. } | TaskKind::Overhead => {
                Group::Daemon
            }
            TaskKind::ColdBoot { batch }
            | TaskKind::ClientCreation { batch, .. }
            | TaskKind::Body { batch, .. } => of_batch(batch),
            TaskKind::PrewarmBoot { container } => Group::Container(*container),
        }
    }

    fn observe(&mut self, event: &SimEvent) {
        self.events += 1;
        match &event.kind {
            EventKind::DispatchDecision {
                batch,
                container,
                members,
                ..
            } => {
                self.batch_container.insert(*batch, *container);
                self.decisions += 1;
                self.decision_members += members.len() as u64;
            }
            EventKind::GroupFormed { size, .. } => {
                self.fleet_groups += 1;
                self.fleet_group_members += size;
            }
            EventKind::TaskStart { task } => {
                self.tasks_started += 1;
                self.tasks_live += 1;
                self.peak_tasks = self.peak_tasks.max(self.tasks_live);
                let group = self.group(task);
                let n = self.group_tasks.entry(group).or_insert(0);
                *n += 1;
                if *n == 1 {
                    self.peak_groups = self.peak_groups.max(self.group_tasks.len() as u64);
                }
            }
            EventKind::TaskFinish { task } => {
                self.tasks_live = self.tasks_live.saturating_sub(1);
                let group = self.group(task);
                if let Some(n) = self.group_tasks.get_mut(&group) {
                    *n -= 1;
                    if *n == 0 {
                        self.group_tasks.remove(&group);
                    }
                }
            }
            _ => {}
        }
    }
}

impl TraceSink for LayerSink {
    fn record(&mut self, event: &SimEvent) {
        let start = Instant::now();
        self.calls += 1;
        self.observe(event);
        self.inner.record(event);
        self.self_s += start.elapsed().as_secs_f64();
    }

    fn record_batch(&mut self, events: &[SimEvent]) {
        let start = Instant::now();
        self.calls += 1;
        for event in events {
            self.observe(event);
        }
        self.inner.record_batch(events);
        let end = Instant::now();
        self.self_s += end.duration_since(start).as_secs_f64();
        self.batch_calls.push((start, end));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
