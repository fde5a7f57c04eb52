//! Shared plumbing: metric collection and output, host probes, quantiles,
//! digests, and the in-memory span recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_owned()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Outcome counters of one run: operations attempted and failed, plus the
/// failed correctness checks (empty when the outputs are correct).
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Verdict {
    /// Records a correctness check; a failing one is kept with its message.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of already sorted `sorted` (0 when empty).
pub fn quantile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].into()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a digest of a value's `Debug` rendering. `Debug` prints
/// floats in shortest round-trip form, so equal digests mean equal values.
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM value {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// User + system CPU time of the whole process (all threads), in seconds.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name may hold spaces; the fields after it do not.
    let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5), utime and stime, in clock ticks.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("bad /proc/self/stat field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
}

/// `sysconf(_SC_CLK_TCK)` on every Linux ABI this runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time of the calling thread in seconds, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` (nanosecond resolution; the
/// `/proc` counters advance only at scheduler ticks).
pub fn thread_cpu_s() -> Result<f64, String> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the C
    // library std links against provides `clock_gettime`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

/// Best time of one [`reference_work`] call, in seconds, on the 2-vCPU
/// virtual machine the benchmark was sized on: the speed that host times
/// scaled by [`BestTimes`] are expressed at.
pub const REFERENCE_S: f64 = 1.6e-3;

/// How much more the simulator's host time moves than the reference's
/// when the host's speed changes: the slope of the one's logarithm over
/// the other's. On the sizing host, pairs of runs of one seed gave 1.43
/// (`sim_azure_stream`) and 1.74 (`sim_burst`), and 13 runs of one Azure
/// seed 1.5; scaling with a slope of 1 left two thirds of the drift in.
pub const SENSITIVITY: f64 = 1.5;

/// A fixed piece of standard-library work shaped like the simulator's hot
/// paths: a binary-heap event queue, hash-map bookkeeping (with a fixed
/// hasher, so every process does the same work), and processor sharing
/// that re-rates a few hundred tasks at each of its events. It belongs to
/// the benchmark, so a change to the program never changes its cost; only
/// the host's speed does.
pub fn reference_work(seed: u64) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BinaryHeap, HashMap};
    use std::hash::BuildHasherDefault;
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut owners: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut queue = BinaryHeap::new();
    for i in 0..10_000u64 {
        let r = next();
        queue.push((r % 100_000, i));
        owners.entry(r % 2_000).or_default().push(i);
        if i % 3 == 0 {
            queue.pop();
        }
    }
    let mut acc = owners.len() as u64;
    while let Some((t, i)) = queue.pop() {
        acc ^= t + i;
    }
    let mut left: Vec<f64> = (0..300).map(|i| 1.0 + ((seed + i) % 17) as f64).collect();
    while !left.is_empty() {
        let rate = 2.0 / left.len() as f64;
        let first = left.iter().copied().fold(f64::INFINITY, f64::min);
        left.iter_mut().for_each(|w| *w -= first);
        let before = left.len();
        left.retain(|&w| w > 1e-9);
        acc = acc.wrapping_add((before - left.len()) as u64 ^ (first / rate) as u64);
    }
    acc
}

/// Times a handful of [`reference_work`] calls now and appends their host
/// times to `into`.
pub fn time_reference(into: &mut Vec<f64>) {
    for i in 0..10 {
        let start = Instant::now();
        std::hint::black_box(reference_work(std::hint::black_box(i)));
        into.push(start.elapsed().as_secs_f64());
    }
}

/// Scales `median_s`, a median host time taken alongside the reference
/// times `refs`, to the reference speed: times [`REFERENCE_S`] over the
/// references' median, to the power [`SENSITIVITY`].
pub fn at_reference_speed(median_s: f64, refs: &[f64]) -> f64 {
    median_s * (REFERENCE_S / median(refs)).powf(SENSITIVITY)
}

/// Best (lowest) host and CPU time of each unit of work over repeated
/// passes, with a [`reference_work`] call timed the same way in each of a
/// number of slots spread over the pass.
///
/// A shared host slows single passes by 10–50% for milliseconds to
/// seconds at a time, and its best speed drifts by 20% or more from one
/// minute to the next. The fastest pass of each small unit removes the
/// first; scaling by the reference's best times, taken in the same passes,
/// removes most of the second.
#[derive(Debug, Clone)]
pub struct BestTimes {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    ref_wall_s: Vec<f64>,
    ref_cpu_s: Vec<f64>,
}

impl BestTimes {
    pub fn new(units: usize, slots: usize) -> Self {
        BestTimes {
            wall_s: vec![f64::INFINITY; units],
            cpu_s: vec![f64::INFINITY; units],
            ref_wall_s: vec![f64::INFINITY; slots],
            ref_cpu_s: vec![f64::INFINITY; slots],
        }
    }

    /// Keeps unit `i`'s pass if it beats the best seen so far.
    pub fn observe(&mut self, i: usize, wall_s: f64, cpu_s: f64) {
        self.wall_s[i] = self.wall_s[i].min(wall_s);
        self.cpu_s[i] = self.cpu_s[i].min(cpu_s);
    }

    /// Times one [`reference_work`] call in `slot`.
    pub fn reference(&mut self, slot: usize) -> Result<(), String> {
        let cpu_start = thread_cpu_s()?;
        let start = Instant::now();
        std::hint::black_box(reference_work(std::hint::black_box(slot as u64)));
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = thread_cpu_s()? - cpu_start;
        self.ref_wall_s[slot] = self.ref_wall_s[slot].min(wall_s);
        self.ref_cpu_s[slot] = self.ref_cpu_s[slot].min(cpu_s);
        Ok(())
    }

    /// This host's speed over [`REFERENCE_S`]'s: how many times faster it
    /// ran the reference work (host time, then CPU time).
    pub fn speed(&self) -> (f64, f64) {
        let nominal = REFERENCE_S * self.ref_wall_s.len() as f64;
        (
            nominal / self.ref_wall_s.iter().sum::<f64>(),
            nominal / self.ref_cpu_s.iter().sum::<f64>(),
        )
    }

    /// Sum over the units of their best host time and best CPU time, each
    /// scaled to the reference speed (by the speed to the power
    /// [`SENSITIVITY`]).
    pub fn totals(&self) -> (f64, f64) {
        let (wall, cpu) = self.speed();
        (
            self.wall_s.iter().sum::<f64>() * wall.powf(SENSITIVITY),
            self.cpu_s.iter().sum::<f64>() * cpu.powf(SENSITIVITY),
        )
    }
}

/// `(steal, total)` CPU ticks of the whole host since boot, from
/// `/proc/stat`: time this virtual machine's CPUs were runnable but held
/// by the hypervisor.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .map(|f| {
            f.parse()
                .map_err(|e| format!("bad /proc/stat field {f:?}: {e}"))
        })
        .collect::<Result<_, String>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7).ok_or("no steal field in /proc/stat")?;
    Ok((steal, fields.iter().take(8).sum()))
}

/// Kernel release string, from `/proc/sys/kernel/osrelease`.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One recorded span: a named interval at a layer boundary. Spans of one
/// replay or invocation share `trace`; `parent` is the index of the span
/// that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span recorder, written out once at the end of a run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            trace,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Appends spans recorded on another thread, re-basing their parent
    /// indices.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name prefix up to the second dot (the layer and
    /// its operation): each span's duration minus its children's.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end.duration_since(s.start).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end.duration_since(s.start).as_secs_f64() - child[i]).max(0.0);
            let key: String = s.name.splitn(3, '.').take(2).collect::<Vec<_>>().join(".");
            *out.entry(key).or_insert(0.0) += own;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                line,
                "{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.trace,
                s.name,
                us(s.start),
                us(s.end)
            )
            .expect("formatting into a String never fails");
            out.write_all(line.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Latency at the low, mid and high thirds of offered load, and the
/// highest load meeting the latency limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadLevels {
    /// `(p50_ms, p99_ms, mean offered rate per s)` per third.
    pub levels: [(f64, f64, f64); 3],
    /// Mean offered rate of the highest third whose p99 meets the limit
    /// (0 when none does).
    pub max_rate_per_s: f64,
}

/// Names of the three load levels, lowest first.
pub const LEVELS: [&str; 3] = ["low", "mid", "high"];

/// Splits `(offered rate per s, latency ms)` samples into thirds by
/// offered rate (ties in input order) and reports each third's latency.
pub fn load_levels(samples: &[(f64, f64)], limit_ms: f64) -> LoadLevels {
    assert!(samples.len() >= 3, "too few samples for three load levels");
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].0.total_cmp(&samples[b].0));
    let n = order.len();
    let mut levels = [(0.0, 0.0, 0.0); 3];
    let mut max_rate_per_s = 0.0;
    for (i, level) in levels.iter_mut().enumerate() {
        let part = &order[i * n / 3..(i + 1) * n / 3];
        let mut lat: Vec<f64> = part.iter().map(|&j| samples[j].1).collect();
        lat.sort_by(f64::total_cmp);
        let rate = part.iter().map(|&j| samples[j].0).sum::<f64>() / part.len() as f64;
        *level = (
            quantile_sorted(&lat, 0.50),
            quantile_sorted(&lat, 0.99),
            rate,
        );
        if level.1 <= limit_ms {
            max_rate_per_s = rate;
        }
    }
    LoadLevels {
        levels,
        max_rate_per_s,
    }
}

/// Records `p50_ms.<level>`, `p99_ms.<level>` and `max_rate_per_s`.
pub fn set_levels(metrics: &mut Metrics, levels: &LoadLevels) {
    for (name, (p50, p99, _)) in LEVELS.iter().zip(levels.levels) {
        metrics.set(format!("p50_ms.{name}"), p50);
        metrics.set(format!("p99_ms.{name}"), p99);
    }
    metrics.set("max_rate_per_s", levels.max_rate_per_s);
}
