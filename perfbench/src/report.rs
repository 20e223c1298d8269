//! Measurement plumbing: the run outcome and its JSON line, order
//! statistics, the benchmark-side span recorder, and `sc_obs` registry
//! deltas.

use sc_obs::{Registry, RegistrySnapshot};
use std::time::{Duration, Instant};

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit, unscaled value of a time)`.
    metrics: Vec<(String, f64, &'static str, Option<f64>)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit, None));
    }

    /// A time scaled to the reference host speed; `unscaled` is the same
    /// figure as measured, printed next to it (see [`HostSpeed`]).
    fn time(&mut self, name: &str, value: f64, unscaled: f64, unit: &'static str) {
        self.metrics
            .push((name.to_string(), value, unit, Some(unscaled)));
    }

    /// Adds `name` as 0 unless the workload measured it.
    pub fn default_metric(&mut self, name: &str, unit: &'static str) {
        if !self.metrics.iter().any(|m| m.0 == name) {
            self.metric(name, 0.0, unit);
        }
    }

    /// Records the end-to-end metrics every workload reports: its times
    /// scaled to the reference host speed, each next to its unscaled value.
    pub fn end_to_end(&mut self, scaled: &Times, unscaled: &Times, stored_bytes_per_fact: f64) {
        let (t, u) = (scaled, unscaled);
        self.time("setup_s", t.setup_s, u.setup_s, "s");
        self.time("throughput_per_s", t.per_s, u.per_s, "1/s");
        for (name, q) in [("p50_us", 0.50), ("p90_us", 0.90)] {
            let (tq, uq) = (quantile(&t.latency_us, q), quantile(&u.latency_us, q));
            self.time(name, tq, uq, "us");
        }
        self.time("restart_s", t.restart_s, u.restart_s, "s");
        self.metric("stored_bytes_per_fact", stored_bytes_per_fact, "B/fact");
    }

    /// Orders the metrics as `names`, dropping any other.
    ///
    /// # Panics
    /// If a workload did not measure one of `names`.
    pub fn retain_exactly(&mut self, names: &[&str]) {
        let mut kept = Vec::with_capacity(names.len());
        for name in names {
            let i = self
                .metrics
                .iter()
                .position(|m| m.0 == *name)
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            kept.push(self.metrics.swap_remove(i));
        }
        self.metrics = kept;
    }

    /// Records one checked operation; a failed check is reported on stderr
    /// with its context.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// Prints one line per metric, then the result object as the last line.
    pub fn print(&self) {
        for (name, value, unit, unscaled) in &self.metrics {
            match unscaled {
                Some(raw) => println!("  {name:<40} {value:>16.4} {unit:<6} (unscaled {raw:.4})"),
                None => println!("  {name:<40} {value:>16.4} {unit}"),
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The timed end-to-end figures of a run under one [`Scale`].
#[derive(Debug)]
pub struct Times {
    /// Median set-up time.
    pub setup_s: f64,
    /// Operations per second.
    pub per_s: f64,
    /// Every operation's latency, ascending.
    pub latency_us: Vec<f64>,
    /// Median reopen time.
    pub restart_s: f64,
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `v` and returns its median.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Spans recorded by the benchmark around its calls into each layer's
/// public functions. Kept in memory; [`Tracer::summary`] prints total and
/// self time per span name when the run ends. Recording is off in
/// end-to-end runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            self.spans[id].end = self.epoch.elapsed();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// `(count, total)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, Duration) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, Duration::ZERO), |(n, t), s| {
                (n + 1, t + (s.end - s.start))
            })
    }

    /// Per name: count, total and self time (total minus the time its
    /// direct children cover), in first-seen order.
    pub fn summary(&self) {
        if self.spans.is_empty() {
            return;
        }
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        println!("spans (recorded by the benchmark around each layer call):");
        for name in names {
            let (mut n, mut total, mut own) = (0u64, Duration::ZERO, Duration::ZERO);
            for (i, s) in self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
            {
                n += 1;
                total += s.end - s.start;
                own += (s.end - s.start).saturating_sub(child[i]);
            }
            println!(
                "  {name:<28} n={n:<8} total={:>12.1}us self={:>12.1}us",
                micros(total),
                micros(own)
            );
        }
    }
}

/// Counter and histogram deltas of the global `sc_obs` registry between
/// two snapshots.
#[derive(Debug)]
pub struct Delta {
    before: RegistrySnapshot,
    after: RegistrySnapshot,
}

impl Delta {
    pub fn start() -> RegistrySnapshot {
        Registry::global().snapshot()
    }

    pub fn since(before: RegistrySnapshot) -> Delta {
        Delta {
            before,
            after: Registry::global().snapshot(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &RegistrySnapshot| s.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// `(count, sum)` recorded into histogram `name`.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let get = |s: &RegistrySnapshot| {
            s.histogram(name)
                .map(|h| (h.count, h.sum))
                .unwrap_or((0, 0))
        };
        let (c0, s0) = get(&self.before);
        let (c1, s1) = get(&self.after);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    /// Mean of the values recorded into histogram `name` (0 when none).
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (n, sum) = self.hist(name);
        ratio(sum, n)
    }

    /// `hit / (hit + miss)` over two counters.
    pub fn hit_ratio(&self, hit: &str, miss: &str) -> f64 {
        let h = self.counter(hit);
        ratio(h, h + self.counter(miss))
    }
}

/// What the reference kernel takes on a quiet build host, in microseconds:
/// the speed every time metric is scaled to.
pub const REFERENCE_US: f64 = 77.0;
/// Length of a host-speed window, in seconds.
const WINDOW_S: f64 = 0.25;

/// A fixed CPU and memory kernel written in the benchmark's own code
/// (sort, table updates, integer formatting), so no change to the program
/// can change its cost. It works in buffers allocated once, so it neither
/// allocates nor frees: a program change that fragments the heap does not
/// slow it.
#[derive(Debug)]
struct Kernel {
    values: Vec<u64>,
    table: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            values: vec![0; 4096],
            table: vec![0; 1024],
        }
    }

    fn run(&mut self) -> Duration {
        use std::io::Write;
        let t = Instant::now();
        let mut rng = crate::feed::Rng::new(7);
        for v in &mut self.values {
            *v = rng.next_u64();
        }
        self.values.sort_unstable();
        self.table.fill(0);
        for x in &self.values {
            let slot = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize;
            self.table[slot] = self.table[slot].wrapping_add(x & 7);
        }
        let mut text = [0u8; 24];
        let mut digits = 0;
        for x in &self.values[..256] {
            let mut w = &mut text[..];
            write!(w, "{x}").expect("a u64 fits in 24 bytes");
            digits += 24 - w.len();
        }
        std::hint::black_box((&self.table, digits));
        t.elapsed()
    }
}

/// The host's speed through a run. The build host is a shared VM whose
/// CPU speed swings by up to 2x over seconds, so every timed operation is
/// scaled by `REFERENCE_US / R`, where `R` is the median time of the
/// reference kernel over the samples taken within the same quarter second
/// of the run. The workloads interleave [`HostSpeed::sample`] calls with their
/// operations.
///
/// The kernel shares the CPUs, the caches and the memory bus with the
/// program's own threads, so a program change that slows the whole host
/// (more background CPU work, more cache pressure) also slows the kernel
/// and is partly divided out of the scaled figures. Every scaled
/// end-to-end figure is therefore printed next to its unscaled value.
#[derive(Debug)]
pub struct HostSpeed {
    epoch: Instant,
    kernel: Kernel,
    /// `(seconds into the run, kernel time in us)`.
    samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            epoch: Instant::now(),
            kernel: Kernel::new(),
            samples: Vec::with_capacity(1 << 16),
        }
    }

    /// Seconds since the run started: the time stamp of a measurement.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The instant time stamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Times the reference kernel `n` times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let at = self.now();
            let us = micros(self.kernel.run());
            self.samples.push((at, us));
        }
    }

    /// The scale of every window, ready for [`Scale::at`].
    pub fn scale(&self) -> Scale {
        let count = self
            .samples
            .iter()
            .map(|s| window(s.0) + 1)
            .max()
            .unwrap_or(1);
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); count];
        for &(at, us) in &self.samples {
            windows[window(at)].push(us);
        }
        // A window with fewer than 5 samples (a long single operation) is
        // widened a window at a time on each side until it has them.
        let factors = (0..count)
            .map(|w| {
                let mut near = Vec::new();
                for reach in 0..count {
                    near.clear();
                    for window in &windows[w.saturating_sub(reach)..=(w + reach).min(count - 1)] {
                        near.extend(window);
                    }
                    if near.len() >= 5 {
                        break;
                    }
                }
                if near.is_empty() {
                    1.0
                } else {
                    REFERENCE_US / median(&mut near)
                }
            })
            .collect();
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        Scale {
            factors,
            whole: if all.is_empty() {
                1.0
            } else {
                REFERENCE_US / median(&mut all)
            },
        }
    }
}

fn window(at: f64) -> usize {
    (at.max(0.0) / WINDOW_S) as usize
}

/// Per-window factors from [`HostSpeed::scale`].
#[derive(Debug)]
pub struct Scale {
    factors: Vec<f64>,
    /// The factor of the whole run (per-layer figures use it).
    pub whole: f64,
}

impl Scale {
    /// The identity: figures "scaled" by it are the unscaled figures.
    pub fn none() -> Scale {
        Scale {
            factors: vec![1.0],
            whole: 1.0,
        }
    }

    /// Scales a short duration measured at `at` seconds into the run.
    pub fn at(&self, at: f64, value: f64) -> f64 {
        value * self.factors[window(at).min(self.factors.len() - 1)]
    }

    /// Scales every `(at, us)` short duration; returns them ascending.
    pub fn sorted(&self, durations: impl Iterator<Item = (f64, f64)>) -> Vec<f64> {
        let mut v: Vec<f64> = durations.map(|(at, us)| self.at(at, us)).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median of every `(at, seconds)` duration, each scaled by
    /// [`Scale::span`].
    pub fn median_span(&self, spans: impl Iterator<Item = (f64, f64)>) -> f64 {
        let mut v: Vec<f64> = spans.map(|(at, s)| self.span(at, s)).collect();
        median(&mut v)
    }

    /// Scales a duration of `seconds` that started at `at`, by the mean
    /// factor of the windows it spans.
    pub fn span(&self, at: f64, seconds: f64) -> f64 {
        let last = self.factors.len() - 1;
        let ws = &self.factors[window(at).min(last)..=window(at + seconds).min(last)];
        seconds * ws.iter().sum::<f64>() / ws.len() as f64
    }
}
