//! Latency samples, the metric table and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::sys;

/// Samples of one quantity, in the unit it is reported in.
#[derive(Default)]
pub struct Samples {
    v: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.v.push(x);
        self.sorted = false;
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Nearest-rank quantile, with the number of samples beyond it.
    /// `None` when there are no samples.
    pub fn quantile(&mut self, p: f64) -> Option<(f64, usize)> {
        if self.v.is_empty() {
            return None;
        }
        if !self.sorted {
            self.v.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.v.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some((self.v[rank - 1], n - rank))
    }

    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5).map(|(v, _)| v)
    }

    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0).map(|(v, _)| v)
    }
}

/// Slices per measured window.
pub const SLICES: usize = 10;

fn slice_of(start: Instant, width: f64, at: Instant) -> usize {
    ((at.saturating_duration_since(start).as_secs_f64() / width) as usize).min(SLICES - 1)
}

/// Which slices a gated figure is read from: every one by default, those
/// [`SliceSteal::quiet`] picks once it is known.
fn kept<'a, T>(slices: &'a mut [T], keep: &'a [bool]) -> impl Iterator<Item = &'a mut T> {
    slices
        .iter_mut()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(s, _)| s)
}

/// CPU time the hypervisor took from this machine in each time slice of
/// the measured window, read from `/proc/stat` at the slice boundaries by
/// whichever loop polls it. Other tenants' load comes in bursts of
/// seconds; figures read from the slices with the least of it do not
/// move with it.
pub struct SliceSteal {
    start: Instant,
    width: f64,
    /// `(steal, total)` ticks at each boundary passed, `None` where one
    /// poll passed several boundaries at once.
    ticks: Vec<Option<(u64, u64)>>,
}

impl SliceSteal {
    pub fn new(start: Instant, seconds: f64) -> Self {
        Self {
            start,
            width: seconds / SLICES as f64,
            ticks: Vec::with_capacity(SLICES + 1),
        }
    }

    /// Sample at every boundary `now` has passed since the last poll.
    pub fn poll(&mut self, now: Instant) {
        let passed = if now < self.start {
            0
        } else {
            ((now - self.start).as_secs_f64() / self.width) as usize + 1
        };
        let passed = passed.min(SLICES + 1);
        if passed > self.ticks.len() {
            self.ticks.resize(passed - 1, None);
            self.ticks.push(Some(sys::cpu_ticks()));
        }
    }

    /// Steal per slice, in percent; unknown slices read infinite.
    pub fn per_slice(&self) -> Vec<f64> {
        (0..SLICES)
            .map(|i| match (self.ticks.get(i), self.ticks.get(i + 1)) {
                (Some(Some(a)), Some(Some(b))) if b.1 > a.1 => {
                    100.0 * (b.0 - a.0) as f64 / (b.1 - a.1) as f64
                }
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// The slice with less steal of each adjacent pair (the earlier one
    /// on a tie). Writes accumulate in the index over a run, so reads and
    /// commits slow down from its first slice to its last; taking one
    /// slice from every pair reads each figure from the same stretches of
    /// the run whichever slices the noise spoiled, where the quieter half
    /// overall would read early slices in one run and late ones in the
    /// next.
    pub fn quiet(&self) -> Vec<bool> {
        let steal = self.per_slice();
        let mut keep = vec![false; SLICES];
        for i in (0..SLICES).step_by(2) {
            keep[if steal[i + 1] < steal[i] { i + 1 } else { i }] = true;
        }
        keep
    }
}

/// Work completed per second, by time slice of the measured window: each
/// slice's rate is the work of the requests that started in it over the
/// time from the first of them starting to the last finishing, and the
/// figure is the median over the kept slices, for the same reasons as
/// [`Sliced`].
pub struct Rate {
    start: Instant,
    width: f64,
    /// Per slice: first start, last completion, work done.
    slices: Vec<Option<(Instant, Instant, f64)>>,
    keep: Vec<bool>,
}

impl Rate {
    pub fn new(start: Instant, seconds: f64) -> Self {
        Self {
            start,
            width: seconds / SLICES as f64,
            slices: vec![None; SLICES],
            keep: vec![true; SLICES],
        }
    }

    pub fn note(&mut self, start: Instant, done: Instant, work: f64) {
        let slot = &mut self.slices[slice_of(self.start, self.width, start)];
        *slot = Some(match *slot {
            None => (start, done, work),
            Some((first, last, sum)) => (first.min(start), last.max(done), sum + work),
        });
    }

    pub fn keep(&mut self, keep: &[bool]) {
        self.keep = keep.to_vec();
    }

    /// Work per second of every slice, kept or not; NaN where a slice
    /// noted nothing.
    pub fn per_slice(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| match *s {
                Some((first, last, work)) if last > first => work / (last - first).as_secs_f64(),
                _ => f64::NAN,
            })
            .collect()
    }

    /// Median over kept slices of work per second (0 when nothing was
    /// noted).
    pub fn per_s(&mut self) -> f64 {
        let mut per = Samples::default();
        for &mut (first, last, work) in kept(&mut self.slices, &self.keep).flatten() {
            if last > first {
                per.push(work / (last - first).as_secs_f64());
            }
        }
        per.median().unwrap_or(0.0)
    }
}

/// Something quantiles can be read from.
pub trait Quantiles {
    fn len(&self) -> usize;
    /// The `p` quantile and the number of samples beyond it.
    fn quantile(&mut self, p: f64) -> Option<(f64, usize)>;
}

impl Quantiles for Samples {
    fn len(&self) -> usize {
        Samples::len(self)
    }

    fn quantile(&mut self, p: f64) -> Option<(f64, usize)> {
        Samples::quantile(self, p)
    }
}

/// Samples split by when they started into equal time slices of the
/// measured window. A figure read from them is the median over the kept
/// slices of that figure per slice, so noise from other tenants of the
/// machine that spoils some slices does not move it.
pub struct Sliced {
    start: Instant,
    width: f64,
    slices: Vec<Samples>,
    keep: Vec<bool>,
}

impl Sliced {
    pub fn new(start: Instant, seconds: f64) -> Self {
        Self {
            start,
            width: seconds / SLICES as f64,
            slices: (0..SLICES).map(|_| Samples::default()).collect(),
            keep: vec![true; SLICES],
        }
    }

    /// Record `v` for a request that started (or fell due) at `at`.
    pub fn push(&mut self, at: Instant, v: f64) {
        self.slices[slice_of(self.start, self.width, at)].push(v);
    }

    pub fn keep(&mut self, keep: &[bool]) {
        self.keep = keep.to_vec();
    }

    /// The `p` quantile of every slice, kept or not; NaN where a slice is
    /// empty.
    pub fn per_slice(&mut self, p: f64) -> Vec<f64> {
        self.slices
            .iter_mut()
            .map(|s| s.quantile(p).map_or(f64::NAN, |q| q.0))
            .collect()
    }

    /// Every sample of the window as one set.
    pub fn all(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.slices {
            all.v.extend_from_slice(&s.v);
        }
        all
    }
}

impl Quantiles for Sliced {
    fn len(&self) -> usize {
        self.slices.iter().map(Samples::len).sum()
    }

    /// Median of the quantiles of the kept slices that hold samples; the
    /// samples beyond are the fewest any of those slices has.
    fn quantile(&mut self, p: f64) -> Option<(f64, usize)> {
        let mut per = Samples::default();
        let mut beyond = usize::MAX;
        for (v, b) in kept(&mut self.slices, &self.keep).filter_map(|s| s.quantile(p)) {
            per.push(v);
            beyond = beyond.min(b);
        }
        Some((per.median()?, beyond))
    }
}

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported as that percentile.
pub const MIN_BEYOND: usize = 10;

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// The BENCHMARK.json metric this value is reported as, if any.
    pub gate: Option<&'static str>,
    pub note: String,
}

/// Everything a workload run prints.
#[derive(Default)]
pub struct Report {
    pub meta: Vec<(&'static str, String)>,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed after the table (reconciliation, warnings).
    pub lines: Vec<String>,
    pub attempted: u64,
    /// Transport errors, error frames, wrong answers and open-loop
    /// requests the generator never managed to send.
    pub failed: u64,
    pub wrong: u64,
}

impl Report {
    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    pub fn add(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> &mut Metric {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            gate: None,
            note: String::new(),
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// Add a quantile of `s`. A tail quantile with fewer than
    /// [`MIN_BEYOND`] samples beyond it is left out when `strict` (the
    /// table says why) and kept with a note otherwise.
    pub fn quantile(
        &mut self,
        name: &'static str,
        s: &mut impl Quantiles,
        p: f64,
        unit: &'static str,
        strict: bool,
    ) -> Option<&mut Metric> {
        let n = s.len();
        let (v, beyond) = s.quantile(p)?;
        let thin = p > 0.5 && beyond < MIN_BEYOND;
        if thin && strict {
            self.lines.push(format!(
                "{name} not reported: {n} samples leave {beyond} beyond p{} (needs {MIN_BEYOND})",
                p * 100.0
            ));
            return None;
        }
        let m = self.add(name, v, unit, n);
        if thin {
            m.note = format!("only {beyond} samples beyond p{}", p * 100.0);
        }
        Some(m)
    }

    pub fn print_table(&self) {
        let mut out = String::new();
        let meta: Vec<String> = self.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "# {}", meta.join(" "));
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:<6} {:>9}  {:<18} note",
            "metric", "value", "unit", "samples", "reported as"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<28} {:>14.4} {:<6} {:>9}  {:<18} {}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.gate.unwrap_or("-"),
                m.note
            );
        }
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        print!("{out}");
    }

    /// The result line: `names` picked by gate name (end-to-end) or by
    /// metric name (per-layer). A per-layer metric the workload does not
    /// exercise reads 0.
    pub fn result_json(&self, names: &[(&str, &str)], by_gate: bool) -> Result<String, String> {
        let mut parts = Vec::new();
        for &(name, unit) in names {
            let found = self.metrics.iter().find(|m| {
                if by_gate {
                    m.gate == Some(name)
                } else {
                    m.name == name
                }
            });
            let value = match found {
                Some(m) => {
                    if m.unit != unit {
                        return Err(format!(
                            "metric {name} measured in {} but declared in {unit}",
                            m.unit
                        ));
                    }
                    m.value
                }
                None if by_gate => {
                    return Err(format!("end-to-end metric {name} was not measured"))
                }
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            // `{:?}` prints the shortest form that reads back as the same
            // number, always as a JSON number (`800.0`, `1e-7`).
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}
