//! The metric registry: named counters, gauges and fixed-bucket
//! histograms with cheap atomic updates.
//!
//! Metric names are hierarchical, dot-separated `scope.metric` paths
//! (e.g. `dram.refresh.rows_skipped`). Handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are cheap `Arc` clones of the registered metric:
//! components look their metrics up once at construction time and update
//! them lock-free on the hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zr_types::json::{Json, ToJson};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter not registered anywhere (a cheap null object
    /// for tests and defaults).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A detached gauge not registered anywhere.
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Stores `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, ascending; observations above
    /// the last bound land in the implicit overflow bucket.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets (the last is the overflow bucket).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// `f64` bit patterns maintained by CAS loops.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Buckets are defined by ascending upper bounds; one extra overflow
/// bucket catches everything above the last bound. `sum`, `count`, `min`
/// and `max` are tracked exactly.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bucket bounds"));
        bounds.dedup();
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    /// A detached histogram not registered anywhere.
    pub fn detached(bounds: &[f64]) -> Self {
        Histogram::new(bounds)
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let inner = &self.0;
        let idx = inner
            .bounds
            .partition_point(|&b| b < value)
            .min(inner.buckets.len() - 1);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        update_f64(&inner.sum_bits, |s| s + value);
        update_f64(&inner.min_bits, |m| m.min(value));
        update_f64(&inner.max_bits, |m| m.max(value));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Folds a snapshot of another histogram into this one.
    ///
    /// Counters of this merge are commutative (bucket counts, `count`
    /// and `sum` add; `min`/`max` combine), so absorbing a set of
    /// per-job histograms yields the same totals in any order. When the
    /// bucket bounds match — always the case for same-named metrics,
    /// which share their bound constants — buckets add exactly;
    /// mismatched bounds re-bucket each source bucket at its upper
    /// bound (the overflow bucket at the observed `max`).
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        let inner = &self.0;
        if inner.bounds == snap.bounds && inner.buckets.len() == snap.buckets.len() {
            for (bucket, &n) in inner.buckets.iter().zip(&snap.buckets) {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        } else {
            for (i, &n) in snap.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let value = snap.bounds.get(i).copied().unwrap_or(snap.max);
                let idx = inner
                    .bounds
                    .partition_point(|&b| b < value)
                    .min(inner.buckets.len() - 1);
                inner.buckets[idx].fetch_add(n, Ordering::Relaxed);
            }
        }
        inner.count.fetch_add(snap.count, Ordering::Relaxed);
        update_f64(&inner.sum_bits, |s| s + snap.sum);
        update_f64(&inner.min_bits, |m| m.min(snap.min));
        update_f64(&inner.max_bits, |m| m.max(snap.max));
    }

    /// Serializable snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        let count = self.count();
        let sum = self.sum();
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(inner.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(inner.max_bits.load(Ordering::Relaxed))
            },
        }
    }
}

fn update_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Point-in-time state of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; the final entry is the overflow
    /// bucket above the last bound.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Mean observation (0.0 when empty).
    pub mean: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) by linear
    /// interpolation within the bucket containing the target rank.
    ///
    /// Returns `None` for an empty histogram. Estimates are clamped to
    /// the exact `[min, max]` range, so single-observation and
    /// single-bucket snapshots report exact values, and ranks landing in
    /// the unbounded overflow bucket report `max`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = (q * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            let upto = seen + bucket;
            if (upto as f64) >= rank {
                // The target rank is inside bucket i. The overflow
                // bucket has no upper bound to interpolate toward, so it
                // reports the exact max.
                if i == self.bounds.len() {
                    return Some(self.max);
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = (rank - seen as f64) / bucket as f64;
                let est = lo + (hi - lo) * frac;
                return Some(est.clamp(self.min, self.max));
            }
            seen = upto;
        }
        Some(self.max)
    }

    fn from_json(doc: &Json) -> Option<HistogramSnapshot> {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64);
        let list = |k: &str| doc.get(k).and_then(Json::as_arr);
        Some(HistogramSnapshot {
            bounds: list("bounds")?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()?,
            buckets: list("buckets")?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()?,
            count: doc.get("count")?.as_u64()?,
            sum: num("sum")?,
            mean: num("mean")?,
            min: num("min")?,
            max: num("max")?,
        })
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bounds", self.bounds.to_json()),
            ("buckets", self.buckets.to_json()),
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            ("mean", self.mean.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

/// Point-in-time state of a whole [`Registry`], as written to
/// `<ZR_TELEMETRY>/<name>_snapshot.json` by the bench harness.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by metric name (phase timers appear under
    /// `span.<name>`).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Phase-timer histogram recorded by a span named `name` (spans are
    /// stored under `span.<name>`).
    pub fn span(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(&format!("span.{name}"))
    }

    /// Parses the document [`ToJson::to_json`] writes.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped member.
    pub fn from_json(doc: &Json) -> Result<Snapshot, String> {
        fn members<T>(
            doc: &Json,
            key: &str,
            parse: impl Fn(&Json) -> Option<T>,
        ) -> Result<BTreeMap<String, T>, String> {
            let Some(Json::Obj(fields)) = doc.get(key) else {
                return Err(format!("snapshot: `{key}` missing or not an object"));
            };
            fields
                .iter()
                .map(|(name, v)| {
                    parse(v)
                        .map(|x| (name.clone(), x))
                        .ok_or_else(|| format!("snapshot: {key}.{name} malformed"))
                })
                .collect()
        }
        Ok(Snapshot {
            counters: members(doc, "counters", Json::as_u64)?,
            gauges: members(doc, "gauges", Json::as_f64)?,
            histograms: members(doc, "histograms", HistogramSnapshot::from_json)?,
        })
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("counters", self.counters.to_json()),
            ("gauges", self.gauges.to_json()),
            ("histograms", self.histograms.to_json()),
        ])
    }
}

/// The metric registry. Get-or-create lookups take a lock; the returned
/// handles update lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// Builds an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it if new.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge registered under `name`, creating it if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` if new (an existing histogram keeps its original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut map = self.histograms.lock().expect("registry lock");
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Folds `snap` — typically the snapshot of a finished worker job's
    /// private registry — into this registry.
    ///
    /// Counters add and histograms merge (see [`Histogram::absorb`]),
    /// both commutatively, so the merged totals are independent of the
    /// order jobs are absorbed in; gauges are last-write-wins, so
    /// callers wanting determinism absorb jobs in submission order
    /// (the sweep pool does). Metrics the job registered but this
    /// registry has not seen yet are created, zero-valued counters
    /// included, so a pooled sweep registers exactly the counters a
    /// serial one does.
    pub fn absorb(&self, snap: &Snapshot) {
        for (name, &value) in &snap.counters {
            self.counter(name).add(value);
        }
        for (name, &value) in &snap.gauges {
            self.gauge(name).set(value);
        }
        for (name, hist) in &snap.histograms {
            self.histogram(name, &hist.bounds).absorb(hist);
        }
    }

    /// Serializable snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Bucket bounds for fractions in `[0, 1]` (skip rates, hit rates):
/// twenty 5%-wide buckets.
pub fn fraction_bounds() -> Vec<f64> {
    (1..=20).map(|i| i as f64 / 20.0).collect()
}

/// Exponential wall-time bounds in nanoseconds, 100 ns to ~100 ms.
pub fn duration_ns_bounds() -> Vec<f64> {
    let mut out = Vec::new();
    let mut b = 100.0f64;
    while b <= 1.0e8 {
        out.push(b);
        b *= 2.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_types::json::to_compact;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        // Same name -> same underlying metric.
        assert_eq!(reg.counter("a.b").get(), 5);
        let g = reg.gauge("a.g");
        g.set(2.5);
        assert_eq!(reg.gauge("a.g").get(), 2.5);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        // bounds are upper-inclusive-exclusive via partition_point(< v):
        // 0.5,1.0 -> bucket 0; 1.5 -> bucket 1; 3.0 -> bucket 2; 100 -> overflow.
        assert_eq!(s.buckets, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 100.0);
        assert!((s.sum - 106.0).abs() < 1e-9);
        assert!((s.mean - 21.2).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new(&[1.0]).snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter("x").add(7);
        reg.gauge("y").set(1.25);
        reg.histogram("z", &fraction_bounds()).observe(0.3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), 7);
        assert_eq!(snap.counter("missing"), 0);
        let text = to_compact(&snap.to_json());
        let back = Snapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("x"), 7);
    }

    #[test]
    fn snapshot_prints_in_serde_layout() {
        let reg = Registry::new();
        reg.counter("dram.refresh.windows").add(5);
        reg.gauge("g").set(0.5);
        reg.histogram("span.w", &[1.0, 2.0]).observe(1.5);
        assert_eq!(
            to_compact(&reg.snapshot().to_json()),
            "{\"counters\":{\"dram.refresh.windows\":5},\"gauges\":{\"g\":0.5},\
             \"histograms\":{\"span.w\":{\"bounds\":[1.0,2.0],\"buckets\":[0,1,0],\
             \"count\":1,\"sum\":1.5,\"mean\":1.5,\"min\":1.5,\"max\":1.5}}}"
        );
        let empty = Snapshot::default().to_json().to_pretty();
        assert_eq!(
            empty,
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
    }

    #[test]
    fn snapshot_from_json_names_the_bad_member() {
        let parse = |text: &str| Snapshot::from_json(&Json::parse(text).unwrap());
        assert!(parse("{\"counters\":{},\"gauges\":{},\"histograms\":{}}").is_ok());
        let err = parse("{\"counters\":{\"x\":-1},\"gauges\":{},\"histograms\":{}}");
        assert_eq!(err.unwrap_err(), "snapshot: counters.x malformed");
        let err = parse("{\"counters\":{},\"histograms\":{}}");
        assert_eq!(
            err.unwrap_err(),
            "snapshot: `gauges` missing or not an object"
        );
        assert!(parse("{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{}}}").is_err());
    }

    #[test]
    fn percentile_of_empty_histogram_is_none() {
        let s = Histogram::new(&fraction_bounds()).snapshot();
        assert_eq!(s.percentile(0.5), None);
    }

    #[test]
    fn percentile_single_bucket_reports_exact_value() {
        let h = Histogram::new(&fraction_bounds());
        h.observe(0.42);
        let s = h.snapshot();
        // One observation: every quantile is that observation (the
        // interpolated estimate clamps to [min, max] = [0.42, 0.42]).
        assert_eq!(s.percentile(0.0), Some(0.42));
        assert_eq!(s.percentile(0.5), Some(0.42));
        assert_eq!(s.percentile(1.0), Some(0.42));
    }

    #[test]
    fn percentile_overflow_bucket_reports_max() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(50.0);
        h.observe(80.0);
        let s = h.snapshot();
        // p99 lands in the overflow bucket, which has no upper bound.
        assert_eq!(s.percentile(0.99), Some(80.0));
        assert_eq!(s.percentile(1.0), Some(80.0));
    }

    #[test]
    fn percentile_interpolates_and_orders() {
        let h = Histogram::new(&fraction_bounds());
        for i in 0..100 {
            h.observe(i as f64 / 100.0);
        }
        let s = h.snapshot();
        let p50 = s.percentile(0.5).unwrap();
        let p90 = s.percentile(0.9).unwrap();
        let p99 = s.percentile(0.99).unwrap();
        assert!((p50 - 0.5).abs() < 0.06, "p50 = {p50}");
        assert!((p90 - 0.9).abs() < 0.06, "p90 = {p90}");
        assert!(p50 <= p90 && p90 <= p99);
        // Out-of-range q is clamped, not an error.
        assert_eq!(s.percentile(7.0), s.percentile(1.0));
        assert_eq!(s.percentile(-3.0), s.percentile(0.0));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = std::sync::Arc::new(Registry::new());
        let c = reg.counter("hot");
        let h = reg.histogram("hist", &[10.0, 100.0]);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (c, h) = (c.clone(), h.clone());
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i as f64);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn registry_absorb_adds_counters_and_merges_histograms() {
        let parent = Registry::new();
        parent.counter("reads").add(10);
        parent.histogram("lat", &[1.0, 2.0]).observe(0.5);

        let job = Registry::new();
        job.counter("reads").add(5);
        job.counter("writes").add(3); // new to the parent
        job.counter("idle"); // registered, never incremented
        job.gauge("table_bytes").set(8192.0);
        let jh = job.histogram("lat", &[1.0, 2.0]);
        jh.observe(1.5);
        jh.observe(9.0);

        parent.absorb(&job.snapshot());
        let snap = parent.snapshot();
        assert_eq!(snap.counter("reads"), 15);
        assert_eq!(snap.counter("writes"), 3);
        assert_eq!(
            snap.counters.get("idle"),
            Some(&0),
            "zero counters register"
        );
        assert_eq!(snap.gauges.get("table_bytes"), Some(&8192.0));
        let lat = snap.histograms.get("lat").unwrap();
        assert_eq!(lat.count, 3);
        assert_eq!(lat.buckets, vec![1, 1, 1]);
        assert_eq!(lat.min, 0.5);
        assert_eq!(lat.max, 9.0);
        assert!((lat.sum - 11.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_is_commutative_for_counters_and_histograms() {
        let jobs: Vec<Registry> = (0..3)
            .map(|i| {
                let r = Registry::new();
                r.counter("c").add(i + 1);
                r.histogram("h", &[10.0]).observe(i as f64);
                r
            })
            .collect();
        let forward = Registry::new();
        for j in &jobs {
            forward.absorb(&j.snapshot());
        }
        let backward = Registry::new();
        for j in jobs.iter().rev() {
            backward.absorb(&j.snapshot());
        }
        assert_eq!(forward.snapshot(), backward.snapshot());
    }

    #[test]
    fn histogram_absorb_with_mismatched_bounds_rebuckets() {
        let parent = Histogram::new(&[1.0, 10.0]);
        let job = Histogram::new(&[5.0]);
        job.observe(3.0); // finite bucket, upper bound 5.0 -> parent bucket 1
        job.observe(50.0); // overflow bucket, re-bucketed at max -> overflow
        parent.absorb(&job.snapshot());
        let s = parent.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets, vec![0, 1, 1]);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 50.0);
    }

    #[test]
    fn absorbing_an_empty_histogram_is_a_no_op() {
        let parent = Histogram::new(&[1.0]);
        parent.observe(0.5);
        let before = parent.snapshot();
        parent.absorb(&Histogram::new(&[1.0]).snapshot());
        assert_eq!(parent.snapshot(), before);
    }
}
