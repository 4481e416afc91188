//! The instrument registry: counters, gauges and histograms sampled on
//! the **virtual clock** into ring-buffer time series.
//!
//! A [`Registry`] is owned by one run (a serve session, a loadgen run):
//! it is deliberately *not* process-global, so parallel runs in one
//! process cannot perturb each other and a scrape is a pure function of
//! the run's virtual event stream — two runs with the same seed produce
//! byte-identical exposition text and `hpdr-metrics/v1` JSON.
//!
//! Scrapes happen at fixed virtual intervals: `tick(now)` samples every
//! boundary crossed since the last call, so a scheduler only needs to
//! call it whenever its clock advances. Each scrape copies every
//! non-volatile counter/gauge into its bounded ring series and advances
//! the SLO tracker (burn rates land in series like any other gauge).
//!
//! **Volatile** instruments (worker-pool wakeups, scratch-arena
//! counters) carry values that depend on host thread scheduling; they
//! render in live views (`hpdr top`) but are excluded from series,
//! exposition and JSON so determinism guarantees survive.

use crate::histogram::StreamingHistogram;
use crate::slo::{SloConfig, SloTracker};
use hpdr_sim::json::{esc, parse_json};
use hpdr_sim::Ns;
use std::collections::{BTreeMap, VecDeque};

/// Schema identifier embedded in every metrics JSON document.
pub const METRICS_SCHEMA: &str = "hpdr-metrics/v1";

/// Registry configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsConfig {
    /// Virtual time between scrapes.
    pub scrape_interval: Ns,
    /// Ring capacity per series (oldest samples drop first).
    pub series_capacity: usize,
    /// Per-tenant SLO objective (burn-rate tracking off when `None`).
    pub slo: Option<SloConfig>,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            scrape_interval: Ns::from_millis(25),
            series_capacity: 240,
            slo: None,
        }
    }
}

#[derive(Debug, Clone)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Hist(StreamingHistogram),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Hist(_) => "summary",
        }
    }

    fn scalar(&self) -> Option<f64> {
        match self {
            Value::Counter(v) => Some(*v as f64),
            Value::Gauge(v) => Some(*v),
            Value::Hist(_) => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Instrument {
    name: String,
    value: Value,
    volatile: bool,
    /// `(sample, trace)` of the worst histogram sample recorded with an
    /// exemplar: the flight-recorder trace id a latency spike links to.
    exemplar: Option<(u64, u64)>,
    /// Ring series of scrape instants and values, created at the first
    /// scrape that samples this (non-volatile, scalar) instrument.
    series: Option<VecDeque<(Ns, f64)>>,
}

/// A stable handle to one instrument. Updating through a handle is a
/// single array access — no name formatting, no map lookup — which is
/// what keeps metering off the serving hot path: callers format the
/// `family{label="..."}` name once, keep the handle, and pay O(1) per
/// event after that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentId(usize);

/// The per-run instrument registry.
///
/// Instruments live in a slab (`Vec`) addressed by [`InstrumentId`],
/// each with its own ring series; `index` maps names to slots and fixes
/// the deterministic name-sorted order every exposition and JSON
/// rendering walks in.
#[derive(Debug)]
pub struct Registry {
    cfg: MetricsConfig,
    instruments: Vec<Instrument>,
    index: BTreeMap<String, usize>,
    scrapes: u64,
    last_scrape: Ns,
    slo: Option<SloTracker>,
}

impl Registry {
    pub fn new(cfg: MetricsConfig) -> Registry {
        Registry {
            slo: cfg.slo.map(SloTracker::new),
            cfg,
            instruments: Vec::new(),
            index: BTreeMap::new(),
            scrapes: 0,
            last_scrape: Ns::ZERO,
        }
    }

    pub fn config(&self) -> MetricsConfig {
        self.cfg
    }

    /// Name-ordered iteration over the instruments — the single source
    /// of the deterministic output order.
    fn ordered(&self) -> impl Iterator<Item = (&str, &Instrument)> {
        self.index
            .iter()
            .map(|(name, &i)| (name.as_str(), &self.instruments[i]))
    }

    fn slot(&mut self, name: &str, volatile: bool, default: Value) -> usize {
        let i = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.instruments.len();
                self.instruments.push(Instrument {
                    name: name.to_string(),
                    value: default,
                    volatile,
                    exemplar: None,
                    series: None,
                });
                self.index.insert(name.to_string(), i);
                i
            }
        };
        self.instruments[i].volatile |= volatile;
        i
    }

    fn entry(&mut self, name: &str, volatile: bool, default: Value) -> &mut Instrument {
        let i = self.slot(name, volatile, default);
        &mut self.instruments[i]
    }

    /// Handle to a (non-volatile) counter, created at 0 on first use.
    pub fn counter_handle(&mut self, name: &str) -> InstrumentId {
        InstrumentId(self.slot(name, false, Value::Counter(0)))
    }

    /// Handle to a (non-volatile) gauge, created at 0.0 on first use.
    pub fn gauge_handle(&mut self, name: &str) -> InstrumentId {
        InstrumentId(self.slot(name, false, Value::Gauge(0.0)))
    }

    /// Handle to a (non-volatile) histogram, created empty on first use.
    pub fn hist_handle(&mut self, name: &str) -> InstrumentId {
        InstrumentId(self.slot(name, false, Value::Hist(StreamingHistogram::new())))
    }

    /// O(1) counter increment through a handle.
    pub fn counter_add_id(&mut self, id: InstrumentId, delta: u64) {
        let inst = &mut self.instruments[id.0];
        if let Value::Counter(v) = &mut inst.value {
            *v += delta;
        } else {
            debug_assert!(false, "instrument '{}' is not a counter", inst.name);
        }
    }

    /// O(1) gauge store through a handle.
    pub fn gauge_set_id(&mut self, id: InstrumentId, value: f64) {
        let inst = &mut self.instruments[id.0];
        if let Value::Gauge(v) = &mut inst.value {
            *v = value;
        } else {
            debug_assert!(false, "instrument '{}' is not a gauge", inst.name);
        }
    }

    /// O(1) histogram sample through a handle.
    pub fn hist_record_id(&mut self, id: InstrumentId, sample: u64) {
        let inst = &mut self.instruments[id.0];
        if let Value::Hist(h) = &mut inst.value {
            h.record(sample);
        } else {
            debug_assert!(false, "instrument '{}' is not a histogram", inst.name);
        }
    }

    /// O(1) histogram sample with an exemplar: when `sample` is the
    /// worst the instrument has seen, `trace` becomes its exemplar, so
    /// the histogram's tail always names a concrete flight trace id.
    pub fn hist_record_exemplar_id(&mut self, id: InstrumentId, sample: u64, trace: u64) {
        let inst = &mut self.instruments[id.0];
        if let Value::Hist(h) = &mut inst.value {
            h.record(sample);
            let worst_so_far = match inst.exemplar {
                Some((v, _)) => v,
                None => 0,
            };
            if sample >= worst_so_far {
                inst.exemplar = Some((sample, trace));
            }
        } else {
            debug_assert!(false, "instrument '{}' is not a histogram", inst.name);
        }
    }

    /// The `(sample, trace)` exemplar of a histogram instrument.
    pub fn exemplar(&self, name: &str) -> Option<(u64, u64)> {
        self.lookup(name)?.exemplar
    }

    /// Add to a monotonic counter (created at 0 on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let inst = self.entry(name, false, Value::Counter(0));
        if let Value::Counter(v) = &mut inst.value {
            *v += delta;
        } else {
            debug_assert!(false, "instrument '{name}' is not a counter");
        }
    }

    /// Set a gauge to its current value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        let inst = self.entry(name, false, Value::Gauge(0.0));
        if let Value::Gauge(v) = &mut inst.value {
            *v = value;
        } else {
            debug_assert!(false, "instrument '{name}' is not a gauge");
        }
    }

    /// Set a **volatile** gauge: visible in live views only, excluded
    /// from series, exposition and JSON (its value depends on host
    /// thread scheduling, not on the virtual event stream).
    pub fn gauge_set_volatile(&mut self, name: &str, value: f64) {
        let inst = self.entry(name, true, Value::Gauge(0.0));
        if let Value::Gauge(v) = &mut inst.value {
            *v = value;
        }
    }

    /// Record one sample into a histogram (created empty on first use).
    pub fn hist_record(&mut self, name: &str, sample: u64) {
        let inst = self.entry(name, false, Value::Hist(StreamingHistogram::new()));
        if let Value::Hist(h) = &mut inst.value {
            h.record(sample);
        } else {
            debug_assert!(false, "instrument '{name}' is not a histogram");
        }
    }

    fn lookup(&self, name: &str) -> Option<&Instrument> {
        Some(&self.instruments[*self.index.get(name)?])
    }

    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.lookup(name)?.value {
            Value::Counter(v) => Some(v),
            _ => None,
        }
    }

    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.lookup(name)?.value {
            Value::Gauge(v) => Some(v),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&StreamingHistogram> {
        match &self.lookup(name)?.value {
            Value::Hist(h) => Some(h),
            _ => None,
        }
    }

    /// Ring series of a scalar instrument (scrape instants + values).
    pub fn series(&self, name: &str) -> Option<&VecDeque<(Ns, f64)>> {
        self.lookup(name)?.series.as_ref()
    }

    /// Names of all instruments that have a series.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.ordered()
            .filter(|(_, inst)| inst.series.is_some())
            .map(|(name, _)| name)
    }

    pub fn scrape_count(&self) -> u64 {
        self.scrapes
    }

    pub fn last_scrape(&self) -> Ns {
        self.last_scrape
    }

    /// Record a terminal job against the SLO objective (no-op when SLO
    /// tracking is off). `good` = completed within the latency target.
    pub fn slo_record(&mut self, tenant: u32, finished: Ns, good: bool) {
        if let Some(slo) = self.slo.as_mut() {
            slo.record(tenant, finished, good);
        }
    }

    pub fn slo(&self) -> Option<&SloTracker> {
        self.slo.as_ref()
    }

    /// True iff advancing the virtual clock to `now` crosses at least
    /// one scrape boundary, i.e. the next [`Registry::tick`] would
    /// actually sample. Sampled gauges are only observed at scrape
    /// instants, so callers on a hot event loop can skip refreshing
    /// them (and the `tick` call itself) whenever this is false —
    /// that's one comparison instead of a handful of map lookups per
    /// iteration.
    pub fn boundary_due(&self, now: Ns) -> bool {
        let interval = self.cfg.scrape_interval.max(Ns(1));
        Ns(self.last_scrape.0 + interval.0) <= now
    }

    /// Sample every scrape boundary crossed up to `now`. SLO alerts
    /// fired by these scrapes (rising-edge, at most one per tenant per
    /// excursion) stay in the tracker and `slo_alerts_total`.
    pub fn tick(&mut self, now: Ns) {
        let interval = self.cfg.scrape_interval.max(Ns(1));
        let mut next = Ns(self.last_scrape.0 + interval.0);
        while next <= now {
            self.scrape_at(next);
            next = Ns(self.last_scrape.0 + interval.0);
        }
    }

    /// Force one final scrape at `now` (run end), off-boundary if
    /// needed, so the series always cover the full makespan.
    pub fn flush(&mut self, now: Ns) {
        self.tick(now);
        if now > self.last_scrape || self.scrapes == 0 {
            self.scrape_at(now.max(self.last_scrape));
        }
    }

    fn scrape_at(&mut self, t: Ns) {
        if let Some(slo) = self.slo.as_mut() {
            let (burns, fired) = slo.scrape(t);
            for (tenant, burn) in burns {
                self.gauge_set(&format!("slo_burn_rate{{tenant=\"{tenant}\"}}"), burn);
            }
            for a in &fired {
                self.counter_add(&format!("slo_alerts_total{{tenant=\"{}\"}}", a.tenant), 1);
            }
        }
        let cap = self.cfg.series_capacity.max(1);
        for inst in &mut self.instruments {
            if inst.volatile {
                continue;
            }
            let Some(v) = inst.value.scalar() else {
                continue;
            };
            let ring = inst.series.get_or_insert_with(VecDeque::new);
            if ring.len() == cap {
                ring.pop_front();
            }
            ring.push_back((t, v));
        }
        self.scrapes += 1;
        self.last_scrape = t;
    }

    /// Prometheus-style text exposition over the non-volatile
    /// instruments, timestamped with the last virtual scrape instant.
    /// Deterministic: ordered map iteration, fixed float precision.
    pub fn exposition(&self) -> String {
        let ts = self.last_scrape.0;
        let mut out = String::with_capacity(1024);
        out.push_str("# hpdr-metrics exposition; timestamps are virtual nanoseconds\n");
        let mut last_family = String::new();
        for (name, inst) in self.ordered() {
            if inst.volatile {
                continue;
            }
            let (family, labels) = split_labels(name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {}\n", inst.value.kind()));
                last_family = family.to_string();
            }
            match &inst.value {
                Value::Counter(v) => out.push_str(&format!("{name} {v} {ts}\n")),
                Value::Gauge(v) => out.push_str(&format!("{name} {v:.6} {ts}\n")),
                Value::Hist(h) => {
                    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{} {} {ts}\n",
                            with_label(family, labels, &format!("quantile=\"{label}\"")),
                            h.quantile(q)
                        ));
                    }
                    let suffixed = |suffix: &str| {
                        if labels.is_empty() {
                            format!("{family}{suffix}")
                        } else {
                            format!("{family}{suffix}{{{labels}}}")
                        }
                    };
                    out.push_str(&format!("{} {} {ts}\n", suffixed("_count"), h.count()));
                    out.push_str(&format!("{} {} {ts}\n", suffixed("_sum"), h.sum()));
                    out.push_str(&format!("{} {} {ts}\n", suffixed("_max"), h.max()));
                    if let Some((v, trace)) = inst.exemplar {
                        out.push_str(&format!(
                            "{} {v} {ts}\n",
                            with_label(
                                &format!("{family}_exemplar"),
                                labels,
                                &format!("trace=\"{trace}\"")
                            )
                        ));
                    }
                }
            }
        }
        out
    }

    /// Serialize to `hpdr-metrics/v1` JSON (non-volatile instruments +
    /// ring series + SLO attainment/alerts). Byte-deterministic for a
    /// given virtual event stream.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
        s.push_str(&format!(
            "  \"scrape_interval_ns\": {},\n",
            self.cfg.scrape_interval.0
        ));
        s.push_str(&format!("  \"scrapes\": {},\n", self.scrapes));
        s.push_str(&format!("  \"last_scrape_ns\": {},\n", self.last_scrape.0));

        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for (name, inst) in self.ordered() {
            if inst.volatile {
                continue;
            }
            let key = format!("\"{}\"", esc(name));
            match &inst.value {
                Value::Counter(v) => counters.push(format!("{key}: {v}")),
                Value::Gauge(v) => gauges.push(format!("{key}: {v:.6}")),
                Value::Hist(h) => {
                    let ex = inst.exemplar.map_or(String::new(), |(v, t)| {
                        format!(",\"exemplar\":{{\"value\":{v},\"trace\":{t}}}")
                    });
                    hists.push(format!(
                        "{key}: {{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\
                         \"p99\":{},\"max\":{}{ex}}}",
                        h.count(),
                        h.sum(),
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.95),
                        h.quantile(0.99),
                        h.max()
                    ))
                }
            }
        }
        let obj = |items: Vec<String>| {
            if items.is_empty() {
                "{}".to_string()
            } else {
                format!("{{\n    {}\n  }}", items.join(",\n    "))
            }
        };
        s.push_str(&format!("  \"counters\": {},\n", obj(counters)));
        s.push_str(&format!("  \"gauges\": {},\n", obj(gauges)));
        s.push_str(&format!("  \"histograms\": {},\n", obj(hists)));

        let series: Vec<String> = self
            .ordered()
            .filter_map(|(name, inst)| Some((name, inst.series.as_ref()?)))
            .map(|(name, ring)| {
                let points: Vec<String> = ring
                    .iter()
                    .map(|(t, v)| format!("[{},{v:.6}]", t.0))
                    .collect();
                format!("\"{}\": [{}]", esc(name), points.join(","))
            })
            .collect();
        s.push_str(&format!("  \"series\": {}", obj(series)));

        if let Some(slo) = &self.slo {
            let cfg = slo.config();
            s.push_str(",\n  \"slo\": {\n");
            s.push_str(&format!(
                "    \"latency_target_ns\": {},\n    \"goal\": {:.6},\n    \
                 \"window_ns\": {},\n    \"burn_threshold\": {:.6},\n",
                cfg.latency_target.0, cfg.goal, cfg.window.0, cfg.burn_threshold
            ));
            let rows: Vec<String> = slo
                .attainment()
                .iter()
                .map(|r| {
                    format!(
                        "{{\"tenant\":{},\"good\":{},\"total\":{},\"attainment\":{:.6},\
                         \"alerts\":{}}}",
                        r.tenant, r.good, r.total, r.attainment, r.alerts
                    )
                })
                .collect();
            s.push_str(&format!("    \"attainment\": [{}],\n", rows.join(",")));
            let alerts: Vec<String> = slo
                .alerts()
                .iter()
                .map(|a| {
                    format!(
                        "{{\"tenant\":{},\"at_ns\":{},\"burn\":{:.6}}}",
                        a.tenant, a.at.0, a.burn
                    )
                })
                .collect();
            s.push_str(&format!("    \"alerts\": [{}]\n  }}", alerts.join(",")));
        }
        s.push_str("\n}\n");
        s
    }

    /// Live table of the latest scrape for `hpdr top`: every instrument
    /// (volatile ones marked `~`), plus the tail of each ring series.
    pub fn render_table(&self, tail: usize) -> Vec<String> {
        let mut out = vec![format!(
            "metrics: {} scrapes every {:.3} ms virtual, last at {:.3} ms ({} instruments)",
            self.scrapes,
            self.cfg.scrape_interval.0 as f64 / 1e6,
            self.last_scrape.0 as f64 / 1e6,
            self.instruments.len()
        )];
        out.push(format!(
            "  {:<52} {:<8} {:>14}  {}",
            "instrument", "type", "value", "series tail"
        ));
        for (name, inst) in self.ordered() {
            let shown = if inst.volatile {
                format!("~{name}")
            } else {
                name.to_string()
            };
            let value = match &inst.value {
                Value::Counter(v) => format!("{v}"),
                Value::Gauge(v) => format!("{v:.4}"),
                Value::Hist(h) => format!(
                    "n={} p50={} p99={}",
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.99)
                ),
            };
            let tail_str = match &inst.series {
                Some(ring) if !ring.is_empty() => {
                    let skip = ring.len().saturating_sub(tail);
                    ring.iter()
                        .skip(skip)
                        .map(|(_, v)| format!("{v:.1}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
                _ => {
                    if inst.volatile {
                        "(volatile)".to_string()
                    } else {
                        String::new()
                    }
                }
            };
            out.push(format!(
                "  {shown:<52} {:<8} {value:>14}  {tail_str}",
                inst.value.kind()
            ));
        }
        out
    }
}

/// Split `family{labels}` into `(family, labels)` (labels without braces).
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((family, rest)) => (family, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

fn with_label(family: &str, labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{family}{{{extra}}}")
    } else {
        format!("{family}{{{labels},{extra}}}")
    }
}

/// Validate an `hpdr-metrics/v1` JSON document: schema id, required
/// sections, and well-formed series (pairs with non-decreasing virtual
/// timestamps, each no longer than the scrape count).
pub fn validate_metrics_json(json: &str) -> Result<(), String> {
    let doc = parse_json(json)?;
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some(s) if s == METRICS_SCHEMA => {}
        Some(s) => return Err(format!("wrong schema id '{s}' (want {METRICS_SCHEMA})")),
        None => return Err(format!("missing schema id {METRICS_SCHEMA}")),
    }
    let scrapes = doc
        .get("scrapes")
        .and_then(|v| v.as_u64())
        .ok_or("missing 'scrapes'")?;
    for key in ["counters", "gauges", "histograms", "series"] {
        if doc.get(key).and_then(|v| v.as_obj()).is_none() {
            return Err(format!("missing object '{key}'"));
        }
    }
    let series = doc.get("series").and_then(|v| v.as_obj()).expect("checked");
    for (name, ring) in series {
        let points = ring
            .as_arr()
            .ok_or_else(|| format!("series '{name}' is not an array"))?;
        if points.len() as u64 > scrapes {
            return Err(format!(
                "series '{name}' has {} points but only {scrapes} scrapes happened",
                points.len()
            ));
        }
        let mut prev: Option<u64> = None;
        for p in points {
            let pair = p
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("series '{name}' point is not a [t, v] pair"))?;
            let t = pair[0]
                .as_u64()
                .ok_or_else(|| format!("series '{name}' has a non-integer timestamp"))?;
            if prev.is_some_and(|p| t < p) {
                return Err(format!("series '{name}' timestamps go backwards at {t}"));
            }
            prev = Some(t);
        }
    }
    if let Some(slo) = doc.get("slo") {
        for key in ["latency_target_ns", "goal", "attainment", "alerts"] {
            if slo.get(key).is_none() {
                return Err(format!("slo section missing '{key}'"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        Registry::new(MetricsConfig {
            scrape_interval: Ns(100),
            series_capacity: 4,
            slo: None,
        })
    }

    #[test]
    fn tick_scrapes_every_crossed_boundary() {
        let mut r = reg();
        r.counter_add("jobs_total", 1);
        r.tick(Ns(250)); // boundaries at 100, 200
        assert_eq!(r.scrape_count(), 2);
        r.counter_add("jobs_total", 2);
        r.tick(Ns(260)); // no new boundary
        assert_eq!(r.scrape_count(), 2);
        r.tick(Ns(400));
        let s: Vec<(u64, f64)> = r
            .series("jobs_total")
            .unwrap()
            .iter()
            .map(|&(t, v)| (t.0, v))
            .collect();
        assert_eq!(s, vec![(100, 1.0), (200, 1.0), (300, 3.0), (400, 3.0)]);
        assert_eq!(r.last_scrape(), Ns(400));
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut r = reg();
        r.gauge_set("depth", 1.0);
        r.tick(Ns(600)); // 6 boundaries, capacity 4
        let s = r.series("depth").unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.front().unwrap().0, Ns(300));
    }

    #[test]
    fn flush_samples_off_boundary_end() {
        let mut r = reg();
        r.gauge_set("g", 7.0);
        r.flush(Ns(150));
        let s = r.series("g").unwrap();
        assert_eq!(
            s.iter().map(|&(t, _)| t.0).collect::<Vec<_>>(),
            vec![100, 150]
        );
        // Flushing twice at the same instant adds nothing.
        let mut r2 = reg();
        r2.gauge_set("g", 1.0);
        r2.flush(Ns(100));
        let n = r2.scrape_count();
        r2.flush(Ns(100));
        assert_eq!(r2.scrape_count(), n);
    }

    #[test]
    fn volatile_instruments_stay_out_of_serialized_views() {
        let mut r = reg();
        r.gauge_set("visible", 1.0);
        r.gauge_set_volatile("pool_wakeups", 123.0);
        r.flush(Ns(100));
        assert!(r.series("pool_wakeups").is_none());
        assert!(!r.exposition().contains("pool_wakeups"));
        assert!(!r.to_json().contains("pool_wakeups"));
        // But the live table shows it, marked volatile.
        let table = r.render_table(4).join("\n");
        assert!(table.contains("~pool_wakeups"), "{table}");
        assert!(table.contains("visible"));
    }

    #[test]
    fn exposition_format_is_prometheus_like() {
        let mut r = reg();
        r.counter_add("serve_admitted_total{tenant=\"0\"}", 5);
        r.counter_add("serve_admitted_total{tenant=\"1\"}", 2);
        r.gauge_set("queue_jobs", 3.0);
        r.hist_record("batch_jobs{device=\"0\"}", 4);
        r.flush(Ns(100));
        let text = r.exposition();
        assert!(text.contains("# TYPE serve_admitted_total counter"));
        // One TYPE line per family, not per labelled sample.
        assert_eq!(text.matches("# TYPE serve_admitted_total").count(), 1);
        assert!(text.contains("serve_admitted_total{tenant=\"0\"} 5 100"));
        assert!(text.contains("queue_jobs 3.000000 100"));
        assert!(text.contains("batch_jobs{device=\"0\",quantile=\"0.5\"} 4 100"));
        assert!(text.contains("batch_jobs_count{device=\"0\"} 1 100"));
    }

    #[test]
    fn json_roundtrips_through_validator() {
        let mut r = Registry::new(MetricsConfig {
            scrape_interval: Ns(100),
            series_capacity: 8,
            slo: Some(SloConfig::default()),
        });
        r.counter_add("a_total", 1);
        r.gauge_set("g", 0.5);
        r.hist_record("h", 10);
        r.slo_record(0, Ns(50), true);
        r.slo_record(0, Ns(60), false);
        r.flush(Ns(250));
        let json = r.to_json();
        validate_metrics_json(&json).unwrap();
        assert!(json.contains("\"slo\""));
        assert!(json.contains("\"attainment\""));
        // Burn-rate gauges land in the ring series.
        assert!(r.series("slo_burn_rate{tenant=\"0\"}").is_some());
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_metrics_json("{}").is_err());
        let mut r = reg();
        r.gauge_set("g", 1.0);
        r.flush(Ns(100));
        let good = r.to_json();
        assert!(validate_metrics_json(&good.replace("/v1", "/v0")).is_err());
        // More series points than scrapes is inconsistent.
        let bad = good.replace("\"scrapes\": 1", "\"scrapes\": 0");
        assert!(validate_metrics_json(&bad).is_err());
    }

    #[test]
    fn exemplar_tracks_worst_sample_and_serializes() {
        let mut r = reg();
        let h = r.hist_handle("lat_ns");
        r.hist_record_exemplar_id(h, 100, 1);
        r.hist_record_exemplar_id(h, 900, 2);
        r.hist_record_exemplar_id(h, 300, 3);
        assert_eq!(r.exemplar("lat_ns"), Some((900, 2)));
        assert_eq!(r.histogram("lat_ns").unwrap().count(), 3);
        r.flush(Ns(100));
        assert!(r
            .exposition()
            .contains("lat_ns_exemplar{trace=\"2\"} 900 100"));
        let json = r.to_json();
        assert!(json.contains("\"exemplar\":{\"value\":900,\"trace\":2}"));
        validate_metrics_json(&json).unwrap();
        // Plain recording leaves no exemplar behind.
        r.hist_record("plain", 5);
        assert_eq!(r.exemplar("plain"), None);
    }
}
