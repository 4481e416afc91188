//! Job scripts: a line-oriented format for scripted serve runs.
//!
//! One job per line:
//!
//! ```text
//! <arrival_us> <tenant> <compress|decompress|retrieve> <codec[:param]> <side> \
//!     [tol=F] [prio=N] [deadline_us=N] [cancel_us=N]
//! ```
//!
//! `#` starts a comment; blank lines are skipped. `side` is the cube
//! edge of a synthetic Nyx-like density field (`side³` f32 values), so
//! the same script always produces the same payload bytes. Decompress
//! jobs are materialized at parse time: the field is compressed once
//! per (codec, side) and the resulting container shared across all
//! jobs that decompress it. Retrieve jobs refactor the field once per
//! (codec, side) into a progressive component set shared across every
//! tolerance; `tol=F` is the **relative** L∞ tolerance (× data range,
//! default 1e-2), and fetch plans are cached per (codec, side,
//! tolerance) so repeated fidelities across tenants are plan-cache
//! hits.

use crate::error::ServeError;
use crate::job::{JobPayload, JobRequest, ServeCodec, TenantId};
use hpdr_core::{ArrayMeta, DType, DeviceAdapter};
use hpdr_pipeline::Container;
use hpdr_progressive::{
    plan_fetch, refactor_progressive, FetchPlan, ProgressiveConfig, Refactoring,
};
use hpdr_sim::Ns;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic dataset seed used by scripted payloads.
const DATA_SEED: u64 = 7;

/// Default relative tolerance for `retrieve` jobs without `tol=`.
pub const DEFAULT_RETRIEVE_TOL: f64 = 1e-2;

/// Default byte budget for the refactoring (component-set) cache.
pub const DEFAULT_RETRIEVAL_BUDGET_BYTES: u64 = 256 << 20;

/// Default byte budget for the fetch-plan cache (costed by each plan's
/// planned fetch bytes — the memory a consumer holding the plan's
/// components would pin).
pub const DEFAULT_PLAN_BUDGET_BYTES: u64 = 64 << 20;

/// One entry of a budget-bounded cache: the shared value, its byte
/// cost, and the recency stamp LRU eviction orders by.
struct LruEntry<V> {
    value: Arc<V>,
    bytes: u64,
    stamp: u64,
}

/// Budget-bounded LRU over an ordered map. Inserting past the budget
/// evicts least-recently-stamped entries until the total cost fits
/// again; the entry being inserted always survives, so one oversized
/// item still caches (and simply owns the whole budget).
struct LruMap<K: Ord + Clone, V> {
    map: BTreeMap<K, LruEntry<V>>,
    bytes: u64,
    budget: u64,
    evictions: u64,
}

impl<K: Ord + Clone, V> LruMap<K, V> {
    fn new(budget: u64) -> LruMap<K, V> {
        LruMap {
            map: BTreeMap::new(),
            bytes: 0,
            budget,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &K, stamp: u64) -> Option<Arc<V>> {
        let e = self.map.get_mut(key)?;
        e.stamp = stamp;
        Some(Arc::clone(&e.value))
    }

    /// Residency probe: no recency stamp moves, so placement decisions
    /// don't perturb eviction order.
    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn insert(&mut self, key: K, value: Arc<V>, bytes: u64, stamp: u64) {
        if let Some(old) = self.map.insert(
            key.clone(),
            LruEntry {
                value,
                bytes,
                stamp,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        while self.bytes > self.budget && self.map.len() > 1 {
            let lru = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let Some(k) = lru else { break };
            if let Some(e) = self.map.remove(&k) {
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
    }
}

/// Occupancy and eviction counters of a [`PayloadCache`], surfaced in
/// the serve report so long runs show whether the byte budgets held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Bytes currently held by the refactoring cache.
    pub retrieval_bytes: u64,
    pub retrieval_budget_bytes: u64,
    pub retrieval_evictions: u64,
    /// Bytes currently costed to the fetch-plan cache.
    pub plan_bytes: u64,
    pub plan_budget_bytes: u64,
    pub plan_evictions: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

/// Payload factory with per-(side) input and per-(codec, side)
/// container caches so scripts and generators share materialization.
/// Retrieve jobs add a per-(codec, side) refactoring cache (the shared
/// coarse components) and a per-(codec, side, tolerance) plan cache
/// with hit counters. Both retrieve-side caches are byte-budget LRUs:
/// long multi-field runs stay bounded instead of pinning every
/// component set ever refactored.
pub struct PayloadCache {
    inputs: BTreeMap<usize, (Arc<Vec<u8>>, ArrayMeta)>,
    containers: BTreeMap<(String, usize), Arc<Container>>,
    retrievals: LruMap<(String, usize), Refactoring>,
    plans: LruMap<(String, usize, u64), FetchPlan>,
    /// Monotone access counter stamping LRU recency.
    tick: u64,
    /// Fetch plans served from cache (same codec, side and tolerance).
    pub plan_hits: u64,
    /// Fetch plans computed fresh.
    pub plan_misses: u64,
    /// Per-tenant (plan_hits, plan_misses) split, filled by
    /// [`retrieval_for`](PayloadCache::retrieval_for).
    tenant_plan_stats: BTreeMap<u32, (u64, u64)>,
}

impl PayloadCache {
    pub fn new() -> PayloadCache {
        PayloadCache::with_budgets(DEFAULT_RETRIEVAL_BUDGET_BYTES, DEFAULT_PLAN_BUDGET_BYTES)
    }

    /// A cache with explicit byte budgets for the refactoring and plan
    /// LRUs (tests and memory-constrained embedders).
    pub fn with_budgets(retrieval_budget: u64, plan_budget: u64) -> PayloadCache {
        PayloadCache {
            inputs: BTreeMap::new(),
            containers: BTreeMap::new(),
            retrievals: LruMap::new(retrieval_budget),
            plans: LruMap::new(plan_budget),
            tick: 0,
            plan_hits: 0,
            plan_misses: 0,
            tenant_plan_stats: BTreeMap::new(),
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Current occupancy/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            retrieval_bytes: self.retrievals.bytes,
            retrieval_budget_bytes: self.retrievals.budget,
            retrieval_evictions: self.retrievals.evictions,
            plan_bytes: self.plans.bytes,
            plan_budget_bytes: self.plans.budget,
            plan_evictions: self.plans.evictions,
            plan_hits: self.plan_hits,
            plan_misses: self.plan_misses,
        }
    }

    /// The synthetic input field for `side` (cached).
    pub fn input(&mut self, side: usize) -> (Arc<Vec<u8>>, ArrayMeta) {
        self.inputs
            .entry(side)
            .or_insert_with(|| {
                let data = hpdr_data::nyx_density(side, DATA_SEED);
                let meta = ArrayMeta::new(DType::F32, data.shape.clone());
                (Arc::new(data.bytes), meta)
            })
            .clone()
    }

    /// A compressed container of the `side` field under `codec`
    /// (compressed once, shared by every decompress job).
    pub fn container(
        &mut self,
        codec: ServeCodec,
        side: usize,
        work: &dyn DeviceAdapter,
    ) -> Result<Arc<Container>, ServeError> {
        let key = (codec.label(), side);
        if let Some(c) = self.containers.get(&key) {
            return Ok(Arc::clone(c));
        }
        let (input, meta) = self.input(side);
        let stream = codec
            .reducer()
            .compress(work, &input, &meta)
            .map_err(|e| ServeError::InvalidJob(format!("pre-compress failed: {e}")))?;
        let rows = meta.shape.dims()[0];
        let container = Arc::new(Container {
            reducer: codec.name().to_string(),
            meta,
            chunks: vec![(rows, stream)],
        });
        self.containers.insert(key, Arc::clone(&container));
        Ok(container)
    }

    /// The progressive refactoring of the `side` field (refactored
    /// once per (codec, side); every tolerance shares the same
    /// `Arc`'d component set). An `mgard:<rel_eb>` codec sets the
    /// refactoring's full-precision floor; other codecs use the
    /// default.
    pub fn refactoring(
        &mut self,
        codec: ServeCodec,
        side: usize,
        work: &dyn DeviceAdapter,
    ) -> Result<Arc<Refactoring>, ServeError> {
        let key = (codec.label(), side);
        let stamp = self.next_stamp();
        if let Some(r) = self.retrievals.get(&key, stamp) {
            return Ok(r);
        }
        let (input, meta) = self.input(side);
        let data: Vec<f32> = input
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
            .collect();
        let cfg = ProgressiveConfig {
            rel_bound: match codec {
                ServeCodec::Mgard { rel_eb } => rel_eb,
                _ => ProgressiveConfig::default().rel_bound,
            },
            ..ProgressiveConfig::default()
        };
        let set = refactor_progressive(work, &data, &meta.shape, &cfg)
            .map_err(|e| ServeError::InvalidJob(format!("refactoring failed: {e}")))?;
        let set = Arc::new(set);
        let bytes = set.components.iter().map(|c| c.len() as u64).sum();
        self.retrievals.insert(key, Arc::clone(&set), bytes, stamp);
        Ok(set)
    }

    /// A retrieval payload at relative tolerance `rel_tol` (× the
    /// field's range). Plans are cached per (codec, side, tolerance).
    pub fn retrieval(
        &mut self,
        codec: ServeCodec,
        side: usize,
        rel_tol: f64,
        work: &dyn DeviceAdapter,
    ) -> Result<JobPayload, ServeError> {
        if rel_tol <= 0.0 || !rel_tol.is_finite() {
            return Err(ServeError::InvalidJob(format!(
                "retrieve tolerance {rel_tol} must be positive"
            )));
        }
        let set = self.refactoring(codec, side, work)?;
        let tolerance = rel_tol * set.manifest.range;
        let key = (codec.label(), side, rel_tol.to_bits());
        let stamp = self.next_stamp();
        let plan = match self.plans.get(&key, stamp) {
            Some(p) => {
                self.plan_hits += 1;
                p
            }
            None => {
                self.plan_misses += 1;
                let p = Arc::new(plan_fetch(
                    &set.manifest,
                    &vec![0; set.manifest.levels as usize],
                    tolerance,
                ));
                self.plans.insert(key, Arc::clone(&p), p.bytes, stamp);
                p
            }
        };
        let meta = set.manifest.meta.clone();
        Ok(JobPayload::Retrieve {
            set,
            plan,
            tolerance,
            meta,
        })
    }

    /// [`retrieval`](PayloadCache::retrieval) with per-tenant plan
    /// hit/miss attribution (the loadgen exposes these as gauges so
    /// `hpdr top` shows each tenant's plan-cache hit-rate live).
    pub fn retrieval_for(
        &mut self,
        tenant: u32,
        codec: ServeCodec,
        side: usize,
        rel_tol: f64,
        work: &dyn DeviceAdapter,
    ) -> Result<JobPayload, ServeError> {
        let (hits, misses) = (self.plan_hits, self.plan_misses);
        let payload = self.retrieval(codec, side, rel_tol, work)?;
        let t = self.tenant_plan_stats.entry(tenant).or_default();
        t.0 += self.plan_hits - hits;
        t.1 += self.plan_misses - misses;
        Ok(payload)
    }

    /// Per-tenant `(plan_hits, plan_misses)` recorded via
    /// [`retrieval_for`](PayloadCache::retrieval_for).
    pub fn tenant_plan_stats(&self) -> &BTreeMap<u32, (u64, u64)> {
        &self.tenant_plan_stats
    }

    /// Is the compressed container for (codec, side) resident here?
    /// Pure residency probe for locality-aware placement.
    pub fn container_resident(&self, codec: ServeCodec, side: usize) -> bool {
        self.containers.contains_key(&(codec.label(), side))
    }

    /// Is the progressive component set for (codec, side) resident?
    /// Does not touch LRU recency.
    pub fn refactoring_resident(&self, codec: ServeCodec, side: usize) -> bool {
        self.retrievals.contains(&(codec.label(), side))
    }

    /// Admit an already-materialized container (a remote fetch landing
    /// on this node): subsequent jobs for (codec, side) are local hits.
    pub fn admit_container(&mut self, codec: ServeCodec, side: usize, container: Arc<Container>) {
        self.containers
            .entry((codec.label(), side))
            .or_insert(container);
    }

    /// Admit an already-materialized component set fetched from a
    /// remote node, costed into the refactoring LRU like a local one.
    pub fn admit_refactoring(&mut self, codec: ServeCodec, side: usize, set: Arc<Refactoring>) {
        let key = (codec.label(), side);
        if self.retrievals.contains(&key) {
            return;
        }
        let stamp = self.next_stamp();
        let bytes = set.components.iter().map(|c| c.len() as u64).sum();
        self.retrievals.insert(key, set, bytes, stamp);
    }

    /// Build a payload for one job.
    pub fn payload(
        &mut self,
        compress: bool,
        codec: ServeCodec,
        side: usize,
        work: &dyn DeviceAdapter,
    ) -> Result<JobPayload, ServeError> {
        if compress {
            let (input, meta) = self.input(side);
            Ok(JobPayload::Compress { input, meta })
        } else {
            Ok(JobPayload::Decompress {
                container: self.container(codec, side, work)?,
            })
        }
    }
}

impl Default for PayloadCache {
    fn default() -> Self {
        PayloadCache::new()
    }
}

/// Parse a full job script into arrival-ordered requests.
pub fn parse_script(text: &str, work: &dyn DeviceAdapter) -> Result<Vec<JobRequest>, ServeError> {
    let mut cache = PayloadCache::new();
    parse_script_with(text, work, &mut cache)
}

/// [`parse_script`] with a caller-owned [`PayloadCache`], so the caller
/// can read the cache's occupancy/eviction stats afterwards (the serve
/// CLI surfaces them in the report) or share materialization across
/// scripts.
pub fn parse_script_with(
    text: &str,
    work: &dyn DeviceAdapter,
    cache: &mut PayloadCache,
) -> Result<Vec<JobRequest>, ServeError> {
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        jobs.push(
            parse_line(line, cache, work)
                .map_err(|e| ServeError::Script(format!("line {}: {e}", lineno + 1)))?,
        );
    }
    jobs.sort_by_key(|j| j.arrival);
    Ok(jobs)
}

fn parse_line(
    line: &str,
    cache: &mut PayloadCache,
    work: &dyn DeviceAdapter,
) -> Result<JobRequest, ServeError> {
    let bad = |m: String| ServeError::Script(m);
    let mut parts = line.split_whitespace();
    let mut next = |what: &str| {
        parts
            .next()
            .ok_or_else(|| bad(format!("missing field <{what}>")))
    };
    let arrival_us: u64 = next("arrival_us")?
        .parse()
        .map_err(|_| bad("bad <arrival_us>".into()))?;
    let tenant: u32 = next("tenant")?
        .parse()
        .map_err(|_| bad("bad <tenant>".into()))?;
    let kind = next("kind")?;
    if !matches!(kind, "compress" | "decompress" | "retrieve") {
        return Err(bad(format!("unknown kind '{kind}'")));
    }
    let codec = ServeCodec::parse(next("codec")?)?;
    let side: usize = next("side")?
        .parse()
        .map_err(|_| bad("bad <side>".into()))?;
    if side == 0 || side > 64 {
        return Err(bad(format!("side {side} out of range 1..=64")));
    }

    // Options first: `tol=` feeds payload construction.
    let arrival = Ns::from_micros(arrival_us);
    let mut tol = DEFAULT_RETRIEVE_TOL;
    let mut priority = 0u8;
    let mut deadline = None;
    let mut cancel_at = None;
    for opt in parts {
        let (key, value) = opt
            .split_once('=')
            .ok_or_else(|| bad(format!("bad option '{opt}' (want key=value)")))?;
        if key == "tol" {
            if kind != "retrieve" {
                return Err(bad("tol= is only valid on retrieve jobs".into()));
            }
            tol = value
                .parse::<f64>()
                .map_err(|_| bad(format!("bad value in '{opt}'")))?;
            if tol <= 0.0 || !tol.is_finite() {
                return Err(bad(format!("tolerance {tol} must be positive")));
            }
            continue;
        }
        let num: u64 = value
            .parse()
            .map_err(|_| bad(format!("bad value in '{opt}'")))?;
        match key {
            "prio" => {
                priority = u8::try_from(num).map_err(|_| bad(format!("priority {num} > 255")))?
            }
            "deadline_us" => deadline = Some(arrival + Ns::from_micros(num)),
            "cancel_us" => cancel_at = Some(arrival + Ns::from_micros(num)),
            other => return Err(bad(format!("unknown option '{other}'"))),
        }
    }

    let payload = match kind {
        "retrieve" => cache.retrieval(codec, side, tol, work)?,
        "compress" => cache.payload(true, codec, side, work)?,
        _ => cache.payload(false, codec, side, work)?,
    };
    let mut req = JobRequest::new(TenantId(tenant), arrival, codec, payload);
    req.priority = priority;
    req.deadline = deadline;
    req.cancel_at = cancel_at;
    Ok(req)
}

/// Built-in demo script (used by `hpdr serve` when no job file is
/// given): three tenants, mixed codecs and directions, one priority
/// job, one deadline, one cancellation, and mixed-fidelity progressive
/// retrievals (tenants 0/1/2 pull the same stored field at different
/// tolerances — same component set, different fetch plans).
pub const DEMO_SCRIPT: &str = "\
# arrival_us tenant kind codec side [tol=F] [prio=N] [deadline_us=N] [cancel_us=N]
0    0 compress   zfp:16    16
10   1 compress   mgard:1e-3 16
20   2 compress   lz4       12
30   0 decompress zfp:16    16
40   1 compress   zfp:16    16 prio=2
50   2 compress   sz:1e-3   12
55   0 retrieve   mgard:1e-5 16 tol=1e-1
60   0 compress   huffman   12
65   1 retrieve   mgard:1e-5 16 tol=1e-3
70   1 compress   zfp:16    16 deadline_us=100000
75   2 retrieve   mgard:1e-5 16 tol=1e-1
80   2 compress   lz4       12 cancel_us=1
90   0 decompress zfp:16    16
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use hpdr_core::SerialAdapter;

    fn adapter() -> SerialAdapter {
        SerialAdapter::new()
    }

    #[test]
    fn demo_script_parses() {
        let jobs = parse_script(DEMO_SCRIPT, &adapter()).unwrap();
        assert_eq!(jobs.len(), 13);
        assert_eq!(jobs[0].arrival, Ns::ZERO);
        assert_eq!(jobs[4].priority, 2);
        assert!(jobs[9].deadline.is_some());
        assert!(jobs[11].cancel_at.is_some());
        assert_eq!(jobs[3].payload.kind(), JobKind::Decompress);
        let retrieves: Vec<_> = jobs
            .iter()
            .filter(|j| j.payload.kind().name() == "retrieve")
            .collect();
        assert_eq!(retrieves.len(), 3);
    }

    #[test]
    fn retrieve_jobs_share_one_refactoring_across_tolerances() {
        // Three tenants, two fidelities, one stored field: the payload
        // cache hands every job the same Arc'd component set, and the
        // repeated tolerance is a plan-cache hit.
        let script = "\
0  0 retrieve mgard:1e-5 8 tol=1e-1
5  1 retrieve mgard:1e-5 8 tol=1e-3
10 2 retrieve mgard:1e-5 8 tol=1e-1
";
        let jobs = parse_script(script, &adapter()).unwrap();
        assert_eq!(jobs.len(), 3);
        let sets: Vec<_> = jobs
            .iter()
            .map(|j| match &j.payload {
                JobPayload::Retrieve { set, .. } => Arc::clone(set),
                other => panic!("expected retrieve payload, got {}", other.kind().name()),
            })
            .collect();
        assert!(Arc::ptr_eq(&sets[0], &sets[1]));
        assert!(Arc::ptr_eq(&sets[0], &sets[2]));
        // Loose fidelity plans strictly fewer bytes than tight.
        let plan = |j: &JobRequest| match &j.payload {
            JobPayload::Retrieve { plan, .. } => Arc::clone(plan),
            _ => unreachable!(),
        };
        assert!(plan(&jobs[0]).bytes < plan(&jobs[1]).bytes);
        // Tenants 0 and 2 asked for the same fidelity: same plan object.
        assert!(Arc::ptr_eq(&plan(&jobs[0]), &plan(&jobs[2])));
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let work = adapter();
        let mut cache = PayloadCache::new();
        let codec = ServeCodec::parse("mgard:1e-5").unwrap();
        cache.retrieval(codec, 8, 1e-1, &work).unwrap();
        cache.retrieval(codec, 8, 1e-3, &work).unwrap();
        cache.retrieval(codec, 8, 1e-1, &work).unwrap();
        assert_eq!(cache.plan_misses, 2);
        assert_eq!(cache.plan_hits, 1);
    }

    #[test]
    fn lru_map_evicts_least_recent_and_counts() {
        let mut m: LruMap<u32, u32> = LruMap::new(10);
        m.insert(1, Arc::new(10), 4, 1);
        m.insert(2, Arc::new(20), 4, 2);
        assert_eq!(m.bytes, 8);
        // Touch 1 so 2 becomes the least-recently-used entry.
        assert!(m.get(&1, 3).is_some());
        m.insert(3, Arc::new(30), 4, 4);
        assert_eq!(m.evictions, 1);
        assert!(m.get(&2, 5).is_none(), "LRU entry 2 must be evicted");
        assert!(m.get(&1, 6).is_some());
        assert!(m.get(&3, 7).is_some());
        assert_eq!(m.bytes, 8);
        // An oversized entry still caches: everything else evicts, the
        // newcomer survives.
        m.insert(4, Arc::new(40), 100, 8);
        assert!(m.get(&4, 9).is_some());
        assert_eq!(m.map.len(), 1);
        assert_eq!(m.bytes, 100);
        assert_eq!(m.evictions, 3);
        // Re-inserting an existing key replaces its cost, not adds.
        m.insert(4, Arc::new(41), 7, 10);
        assert_eq!(m.bytes, 7);
    }

    #[test]
    fn payload_cache_budget_bounds_refactorings() {
        let work = adapter();
        // 1-byte retrieval budget: every new component set evicts the
        // previous one; plans keep their own (ample) budget.
        let mut cache = PayloadCache::with_budgets(1, DEFAULT_PLAN_BUDGET_BYTES);
        let codec = ServeCodec::parse("mgard:1e-5").unwrap();
        let a1 = cache.refactoring(codec, 8, &work).unwrap();
        cache.refactoring(codec, 10, &work).unwrap();
        let s = cache.stats();
        assert_eq!(s.retrieval_evictions, 1, "{s:?}");
        assert!(s.retrieval_bytes > 0);
        // The evicted side recomputes: a fresh allocation, not the old Arc.
        let a2 = cache.refactoring(codec, 8, &work).unwrap();
        assert!(!Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.stats().retrieval_evictions, 2);
        // Within budget nothing evicts and the Arc is shared.
        let mut roomy = PayloadCache::new();
        let b1 = roomy.refactoring(codec, 8, &work).unwrap();
        let b2 = roomy.refactoring(codec, 8, &work).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2));
        assert_eq!(roomy.stats().retrieval_evictions, 0);
    }

    #[test]
    fn parse_script_with_surfaces_cache_stats() {
        let mut cache = PayloadCache::new();
        let jobs = parse_script_with(DEMO_SCRIPT, &adapter(), &mut cache).unwrap();
        assert_eq!(jobs.len(), 13);
        let s = cache.stats();
        assert_eq!(s.plan_misses, 2, "{s:?}"); // tol=1e-1 and tol=1e-3
        assert_eq!(s.plan_hits, 1, "{s:?}"); // repeated tol=1e-1
        assert!(s.retrieval_bytes > 0);
        assert!(s.plan_bytes > 0);
        assert_eq!(s.retrieval_evictions + s.plan_evictions, 0);
    }

    #[test]
    fn retrieve_option_validation() {
        let work = adapter();
        // tol on a non-retrieve job is rejected.
        assert!(parse_script("0 0 compress lz4 8 tol=1e-2\n", &work).is_err());
        assert!(parse_script("0 0 retrieve mgard:1e-5 8 tol=0\n", &work).is_err());
        assert!(parse_script("0 0 retrieve mgard:1e-5 8 tol=x\n", &work).is_err());
        // Default tolerance applies when tol= is absent.
        let jobs = parse_script("0 0 retrieve mgard:1e-5 8\n", &work).unwrap();
        match &jobs[0].payload {
            JobPayload::Retrieve { set, tolerance, .. } => {
                assert!((tolerance / set.manifest.range - DEFAULT_RETRIEVE_TOL).abs() < 1e-12);
            }
            _ => panic!("expected retrieve payload"),
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let jobs = parse_script("# nothing\n\n0 0 compress lz4 8 # tail\n", &adapter()).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].payload.raw_bytes(), 8 * 8 * 8 * 4);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_script("0 0 compress lz4 8\n1 0 squash lz4 8\n", &adapter()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(parse_script("0 0 compress gzip 8\n", &adapter()).is_err());
        assert!(parse_script("0 0 compress lz4 0\n", &adapter()).is_err());
        assert!(parse_script("0 0 compress lz4 8 prio=z\n", &adapter()).is_err());
    }

    #[test]
    fn decompress_payloads_share_one_container() {
        let script = "0 0 decompress lz4 8\n5 1 decompress lz4 8\n";
        let jobs = parse_script(script, &adapter()).unwrap();
        let (a, b) = (&jobs[0].payload, &jobs[1].payload);
        match (a, b) {
            (
                JobPayload::Decompress { container: ca },
                JobPayload::Decompress { container: cb },
            ) => {
                assert!(Arc::ptr_eq(ca, cb));
            }
            _ => panic!("expected decompress payloads"),
        }
    }
}
