//! Helpers shared by the integration tests' launch pins.

/// FNV-1a over every span field except the wall clock (`wall_start`,
/// `wall`): op, label, engine, queue, deps, kind, class, virtual times,
/// bytes and footprint.
pub fn spans_digest(trace: &hpdr_sim::Trace) -> u64 {
    let mut s = String::new();
    for r in trace.spans() {
        s.push_str(&format!(
            "{} {} {:?} {:?} {:?} {:?} {:?} {} {} {} {} {}\n",
            r.op,
            r.label,
            r.engine,
            r.queue,
            r.deps,
            r.kind,
            r.class,
            r.start.0,
            r.end.0,
            r.bytes,
            r.footprint_bytes,
            r.ready.0
        ));
    }
    hpdr_core::fnv1a(s.as_bytes())
}
