//! Adversarial fixtures separating `hpdr verify` from `hpdr audit`.
//!
//! Each fixture is a plan whose *declarations* are internally
//! consistent — the static hazard analyzer and schedule lints pass —
//! but whose *payload behaviour* drifts from them. Only the dynamic
//! auditor (shadow-access recorder + effect diff) can see the drift.
//! These tests pin the division of labour: `verify` trusts
//! declarations, `audit` checks them.
//!
//! The property test at the bottom closes the loop in the other
//! direction: shipped pipeline plans audit clean across randomized
//! chunkings, optimization toggles and adapters.

use hpdr_audit::{
    diff_effects, explore, validate_audit_json, AuditReport, ConfigAudit, EffectIssue,
    ExploreOptions,
};
use hpdr_core::{ArrayMeta, DType, Shape};
use hpdr_sim::json::parse_json;
use hpdr_sim::{v100, Cost, Effects, Engine, KernelClass, MemPool, Ns, OpSpec, Sim};
use hpdr_verify::envelope::{header, SCHEMA_AUDIT};
use hpdr_verify::{check, Direction, LintConfig};

fn plain_cfg() -> LintConfig {
    LintConfig {
        direction: Direction::Compress,
        two_buffers: false,
        cmm: false,
        deser_first: false,
        serial_queue: false,
    }
}

/// One-device sim plus a kernel op whose declaration and payload the
/// caller controls independently.
fn fixture(
    declared: impl Fn(hpdr_sim::BufId, hpdr_sim::BufId, hpdr_sim::BufId) -> Effects,
    payload: impl Fn(&mut MemPool, hpdr_sim::BufId, hpdr_sim::BufId, hpdr_sim::BufId) + Send + 'static,
) -> Sim {
    let mut sim = Sim::new();
    let rt = sim.add_runtime();
    let dev = sim.add_device(v100(), rt);
    let q = sim.add_queue();
    let src = sim.create_buffer(dev, 4);
    let dst = sim.create_buffer(dev, 4);
    let extra = sim.create_buffer(dev, 4);
    sim.pool_mut().get_mut(src).copy_from_slice(&[1, 2, 3, 4]);
    sim.push(
        OpSpec {
            engine: Engine::Compute(dev),
            queue: Some(q),
            deps: vec![],
            cost: Cost::Kernel {
                class: KernelClass::Memcpy,
                bytes: 4,
            },
            label: "copy[0]".into(),
            effects: declared(src, dst, extra),
        },
        Some(Box::new(move |pool: &mut MemPool| {
            payload(pool, src, dst, extra)
        })),
    );
    sim.push(
        OpSpec {
            engine: Engine::Compute(dev),
            queue: Some(q),
            deps: vec![],
            cost: Cost::Fixed(Ns(5)),
            label: "sink[0]".into(),
            effects: Effects::read(dst),
        },
        None,
    );
    sim
}

/// Audit the fixture: static verify must already be clean (that is the
/// adversarial premise), then diff observed effects and explore.
fn audit(mut sim: Sim, name: &str) -> AuditReport {
    let dag = sim.dag();
    let verify = check(&dag, &plain_cfg());
    assert!(
        verify.is_clean(),
        "adversarial fixture must pass static verify, got:\n{}",
        verify.describe(&dag)
    );
    sim.set_audit(true);
    sim.run();
    let effects = diff_effects(&dag, &sim.take_observed());
    let explore = explore(&dag, &plain_cfg(), &ExploreOptions::default()).expect("explorable");
    let mut report = AuditReport::default();
    report.configs.push(ConfigAudit {
        name: name.to_string(),
        direction: "compress",
        effects,
        explore,
    });
    report
}

#[test]
fn under_declared_write_passes_verify_but_fails_audit() {
    let sim = fixture(
        |src, dst, _extra| Effects::read(src).and_write(dst),
        |pool, src, dst, extra| {
            let (s, d) = pool.get_pair_mut(src, dst);
            d.copy_from_slice(s);
            // The lie: an effect the declaration does not cover, so the
            // static analyzer ordered nothing against it.
            pool.get_mut(extra).fill(9);
        },
    );
    let report = audit(sim, "under-declared-write");
    assert!(!report.is_sound());
    assert_eq!(report.errors(), 1);
    assert_eq!(report.warnings(), 0);
    let f = &report.configs[0].effects[0];
    assert_eq!(f.issue, EffectIssue::UndeclaredWrite);
    assert_eq!(f.op, 0);
    // The JSON report is schema-valid and its envelope says unsound.
    let json = report.to_json();
    validate_audit_json(&json).expect("schema-valid report");
    assert_eq!(header(&parse_json(&json).unwrap(), SCHEMA_AUDIT), Ok(false));
}

#[test]
fn under_declared_free_passes_verify_but_fails_audit() {
    let sim = fixture(
        |src, dst, _extra| Effects::read(src).and_write(dst),
        |pool, src, dst, extra| {
            let (s, d) = pool.get_pair_mut(src, dst);
            d.copy_from_slice(s);
            // Freeing a buffer nothing declares: invisible statically,
            // a use-after-free trap for any later reader.
            pool.mark_freed(extra);
        },
    );
    let report = audit(sim, "under-declared-free");
    assert!(!report.is_sound());
    assert_eq!(report.errors(), 1);
    assert_eq!(
        report.configs[0].effects[0].issue,
        EffectIssue::UndeclaredFree
    );
}

#[test]
fn over_declared_read_passes_verify_and_audit_warns() {
    let sim = fixture(
        |src, dst, extra| Effects::read(src).and_write(dst).and_read(extra),
        |pool, src, dst, _extra| {
            let (s, d) = pool.get_pair_mut(src, dst);
            d.copy_from_slice(s);
        },
    );
    let report = audit(sim, "over-declared-read");
    // Imprecision, not unsoundness: the audit stays green but flags it.
    assert!(report.is_sound());
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 1);
    let f = &report.configs[0].effects[0];
    assert_eq!(f.issue, EffectIssue::UnusedRead);
    let json = report.to_json();
    validate_audit_json(&json).expect("schema-valid report");
    assert_eq!(header(&parse_json(&json).unwrap(), SCHEMA_AUDIT), Ok(true));
}

// ---------------------------------------------------------------------------
// Shipped plans audit clean under randomized configuration
// ---------------------------------------------------------------------------

mod shipped {
    use super::*;
    use hpdr_core::DeviceAdapter;
    use hpdr_huffman::ByteHuffmanReducer;
    use hpdr_pipeline::{
        compress_pipelined, plan_compress, plan_decompress, PipelineMode, PipelineOptions,
    };
    use proptest::prelude::*;
    use std::sync::Arc;

    fn audit_clean(name: &str, direction: Direction, opts: &PipelineOptions, mut sim: Sim) {
        let dag = sim.dag();
        sim.set_audit(true);
        sim.run();
        let effects = diff_effects(&dag, &sim.take_observed());
        let cfg = LintConfig {
            direction,
            two_buffers: opts.two_buffers,
            cmm: opts.cmm,
            deser_first: opts.deser_first,
            serial_queue: opts.serial_queue,
        };
        let explore = explore(&dag, &cfg, &ExploreOptions::default()).expect("explorable");
        assert!(
            effects.iter().all(|f| !f.issue.is_error()),
            "{name}: shipped plan under-declares effects: {:?}",
            effects
        );
        assert!(
            effects.is_empty(),
            "{name}: shipped plan over-declares effects: {:?}",
            effects
        );
        assert!(
            explore.is_clean(),
            "{name}: interleaving violations: {:?}",
            explore.violations
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every randomized shipped configuration — chunk rows,
        /// optimization toggles, adapter — audits clean in both
        /// directions (the proptest analogue of `hpdr audit`'s sweep).
        #[test]
        fn shipped_plans_audit_clean(
            rows in 1usize..=8,
            two_buffers in any::<bool>(),
            cmm in any::<bool>(),
            deser_first in any::<bool>(),
            serial in any::<bool>(),
        ) {
            let spec = v100();
            let meta = ArrayMeta::new(
                DType::F32,
                Shape::try_new(&[16, 64]).expect("shape"),
            );
            let row_bytes = (meta.shape.row_elements() * meta.dtype.size()) as u64;
            let input: Arc<Vec<u8>> = Arc::new(
                (0..meta.num_bytes() / 4)
                    .flat_map(|i| ((i % 251) as f32).to_le_bytes())
                    .collect(),
            );
            let adapter: Arc<dyn DeviceAdapter> = if serial {
                Arc::new(hpdr_core::SerialAdapter::new())
            } else {
                Arc::new(hpdr_core::CpuParallelAdapter::with_defaults())
            };
            let reducer: Arc<dyn hpdr_core::Reducer> =
                Arc::new(ByteHuffmanReducer::default());
            let opts = PipelineOptions {
                mode: PipelineMode::Fixed { chunk_bytes: rows as u64 * row_bytes },
                two_buffers,
                cmm,
                deser_first,
                serial_queue: false,
                host_staging: false,
            };
            let name = format!(
                "huffman rows={rows} tb={two_buffers} cmm={cmm} df={deser_first} serial={serial}"
            );
            let sim = plan_compress(
                &spec, Arc::clone(&adapter), Arc::clone(&reducer),
                Arc::clone(&input), &meta, &opts,
            ).expect("plan compress");
            audit_clean(&name, Direction::Compress, &opts, sim);
            let (container, _) = compress_pipelined(
                &spec, Arc::clone(&adapter), Arc::clone(&reducer),
                Arc::clone(&input), &meta, &opts,
            ).expect("compress");
            let sim = plan_decompress(&spec, adapter, reducer, &container, &opts)
                .expect("plan decompress");
            audit_clean(&name, Direction::Decompress, &opts, sim);
        }
    }
}
