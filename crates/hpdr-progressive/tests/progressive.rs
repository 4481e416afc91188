//! Acceptance properties of progressive retrieval:
//!
//! * measured error ≤ the requested tolerance, at every fidelity;
//! * the guaranteed bound (and, within slack, the measured error) is
//!   monotonically non-increasing as components are added;
//! * a loose tolerance fetches strictly fewer bytes than the full
//!   container; `refine` fetches strictly the delta with **zero**
//!   re-fetches of already-held components;
//! * on-disk BP round-trip survives out-of-order component fetch;
//! * the retrieval op DAG verifies clean and reproduces the direct
//!   reconstruction byte-for-byte.

use hpdr_core::{CpuParallelAdapter, DeviceAdapter, SerialAdapter, Shape};
use hpdr_progressive::{
    plan_fetch, plan_retrieve, refactor_progressive, Manifest, ProgressiveConfig,
    ProgressiveReader, Refactoring,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hpdr-progressive-test-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smooth(dims: &[usize]) -> (Vec<f64>, Shape) {
    let shape = Shape::new(dims);
    let data = (0..shape.num_elements())
        .map(|i| {
            let idx = shape.unravel(i);
            idx.iter()
                .enumerate()
                .map(|(d, &x)| ((x as f64 / dims[d] as f64) * (2.0 + d as f64)).sin())
                .sum::<f64>()
        })
        .collect();
    (data, shape)
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn max_err_f32(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() as f64)
        .fold(0.0, f64::max)
}

#[test]
fn full_fetch_meets_the_full_bound() {
    let adapter = CpuParallelAdapter::new(4);
    let (data, shape) = smooth(&[17, 17]);
    let r = refactor_progressive(&adapter, &data, &shape, &ProgressiveConfig::default()).unwrap();
    let tol = r.manifest.full_bound();
    let out = r.retrieve::<f64>(&adapter, tol).unwrap();
    assert_eq!(out.shape, shape);
    assert!(out.bound <= tol * (1.0 + 1e-12));
    let err = max_err(&data, &out.data);
    assert!(err <= tol, "err {err} > bound {tol}");
    // Full precision is genuinely tight (rel_bound 1e-6 of range ~4).
    assert!(tol < 1e-4, "full bound {tol}");
}

#[test]
fn nyx_32cube_progressive_acceptance() {
    // The headline scenario: one stored 32³ NYX container, three
    // fidelities, each fetch minimal, refine strictly delta.
    let adapter = CpuParallelAdapter::new(4);
    let d = hpdr_data::nyx_density(32, 7);
    let data: Vec<f32> = d
        .bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let r = refactor_progressive(&adapter, &data, &d.shape, &ProgressiveConfig::default()).unwrap();
    let total = r.total_bytes();
    let range = r.manifest.range;

    let dir = tmpdir("nyx32");
    hpdr_progressive::write_bp(&dir, &r, 2).unwrap();
    let mut reader = ProgressiveReader::open(&dir).unwrap();

    // Loose bound: strictly fewer bytes than the full container.
    let loose = 1e-2 * range;
    let first = reader.retrieve::<f32>(&adapter, loose).unwrap();
    assert!(
        reader.bytes_fetched() < total,
        "loose fetch {} should be < total {}",
        reader.bytes_fetched(),
        total
    );
    assert!(first.fetched_bytes > 0);
    let err = max_err_f32(&data, &first.data);
    assert!(err <= loose, "loose err {err} > {loose}");

    // Refine: strictly the delta, zero re-fetches.
    let tight = 1e-4 * range;
    let ops_before = reader.fetch_ops();
    let bytes_before = reader.bytes_fetched();
    let refined = reader.refine::<f32>(&adapter, tight).unwrap();
    let err = max_err_f32(&data, &refined.data);
    assert!(err <= tight, "tight err {err} > {tight}");
    assert!(refined.fetched_bytes > 0, "refine must fetch the delta");
    // Every fetch op since the first call touched a *new* component:
    // ops grew exactly by the number of newly fetched components.
    assert_eq!(
        reader.fetch_ops() - ops_before,
        refined.fetched_components as u64,
        "refine re-fetched an already-held component"
    );
    assert_eq!(reader.bytes_fetched() - bytes_before, refined.fetched_bytes);

    // Same tolerance again: zero I/O, state fully reused.
    let again = reader.refine::<f32>(&adapter, tight).unwrap();
    assert_eq!(again.fetched_bytes, 0);
    assert_eq!(again.fetched_components, 0);
    assert_eq!(
        reader.fetch_ops(),
        ops_before + refined.fetched_components as u64
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_of_order_component_fetch_roundtrips_on_disk() {
    let adapter = SerialAdapter::new();
    let (data, shape) = smooth(&[9, 17, 5]);
    let cfg = ProgressiveConfig {
        rel_bound: 1e-5,
        plane_bits: 3,
    };
    let r = refactor_progressive(&adapter, &data, &shape, &cfg).unwrap();
    let dir = tmpdir("ooo");
    hpdr_progressive::write_bp(&dir, &r, 3).unwrap();

    // Fetch *every* component in reverse manifest order — decoding is
    // order-independent, so the result must equal the in-order one.
    let mut reader = ProgressiveReader::open(&dir).unwrap();
    assert_eq!(reader.manifest(), &r.manifest);
    for idx in (0..r.manifest.components.len()).rev() {
        assert!(reader.fetch_component(&adapter, idx).unwrap());
    }
    assert_eq!(reader.bytes_fetched(), r.total_bytes());
    let (ooo, s) = reader.reconstruct::<f64>(&adapter).unwrap();
    assert_eq!(s, shape);

    let full = r
        .retrieve::<f64>(&adapter, r.manifest.full_bound())
        .unwrap();
    assert_eq!(ooo, full.data, "out-of-order decode must be bit-identical");
    assert!(max_err(&data, &ooo) <= r.manifest.full_bound());

    // Re-fetching a held component is a no-op.
    assert!(!reader.fetch_component(&adapter, 0).unwrap());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_roundtrip_and_corruption() {
    let adapter = SerialAdapter::new();
    let (data, shape) = smooth(&[17, 9]);
    let r = refactor_progressive(&adapter, &data, &shape, &ProgressiveConfig::default()).unwrap();
    let bytes = r.manifest.to_bytes();
    let parsed = Manifest::from_bytes(&bytes).unwrap();
    assert_eq!(parsed, r.manifest);
    for cut in [0usize, 3, 7, bytes.len() / 2, bytes.len() - 1] {
        assert!(Manifest::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
    }
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF; // magic
    assert!(Manifest::from_bytes(&bad).is_err());
    // Error-contribution estimates are recorded and positive.
    assert!(!parsed.components.is_empty());
    assert!(parsed
        .components
        .iter()
        .all(|c| c.err_drop > 0.0 && c.bytes > 0));
}

#[test]
fn dtype_mismatch_rejected() {
    let adapter = SerialAdapter::new();
    let (data, shape) = smooth(&[9, 9]);
    let r = refactor_progressive(&adapter, &data, &shape, &ProgressiveConfig::default()).unwrap();
    assert!(r.retrieve::<f32>(&adapter, 1.0).is_err());
}

#[test]
fn greedy_plan_prefers_error_per_byte_and_respects_prefixes() {
    let adapter = SerialAdapter::new();
    let (data, shape) = smooth(&[33, 17]);
    let r = refactor_progressive(&adapter, &data, &shape, &ProgressiveConfig::default()).unwrap();
    let m = &r.manifest;
    let plan = plan_fetch(m, &vec![0; m.levels as usize], m.full_bound());
    // Planes of each level appear MSB-first within the plan.
    let mut seen = vec![0u8; m.levels as usize];
    for &idx in &plan.picks {
        let c = &m.components[idx];
        assert_eq!(c.plane, seen[c.level as usize], "non-prefix fetch order");
        seen[c.level as usize] += 1;
    }
    // A looser plan is a prefix-compatible subset with fewer bytes.
    let loose = plan_fetch(m, &vec![0; m.levels as usize], m.base_bound() / 4.0);
    assert!(loose.bytes < plan.bytes);
    assert!(loose.picks.len() < plan.picks.len());
    // Held state shrinks the plan to the strict delta.
    let held = {
        let mut h = vec![0u8; m.levels as usize];
        for &idx in &loose.picks {
            h[m.components[idx].level as usize] += 1;
        }
        h
    };
    let delta = plan_fetch(m, &held, plan.bound);
    for &idx in &delta.picks {
        assert!(
            !loose.picks.contains(&idx),
            "delta re-plans a held component"
        );
    }
}

#[test]
fn retrieve_dag_matches_direct_reconstruction_and_verifies_clean() {
    let adapter: Arc<dyn DeviceAdapter> = Arc::new(SerialAdapter::new());
    let (data, shape) = smooth(&[17, 17]);
    let r = Arc::new(
        refactor_progressive(
            adapter.as_ref(),
            &data,
            &shape,
            &ProgressiveConfig::default(),
        )
        .unwrap(),
    );
    let tol = 8.0 * r.manifest.full_bound();

    let sim = plan_retrieve(&hpdr_sim::v100(), Arc::clone(&adapter), Arc::clone(&r), tol).unwrap();
    // Static verification: zero hazards, zero lint findings.
    let dag = sim.dag();
    let report = hpdr_verify::check(
        &dag,
        &hpdr_verify::LintConfig {
            direction: hpdr_verify::Direction::Decompress,
            two_buffers: false,
            cmm: true,
            deser_first: false,
            serial_queue: false,
        },
    );
    assert!(report.is_clean(), "{}", report.describe(&dag));

    // Executing the DAG reproduces the direct path byte-for-byte.
    let mut job_sim = Sim2::build(&adapter, &r, tol);
    let timeline = job_sim.sim.run();
    assert!(timeline.makespan().0 > 0);
    let (bytes, meta) = job_sim.job.finish().unwrap();
    assert_eq!(meta, r.meta().unwrap());
    let direct = r.retrieve::<f64>(adapter.as_ref(), tol).unwrap();
    let direct_bytes: Vec<u8> = direct.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(bytes, direct_bytes);
}

/// Helper pairing a Sim with its RetrieveJob (plan_retrieve consumes
/// the job internally, so tests that need `finish()` build their own).
struct Sim2 {
    sim: hpdr_sim::Sim<'static>,
    job: hpdr_progressive::RetrieveJob,
}

impl Sim2 {
    fn build(adapter: &Arc<dyn DeviceAdapter>, set: &Arc<Refactoring>, tol: f64) -> Sim2 {
        let mut sim = hpdr_sim::Sim::new();
        let rt = sim.add_runtime();
        let dev = sim.add_device(hpdr_sim::v100(), rt);
        let mut job = hpdr_progressive::RetrieveJob::new(
            &mut sim,
            dev,
            Arc::clone(adapter),
            Arc::clone(set),
            tol,
        )
        .unwrap();
        for k in 0..job.num_components() {
            job.submit_component(&mut sim, k);
        }
        job.finish_submission(&mut sim);
        Sim2 { sim, job }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property (satellite): at every greedy prefix, the measured error
    /// is ≤ the guaranteed bound (hence ≤ any tolerance that prefix was
    /// planned for), and the bound is monotonically non-increasing as
    /// components are added; the measured error is non-increasing
    /// within the same slack the level-prefix refactor tests use.
    #[test]
    fn error_monotone_under_component_addition(
        dsel in 0usize..4,
        seed in 1u64..500,
    ) {
        let dims: &[usize] = match dsel {
            0 => &[17, 17],
            1 => &[9, 9, 9],
            2 => &[33, 5],
            _ => &[65],
        };
        let shape = Shape::new(dims);
        let data: Vec<f64> = (0..shape.num_elements())
            .map(|i| {
                let x = i as f64 / shape.num_elements() as f64;
                ((x * 13.7 + seed as f64).sin() + (x * 5.1).cos()) * 2.0
            })
            .collect();
        let adapter = SerialAdapter::new();
        let cfg = ProgressiveConfig { rel_bound: 1e-6, plane_bits: 4 };
        let r = refactor_progressive(&adapter, &data, &shape, &cfg).unwrap();
        let m = r.manifest.clone();
        let dir = tmpdir(&format!("prop-{dsel}-{seed}"));
        hpdr_progressive::write_bp(&dir, &r, 1).unwrap();
        let mut reader = ProgressiveReader::open(&dir).unwrap();

        // Greedy full order.
        let plan = plan_fetch(&m, &vec![0; m.levels as usize], 0.0);
        let mut last_bound = reader.current_bound();
        let mut last_err = f64::INFINITY;
        // Check the empty state, then every third prefix (cheaper).
        for (k, &idx) in plan.picks.iter().enumerate() {
            prop_assert!(reader.fetch_component(&adapter, idx).unwrap());
            if k % 3 != 0 && k + 1 != plan.picks.len() {
                continue;
            }
            let bound = reader.current_bound();
            prop_assert!(bound <= last_bound * (1.0 + 1e-12),
                "bound grew: {bound} > {last_bound}");
            let (out, _) = reader.reconstruct::<f64>(&adapter).unwrap();
            let err = max_err(&data, &out);
            prop_assert!(err <= bound, "err {err} > guaranteed bound {bound}");
            // Measured error tracks the monotone bound; cancellation in
            // the recomposition allows small transient rises, so the
            // hard guarantee is err ≤ bound (above) and the trend check
            // carries generous slack.
            prop_assert!(err <= last_err * 1.5 + 1e-12,
                "error grew adding component {k}: {err} > {last_err}");
            last_bound = bound;
            last_err = err;
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
