//! One MGARD context per shape: the hierarchy and node-level map depend
//! on the folded shape alone, so every MGARD-X call of one shape shares
//! one cached context, whatever its dtype, configuration or direction.
//!
//! A test binary of its own: the context cache is process-global, and a
//! test running beside this one would add misses of its own.

use hpdr_core::{SerialAdapter, Shape};
use hpdr_mgard::{compress, context_cache, decompress, MgardConfig};
use hpdr_progressive::{level_counts, refactor_progressive, ProgressiveConfig};

#[test]
fn every_mgard_call_of_one_shape_shares_one_context() {
    let adapter = SerialAdapter::new();
    let shape = Shape::new(&[19, 11, 7]);
    let f64s: Vec<f64> = (0..shape.num_elements())
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let f32s: Vec<f32> = f64s.iter().map(|&v| v as f32).collect();
    let before = context_cache().stats();
    let stream = compress(&adapter, &f32s, &shape, &MgardConfig::relative(1e-2)).unwrap();
    compress(&adapter, &f64s, &shape, &MgardConfig::relative(1e-4)).unwrap();
    decompress::<f32>(&adapter, &stream).unwrap();
    let set = refactor_progressive(&adapter, &f32s, &shape, &ProgressiveConfig::default()).unwrap();
    level_counts(&set.manifest).unwrap();
    let misses = context_cache().stats().misses - before.misses;
    assert_eq!(misses, 1, "one shape built {misses} contexts");
}
