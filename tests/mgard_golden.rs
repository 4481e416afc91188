//! Byte-identity pins for every MGARD-X output: FNV-1a digests of the
//! one-shot containers and their restored fields, and the manifest and
//! components of one progressive refactoring. The constants were recorded from the
//! per-element decomposition kernels that the row-oriented ones replaced,
//! so they show that the kernels kept every operation's order; they are
//! never to be re-recorded to make a kernel change pass.

use hpdr_core::{fnv1a, CpuParallelAdapter, DeviceAdapter, Float, SerialAdapter, Shape};
use hpdr_mgard::MgardConfig;
use hpdr_progressive::{refactor_progressive, ProgressiveConfig};

const SHAPES: [&[usize]; 4] = [&[257], &[33, 12], &[19, 33, 65], &[2, 3, 10, 8]];
const BOUNDS: [f64; 2] = [1e-2, 1e-4];

/// `(container, restored field)` per shape × bound, f32 fields.
const GOLDEN_F32: [(u64, u64); 8] = [
    (0xe06ac6e0efc8ba2a, 0xe6f8e8afb5aa48bc),
    (0x12ad6ffc2786720b, 0x3835d63b7b72dbd1),
    (0x8ea0fcef4fa5e5d5, 0x2e72a924bb7e91ad),
    (0x99381d32d8c8795a, 0x814b4a73a1dc748d),
    (0x87aa5814f0490869, 0x615b0e20ecc1581b),
    (0x382e31acbc48972b, 0x3a3c9e1a2f413180),
    (0xb1cabce909d9fb33, 0x1f8fbaca632a679a),
    (0xb98d8e584d205de6, 0x11bcc25ebcb662df),
];
/// `(container, restored field)` per shape × bound, f64 fields.
const GOLDEN_F64: [(u64, u64); 8] = [
    (0x9a2670a1f93b12e8, 0xe93e837feb2c0f94),
    (0xc40fb8c1dc885306, 0x2bd11942038ec655),
    (0x32ad9c33b45bbe40, 0xfb563a2586d68192),
    (0x9f1052e5fe73e818, 0x520aa5ac6016b7a3),
    (0x226b3817e747c7f0, 0xb4bc4325fdbafe00),
    (0xcdfaa54cb11ef756, 0x1f28af3e093dec7e),
    (0xac0f68899ece4504, 0xab9a98aed935c473),
    (0x200756e37ab6feb4, 0x248cdfa7249719b1),
];
/// Progressive manifest, and the digest of the component digests.
const GOLDEN_PROGRESSIVE: (u64, u64) = (0xd97e63c304400585, 0x611600becd3051d1);

/// A rough field with signed zeros sprinkled in, so the sign of zero
/// sums is pinned too.
fn field<T: Float>(dims: &[usize]) -> (Shape, Vec<T>) {
    let shape = Shape::new(dims);
    let data = (0..shape.num_elements())
        .map(|i| {
            let v = match i % 29 {
                0 => -0.0,
                13 => 0.0,
                _ => {
                    let x = i as f64;
                    (x * 0.013).sin() * 40.0
                        + (x * 0.41).cos() * 3.0
                        + ((i * 2_654_435_761) % 1009) as f64 * 0.01
                }
            };
            T::from_f64(v)
        })
        .collect();
    (shape, data)
}

fn values_digest<T: Float>(v: &[T]) -> u64 {
    let bytes: Vec<u8> = v
        .iter()
        .flat_map(|x| x.to_f64().to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn codec_digests<T: Float>(adapter: &dyn DeviceAdapter) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for dims in SHAPES {
        let (shape, data) = field::<T>(dims);
        for rel in BOUNDS {
            let c =
                hpdr_mgard::compress(adapter, &data, &shape, &MgardConfig::relative(rel)).unwrap();
            let (back, s) = hpdr_mgard::decompress::<T>(adapter, &c).unwrap();
            assert_eq!(s, shape);
            out.push((fnv1a(&c), values_digest(&back)));
        }
    }
    out
}

fn adapters() -> Vec<Box<dyn DeviceAdapter>> {
    vec![
        Box::new(SerialAdapter::new()),
        Box::new(CpuParallelAdapter::new(4)),
    ]
}

/// Digests written the way the constants above are, so a failure shows
/// which entries moved.
fn render(d: &[(u64, u64)]) -> String {
    d.iter()
        .map(|(a, b)| format!("({a:#018x}, {b:#018x}),"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn mgard_x_containers_and_outputs_match_golden() {
    for adapter in adapters() {
        let f32s = codec_digests::<f32>(&*adapter);
        assert!(f32s == GOLDEN_F32, "f32 digests:\n{}", render(&f32s));
        let f64s = codec_digests::<f64>(&*adapter);
        assert!(f64s == GOLDEN_F64, "f64 digests:\n{}", render(&f64s));
    }
}

#[test]
fn progressive_components_match_golden() {
    let (shape, data) = field::<f32>(&[19, 33, 65]);
    for adapter in adapters() {
        let r =
            refactor_progressive(&*adapter, &data, &shape, &ProgressiveConfig::default()).unwrap();
        let per_component: Vec<u8> = r
            .components
            .iter()
            .flat_map(|c| fnv1a(c).to_le_bytes())
            .collect();
        let got = (fnv1a(&r.manifest.to_bytes()), fnv1a(&per_component));
        assert!(
            got == GOLDEN_PROGRESSIVE,
            "progressive digests:\n{}",
            render(&[got])
        );
    }
}
