//! Byte-identity pins for the containers that no other golden covers:
//! the Huffman-X reducer container (HUFX), the lz4-like container, the
//! pipeline container and the BP index (`md.idx`). Each constant is the
//! FNV-1a digest of a container, or of the output decoded from it.
//!
//! The constants were recorded at commit 5402082, while every format
//! still wrote and parsed its own `dtype | rank | dims` array header.
//! They show that the shared header writes the same bytes; they are
//! never to be re-recorded to make a framing change pass.

use hpdr_baselines::Lz4Reducer;
use hpdr_core::{
    fnv1a, ArrayMeta, CpuParallelAdapter, DeviceAdapter, Float, Reducer, SerialAdapter, Shape,
};
use hpdr_huffman::ByteHuffmanReducer;
use hpdr_io::{BpReader, BpWriter};
use hpdr_mgard::{MgardConfig, MgardReducer};
use hpdr_pipeline::{compress_pipelined, decompress_pipelined, Container, PipelineOptions};
use hpdr_zfp::{ZfpConfig, ZfpReducer};
use std::sync::Arc;

/// 1-D, 3-D and 4-D fields. With 512-byte pipeline chunks each one
/// splits into two to five chunks, the last one short for the 3-D and
/// 4-D fields.
const SHAPES: [&[usize]; 3] = [&[256], &[19, 12, 10], &[6, 3, 10, 8]];
const CHUNK_BYTES: u64 = 512;

/// HUFX containers per dtype × shape (f32 shapes, then f64), on every
/// adapter.
const GOLDEN_HUFX: [u64; 6] = [
    0xcac5c33904dcb4c1,
    0xaca3b83bd7beced2,
    0xbbc47040dcbc84db,
    0xf9fa0ba23fdbb18d,
    0x8be22dc5d5c3bb78,
    0xd13f92edb8d424c8,
];
/// lz4-like containers, in the order of [`GOLDEN_HUFX`].
const GOLDEN_LZ4: [u64; 6] = [
    0xb1739a0b01cf3a99,
    0x21e8eba5499efc79,
    0xef4ea1b627bee55b,
    0x564a04859bc0426e,
    0xb35c69afcd30b087,
    0x73e91d1dadcd3b76,
];
/// `(container, restored field)` per reducer (MGARD-X, then ZFP-X) ×
/// dtype × shape, pipelined on every adapter.
const GOLDEN_PIPELINE: [(u64, u64); 12] = [
    (0xaf099a7848093c5a, 0xb213731508fc0ca6),
    (0x52c0670c2888fd72, 0x15c6293a39f15b22),
    (0xfe4398a92e3182ed, 0x4cf68bea15e1e1a1),
    (0xaad2a50ab0926cd5, 0xd5b1f875d1f4edfd),
    (0x0b97375c3448c50f, 0xd872ef53b88f9182),
    (0x6bd72fe84e674623, 0x567142974583015f),
    (0x4407ffd73c574cf0, 0x1dea4c1afa8155f1),
    (0xaea6a72836019969, 0xa2d5b5b7ac6d103f),
    (0x2c1db0760d55f286, 0x880beac4c9cace2d),
    (0x777ba191d56f9c1f, 0x3730b6edbcce026f),
    (0x758f11d4c6491477, 0xe07397d7a0f1cdc5),
    (0x848faba12b35ef7b, 0xfbb3861d82f6eed7),
];
/// The BP index of [`bp_index`]'s dataset.
const GOLDEN_BP_INDEX: u64 = 0x7157da3c3d625f12;

/// A rough field with signed zeros sprinkled in (the field of
/// `tests/codec_golden.rs`).
fn field<T: Float>(dims: &[usize]) -> (ArrayMeta, Vec<u8>) {
    let shape = Shape::new(dims);
    let data: Vec<T> = (0..shape.num_elements())
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
    (ArrayMeta::new(T::DTYPE, shape), T::slice_to_bytes(&data))
}

/// Every pinned field: the f32 shapes, then the f64 shapes.
fn fields() -> Vec<(ArrayMeta, Vec<u8>)> {
    let f32s = SHAPES.iter().map(|dims| field::<f32>(dims));
    f32s.chain(SHAPES.iter().map(|dims| field::<f64>(dims)))
        .collect()
}

fn adapters() -> Vec<Arc<dyn DeviceAdapter>> {
    vec![
        Arc::new(SerialAdapter::new()),
        Arc::new(CpuParallelAdapter::new(2)),
    ]
}

/// Container digests of a lossless reducer, each checked to decode to
/// its input.
fn lossless_digests(adapter: &dyn DeviceAdapter, reducer: &dyn Reducer) -> Vec<u64> {
    let mut out = Vec::new();
    for (meta, bytes) in fields() {
        let c = reducer.compress(adapter, &bytes, &meta).unwrap();
        let (back, m) = reducer.decompress(adapter, &c).unwrap();
        assert_eq!((back, m), (bytes, meta));
        out.push(fnv1a(&c));
    }
    out
}

fn pipeline_digests(adapter: &Arc<dyn DeviceAdapter>) -> Vec<(u64, u64)> {
    let reducers: [Arc<dyn Reducer>; 2] = [
        Arc::new(MgardReducer(MgardConfig::relative(1e-3))),
        Arc::new(ZfpReducer(ZfpConfig::fixed_rate(16))),
    ];
    let spec = hpdr_sim::spec::v100();
    let opts = PipelineOptions::fixed(CHUNK_BYTES);
    let mut out = Vec::new();
    for reducer in reducers {
        for (meta, bytes) in fields() {
            let (c, _) = compress_pipelined(
                &spec,
                Arc::clone(adapter),
                Arc::clone(&reducer),
                Arc::new(bytes),
                &meta,
                &opts,
            )
            .unwrap();
            assert!(c.chunks.len() >= 2, "{meta:?} in one chunk");
            let serialized = c.to_bytes();
            assert_eq!(Container::from_bytes(&serialized).unwrap(), c);
            let (back, m, _) =
                decompress_pipelined(&spec, Arc::clone(adapter), Arc::clone(&reducer), &c, &opts)
                    .unwrap();
            assert_eq!(m, meta);
            out.push((fnv1a(&serialized), fnv1a(&back)));
        }
    }
    out
}

/// Writes a two-step dataset holding every pinned field, in a directory
/// no other test uses, and returns its index.
fn bp_index() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("hpdr-container-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fields = fields();
    let mut w = BpWriter::create(&dir, 2).unwrap();
    for (step, codec) in ["raw", "zfp-x"].into_iter().enumerate() {
        w.begin_step();
        for (k, (meta, bytes)) in fields.iter().enumerate() {
            let var = format!("v{}", k % 4);
            w.put(&var, meta, &bytes[..bytes.len() >> step], codec)
                .unwrap();
        }
        w.end_step().unwrap();
    }
    w.close().unwrap();
    let idx = std::fs::read(dir.join("md.idx")).unwrap();
    let r = BpReader::open(&dir).unwrap();
    let mut metas = Vec::new();
    for step in 0..r.num_steps() {
        for var in r.variables(step) {
            for b in r.blocks(step, var).unwrap() {
                assert_eq!(r.read_block(b).unwrap().len() as u64, b.len);
                metas.push(b.meta.clone());
            }
        }
    }
    assert_eq!(metas.len(), 2 * fields.len());
    assert!(fields.iter().all(|(m, _)| metas.contains(m)));
    std::fs::remove_dir_all(&dir).unwrap();
    idx
}

/// Digests written the way the constants above are, so a failure shows
/// which entries moved.
fn render(d: &[u64]) -> String {
    d.iter()
        .map(|a| format!("{a:#018x},"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn huffman_x_reducer_containers_match_golden() {
    for adapter in adapters() {
        let got = lossless_digests(&*adapter, &ByteHuffmanReducer::default());
        assert!(got == GOLDEN_HUFX, "HUFX digests:\n{}", render(&got));
    }
}

#[test]
fn lz4_like_containers_match_golden() {
    for adapter in adapters() {
        let got = lossless_digests(&*adapter, &Lz4Reducer);
        assert!(got == GOLDEN_LZ4, "lz4-like digests:\n{}", render(&got));
    }
}

#[test]
fn pipeline_containers_and_outputs_match_golden() {
    for adapter in adapters() {
        let got = pipeline_digests(&adapter);
        let flat: Vec<u64> = got.iter().flat_map(|&(a, b)| [a, b]).collect();
        assert!(
            got == GOLDEN_PIPELINE,
            "pipeline digests, container then output:\n{}",
            render(&flat)
        );
    }
}

#[test]
fn bp_index_matches_golden() {
    let got = fnv1a(&bp_index());
    assert!(got == GOLDEN_BP_INDEX, "BP index digest: {got:#018x}");
}
