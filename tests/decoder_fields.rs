//! Structure-aware field sweep over decoder inputs: the Huffman-X stream,
//! the Huffman-X and lz4-like reducer headers, the MGARD-X, cuSZ-like
//! and ZFP-X containers, the progressive (HPMF) manifest, the pipeline
//! container and the BP index.
//!
//! Every count, length, offset and dim field of a valid input is set in
//! turn to 0, 1, max − 1, max, 2^32, 2^40 and `u64::MAX` (the values its
//! width holds), and offsets also to the payload's bit count ± 1. Each
//! case must return `Err` or the reference output (the bit-at-a-time
//! decode for Huffman-X streams, a plain read of the format for the BP
//! index, the decode of the unchanged container for the lossy codecs,
//! a reconstruction within the requested tolerance for the manifest,
//! the original bytes otherwise), with no panic and no abort. A
//! counting global allocator checks that no single allocation exceeds
//! max(1 MiB, 64 × input bytes). The eight inputs that aborted or
//! panicked before decoders bounded their sizes are named cases at the
//! end.

// The counting allocator is the one `unsafe` item: it forwards every call
// to the system allocator unchanged.
#![allow(unsafe_code)]

use hpdr_baselines::{Lz4Reducer, SzConfig, SzReducer};
use hpdr_core::{
    ArrayMeta, ByteReader, CpuParallelAdapter, DType, DeviceAdapter, Reducer, SerialAdapter, Shape,
};
use hpdr_huffman::{ByteHuffmanReducer, Codebook, HuffmanConfig};
use hpdr_io::{BlockInfo, BpReader, BpWriter};
use hpdr_kernels::BitReader;
use hpdr_mgard::{MgardConfig, MgardReducer};
use hpdr_pipeline::{compress_pipelined, decompress_pipelined, Container, PipelineOptions};
use hpdr_progressive::{refactor_progressive, Manifest, ProgressiveConfig, Refactoring};
use hpdr_zfp::{ZfpConfig, ZfpReducer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Records the largest single allocation request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments;
// the only addition is a relaxed atomic max, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Sweeps run one at a time, so the largest allocation is their own.
static SERIAL: Mutex<()> = Mutex::new(());

/// A header field: its byte offset, its width in bytes, and whether it
/// is a bit offset into the payload.
#[derive(Debug, Clone, Copy)]
struct Field {
    at: usize,
    width: usize,
    bit_offset: bool,
}

fn field(at: usize, width: usize) -> Field {
    Field {
        at,
        width,
        bit_offset: false,
    }
}

/// The boundary values a field of `width` bytes can hold.
fn boundary_values(f: Field, payload_bits: u64) -> Vec<u64> {
    let max = if f.width == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * f.width)) - 1
    };
    let mut values = vec![0, 1, max - 1, max, 1 << 32, 1 << 40, u64::MAX];
    if f.bit_offset {
        values.extend([payload_bits - 1, payload_bits + 1]);
    }
    values.retain(|&v| v <= max);
    values.sort_unstable();
    values.dedup();
    values
}

fn set_field(bytes: &[u8], f: Field, value: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[f.at..f.at + f.width].copy_from_slice(&value.to_le_bytes()[..f.width]);
    out
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// The allocation bound for an input of `len` bytes.
fn allocation_limit(len: usize) -> usize {
    (1 << 20).max(64 * len)
}

/// A decode's verdict: `Ok(true)` when it decoded to the reference,
/// `Ok(false)` when it returned `Err`, `Err` when it decoded to anything
/// else.
type Verdict = Result<bool, String>;

/// Run `decode` on `input` under the allocation counter: it must not
/// panic, must not decode to anything but the reference, and no single
/// allocation may exceed the bound. Returns whether it decoded.
fn run_case(label: &str, input: &[u8], decode: &dyn Fn(&[u8]) -> Verdict) -> Verdict {
    LARGEST.store(0, Ordering::Relaxed);
    let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(input)))
        .map_err(|_| format!("{label}: decoder panicked"))?;
    let decoded = verdict.map_err(|e| format!("{label}: {e}"))?;
    let largest = LARGEST.load(Ordering::Relaxed);
    let limit = allocation_limit(input.len());
    if largest > limit {
        return Err(format!(
            "{label}: allocated {largest} bytes at once from a {}-byte input (limit {limit})",
            input.len()
        ));
    }
    Ok(decoded)
}

/// Set every field of `valid` to each of its boundary values and run
/// `decode` on the result.
fn sweep(
    name: &str,
    valid: &[u8],
    fields: &[Field],
    payload_bits: u64,
    decode: &dyn Fn(&[u8]) -> Verdict,
) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let decoded = run_case(&format!("{name} unchanged"), valid, decode).unwrap();
    assert!(decoded, "{name}: the valid input must decode");
    let mut failures = Vec::new();
    for &f in fields {
        for v in boundary_values(f, payload_bits) {
            let input = set_field(valid, f, v);
            let label = format!("{name} field at byte {} set to {v}", f.at);
            if let Err(e) = run_case(&label, &input, decode) {
                failures.push(e);
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The verdict on `got`: `Ok(out)` must equal the reference.
fn verdict<T: PartialEq + std::fmt::Debug>(
    got: hpdr_core::Result<T>,
    reference: impl FnOnce() -> Option<T>,
) -> Verdict {
    match got {
        Err(_) => Ok(false),
        Ok(out) => match reference() {
            Some(want) if want == out => Ok(true),
            want => Err(format!("decoded {out:?}, reference {want:?}")),
        },
    }
}

const HUFFMAN_MAGIC: u32 = 0x4855_4631;

/// Bit-at-a-time reference decode of a Huffman-X stream, written from
/// the format alone: codewords are read MSB-first, one bit at a time,
/// until they match a `(length, canonical value)` of [`Codebook::codes`];
/// `None` where it cannot decode.
fn huffman_reference(bytes: &[u8]) -> Option<Vec<u32>> {
    let mut r = ByteReader::new(bytes);
    (r.get_u32().ok()? == HUFFMAN_MAGIC).then_some(())?;
    let dict = r.get_u32().ok()?;
    let n = r.get_u64().ok()?;
    let chunk = r.get_u64().ok()?;
    let total_bits = r.get_u64().ok()?;
    let num_pairs = r.get_count_u32(5).ok()?;
    let pairs = (0..num_pairs)
        .map(|_| Some((r.get_u32().ok()?, u32::from(r.get_u8().ok()?))))
        .collect::<Option<Vec<_>>>()?;
    let book = Codebook::from_lengths(dict, &pairs).ok()?;
    let symbols: HashMap<(u32, u64), u32> = book
        .codes()
        .map(|(sym, c)| ((c.len, c.bits_rev.reverse_bits() >> (64 - c.len)), sym))
        .collect();
    let num_chunks = r.get_count_u32(8).ok()?;
    let offsets = (0..num_chunks)
        .map(|_| r.get_u64().ok())
        .collect::<Option<Vec<_>>>()?;
    let payload = r.get_block().ok()?;
    let mut out = Vec::new();
    for (c, &start) in offsets.iter().enumerate() {
        let lo = (c as u64).checked_mul(chunk)?;
        let hi = lo.saturating_add(chunk).min(n);
        let mut br = BitReader::with_bit_limit(payload, total_bits).ok()?;
        br.seek(start).ok()?;
        for _ in lo..hi {
            let (mut len, mut code) = (0, 0u64);
            let sym = loop {
                if len == book.max_len() {
                    return None;
                }
                code = code << 1 | u64::from(br.read_bit().ok()?);
                len += 1;
                if let Some(&sym) = symbols.get(&(len, code)) {
                    break sym;
                }
            };
            out.push(sym);
        }
    }
    (out.len() as u64 == n).then_some(out)
}

/// The Huffman-X stream's count, length and offset fields, and its
/// payload's bit count.
fn huffman_fields(stream: &[u8]) -> (Vec<Field>, u64) {
    let mut fields = vec![field(4, 4), field(8, 8), field(16, 8)];
    fields.push(Field {
        at: 24,
        width: 8,
        bit_offset: true,
    });
    fields.push(field(32, 4));
    let pairs = u32_at(stream, 32);
    // Each pair's code length (its symbol is neither a count nor a size).
    fields.extend((0..pairs).map(|p| field(36 + 5 * p + 4, 1)));
    let table = 36 + 5 * pairs;
    fields.push(field(table, 4));
    let chunks = u32_at(stream, table);
    fields.extend((0..chunks).map(|c| Field {
        at: table + 4 + 8 * c,
        width: 8,
        bit_offset: true,
    }));
    let block = table + 4 + 8 * chunks;
    fields.push(field(block, 8));
    let payload_bits = (stream.len() - block - 8) as u64 * 8;
    (fields, payload_bits)
}

/// Keys whose Huffman-X stream spans `chunks` chunks of `chunk` keys.
fn huffman_stream(chunk: usize, chunks: usize) -> Vec<u8> {
    let keys: Vec<u32> = (0..chunk * chunks - chunk / 2)
        .map(|i| ((i * i + 3 * i) % 13) as u32)
        .collect();
    let cfg = HuffmanConfig {
        dict_size: 16,
        chunk_elems: chunk,
    };
    hpdr_huffman::compress_u32(&SerialAdapter::new(), &keys, &cfg).unwrap()
}

#[test]
fn huffman_stream_fields_decode_to_err_or_the_reference() {
    let serial = SerialAdapter::new();
    let two = CpuParallelAdapter::new(2);
    // One chunk, and three (a two-lane pair plus a lone lane).
    for stream in [huffman_stream(400, 1), huffman_stream(100, 3)] {
        let (fields, payload_bits) = huffman_fields(&stream);
        let decode = |input: &[u8]| {
            let serial = verdict(hpdr_huffman::decompress_u32(&serial, input), || {
                huffman_reference(input)
            })?;
            let two = verdict(hpdr_huffman::decompress_u32(&two, input), || {
                huffman_reference(input)
            })?;
            Ok(serial && two)
        };
        sweep("huffman-x stream", &stream, &fields, payload_bits, &decode);
    }
}

/// A small f32 field's raw bytes and metadata.
fn small_field(dims: &[usize]) -> (Vec<u8>, ArrayMeta) {
    let meta = ArrayMeta::new(DType::F32, Shape::new(dims));
    let bytes = (0..meta.shape.num_elements())
        .flat_map(|i| ((i as f32 * 0.37).sin() * 10.0).to_le_bytes())
        .collect();
    (bytes, meta)
}

/// The rank byte, the dims and everything after them that is a `u64`
/// size, in a reducer header `magic u32, dtype u8, rank u8, dims u64…`.
fn reducer_header_fields(rank: usize, sizes_after_dims: usize) -> Vec<Field> {
    let mut fields = vec![field(5, 1)];
    fields.extend((0..rank + sizes_after_dims).map(|k| field(6 + 8 * k, 8)));
    fields
}

#[test]
fn huffman_reducer_header_fields_decode_to_err_or_the_input() {
    let (bytes, meta) = small_field(&[6, 20]);
    let reducer = ByteHuffmanReducer::default();
    let a = SerialAdapter::new();
    let container = reducer.compress(&a, &bytes, &meta).unwrap();
    // Header: dims, then the embedded stream's block length.
    let fields = reducer_header_fields(2, 1);
    let decode = |input: &[u8]| {
        verdict(reducer.decompress(&a, input), || {
            Some((bytes.clone(), meta.clone()))
        })
    };
    sweep("huffman-x reducer", &container, &fields, 0, &decode);
}

#[test]
fn lz4_reducer_header_fields_decode_to_err_or_the_input() {
    let (bytes, meta) = small_field(&[6, 20]);
    let a = SerialAdapter::new();
    let container = Lz4Reducer.compress(&a, &bytes, &meta).unwrap();
    // Header: dims, the raw length, then the payload's block length.
    let fields = reducer_header_fields(2, 2);
    let decode = |input: &[u8]| {
        verdict(Lz4Reducer.decompress(&a, input), || {
            Some((bytes.clone(), meta.clone()))
        })
    };
    sweep("lz4-like reducer", &container, &fields, 0, &decode);
}

/// A 16³ NYX density field's raw f32 bytes and metadata.
fn nyx16() -> (Vec<u8>, ArrayMeta) {
    let d = hpdr_data::nyx_density(16, 7);
    let meta = ArrayMeta::new(DType::F32, d.shape.clone());
    (d.bytes, meta)
}

/// The rank byte at `rank_at` and the dims after it; returns the fields
/// and the offset past the dims.
fn rank_and_dims(c: &[u8], rank_at: usize) -> (Vec<Field>, usize) {
    let rank = c[rank_at] as usize;
    let mut fields = vec![field(rank_at, 1)];
    fields.extend((0..rank).map(|d| field(rank_at + 1 + 8 * d, 8)));
    (fields, rank_at + 1 + 8 * rank)
}

/// The quantizer tail MGARD-X and cuSZ-like share, from `at`: the
/// dictionary size, the outlier count, the first outliers' indices and
/// the Huffman-X stream's block length.
fn quantizer_fields(c: &[u8], at: usize) -> Vec<Field> {
    let outliers = u64_at(c, at + 4);
    let mut fields = vec![field(at, 4), field(at + 4, 8)];
    fields.extend((0..outliers.min(4)).map(|k| field(at + 12 + 16 * k, 8)));
    fields.push(field(at + 12 + 16 * outliers, 8));
    fields
}

/// Run `reducer` over its own container's `fields` on a serial and a
/// 2-thread adapter; the reference is the unchanged container's decode.
fn sweep_reducer(name: &str, reducer: &dyn Reducer, container: &[u8], fields: &[Field]) {
    let serial = SerialAdapter::new();
    let two = CpuParallelAdapter::new(2);
    let reference = reducer.decompress(&serial, container).unwrap();
    // Outputs are too long to print: report only that one differed.
    let check = |got: hpdr_core::Result<(Vec<u8>, ArrayMeta)>| match got {
        Err(_) => Ok(false),
        Ok(out) if out == reference => Ok(true),
        Ok((_, meta)) => Err(format!("decoded a {meta:?} that is not the reference")),
    };
    let decode = |input: &[u8]| {
        let serial = check(reducer.decompress(&serial, input))?;
        let two = check(reducer.decompress(&two, input))?;
        Ok(serial && two)
    };
    sweep(name, container, fields, 0, &decode);
}

#[test]
fn mgard_x_container_fields_decode_to_err_or_the_reference() {
    let (bytes, meta) = nyx16();
    // A small dictionary, so the container carries outliers to sweep.
    let reducer = MgardReducer(MgardConfig {
        dict_size: 64,
        ..MgardConfig::relative(1e-4)
    });
    let container = reducer
        .compress(&SerialAdapter::new(), &bytes, &meta)
        .unwrap();
    // frame (5 bytes), dtype, rank, dims, abs_eb, levels, then the
    // quantizer tail.
    let (mut fields, at) = rank_and_dims(&container, 6);
    fields.push(field(at + 8, 1));
    fields.extend(quantizer_fields(&container, at + 9));
    assert!(u64_at(&container, at + 13) >= 4, "outliers to sweep");
    sweep_reducer("mgard-x container", &reducer, &container, &fields);
}

#[test]
fn cusz_like_container_fields_decode_to_err_or_the_reference() {
    let (bytes, meta) = nyx16();
    let reducer = SzReducer(SzConfig {
        dict_size: 64,
        ..SzConfig::relative(1e-4)
    });
    let container = reducer
        .compress(&SerialAdapter::new(), &bytes, &meta)
        .unwrap();
    // magic, dtype, rank, dims, abs_eb, then the quantizer tail.
    let (mut fields, at) = rank_and_dims(&container, 5);
    fields.extend(quantizer_fields(&container, at + 8));
    assert!(u64_at(&container, at + 12) >= 4, "outliers to sweep");
    sweep_reducer("cusz-like container", &reducer, &container, &fields);
}

#[test]
fn zfp_x_container_fields_decode_to_err_or_the_reference() {
    let (bytes, meta) = nyx16();
    for cfg in [
        ZfpConfig::fixed_rate(12),
        ZfpConfig::fixed_accuracy(1e-2),
        ZfpConfig::fixed_precision(20),
    ] {
        let reducer = ZfpReducer(cfg);
        let container = reducer
            .compress(&SerialAdapter::new(), &bytes, &meta)
            .unwrap();
        // magic, version, dtype, rank, dims, then the mode byte and its
        // parameters.
        let (mut fields, mode_at) = rank_and_dims(&container, 6);
        fields.push(field(mode_at, 1));
        let blocks_at = match container[mode_at] {
            0 => {
                // rate, block count, block size, payload block length.
                fields.extend([field(mode_at + 1, 4), field(mode_at + 13, 4)]);
                fields.push(field(mode_at + 17, 8));
                mode_at + 5
            }
            mode => {
                // Fixed accuracy carries an f64 tolerance, fixed precision
                // a u32 plane count; then the block count, one u32 size
                // per block and the payload block length.
                let blocks_at = if mode == 1 {
                    mode_at + 9
                } else {
                    fields.push(field(mode_at + 1, 4));
                    mode_at + 5
                };
                let blocks = u64_at(&container, blocks_at);
                fields.extend((0..blocks).map(|b| field(blocks_at + 8 + 4 * b, 4)));
                fields.push(field(blocks_at + 8 + 4 * blocks, 8));
                blocks_at
            }
        };
        fields.push(field(blocks_at, 8));
        sweep_reducer(
            &format!("zfp-x container, {:?}", cfg.mode),
            &reducer,
            &container,
            &fields,
        );
    }
}

/// The 16³ NYX field's values and its progressive refactoring, whose
/// manifest is 598 bytes.
fn nyx16_refactoring() -> (Vec<f32>, Refactoring) {
    let d = hpdr_data::nyx_density(16, 7);
    let values = d.as_f32();
    let r = refactor_progressive(
        &SerialAdapter::new(),
        &values,
        &d.shape,
        &ProgressiveConfig::default(),
    )
    .unwrap();
    assert_eq!(r.manifest.to_bytes().len(), 598);
    (values, r)
}

/// Parse `manifest` and retrieve with the original components at each
/// of `tolerances` (absolute): `Ok(true)` when every retrieval met its
/// tolerance, `Ok(false)` when the parse or a retrieval returned `Err`,
/// `Err` when a reconstruction missed its tolerance.
fn manifest_retrievals(
    manifest: &[u8],
    original: &Refactoring,
    values: &[f32],
    tolerances: &[f64],
) -> Verdict {
    let Ok(manifest) = Manifest::from_bytes(manifest) else {
        return Ok(false);
    };
    let forged = Refactoring {
        manifest,
        components: original.components.clone(),
    };
    let a = SerialAdapter::new();
    let mut all = true;
    for &tol in tolerances {
        let Ok(got) = forged.retrieve::<f32>(&a, tol) else {
            all = false;
            continue;
        };
        let err = values
            .iter()
            .zip(&got.data)
            .map(|(v, g)| f64::from((v - g).abs()))
            .fold(0.0, f64::max);
        if got.data.len() != values.len() || err > tol {
            return Err(format!(
                "tolerance {tol:e}: {} values, max error {err:e}",
                got.data.len()
            ));
        }
    }
    Ok(all)
}

#[test]
fn progressive_manifest_fields_decode_to_err_or_within_tolerance() {
    let (values, r) = nyx16_refactoring();
    let valid = r.manifest.to_bytes();
    let tolerances = [1e-1, 1e-3, 1e-5].map(|t| t * r.manifest.range);
    // frame (5 bytes), dtype, rank, dims, abs_eb, range, plane bits,
    // level count, planes per level, component count, then per
    // component its level, plane, size and error contribution.
    let (mut fields, at) = rank_and_dims(&valid, 6);
    let at = at + 16;
    fields.extend([field(at, 1), field(at + 1, 1)]);
    let levels = valid[at + 1] as usize;
    fields.extend((0..levels).map(|l| field(at + 2 + l, 1)));
    let count_at = at + 2 + levels;
    fields.push(field(count_at, 4));
    for k in 0..u32_at(&valid, count_at) {
        let c = count_at + 4 + 18 * k;
        fields.extend([field(c, 1), field(c + 1, 1), field(c + 2, 8)]);
    }
    let decode = |input: &[u8]| manifest_retrievals(input, &r, &values, &tolerances);
    sweep("progressive manifest", &valid, &fields, 0, &decode);
}

/// Parse and reconstruct a pipeline container with `reducer`.
fn pipeline_decode(reducer: Arc<dyn Reducer>, input: &[u8]) -> hpdr_core::Result<Vec<u8>> {
    let container = Container::from_bytes(input)?;
    let work: Arc<dyn DeviceAdapter> = Arc::new(CpuParallelAdapter::new(2));
    let spec = hpdr_sim::spec::v100();
    let (out, _, _) = decompress_pipelined(
        &spec,
        work,
        reducer,
        &container,
        &PipelineOptions::default(),
    )?;
    Ok(out)
}

#[test]
fn pipeline_container_fields_decode_to_err_or_the_input() {
    let (bytes, meta) = small_field(&[12, 16]);
    let reducer: Arc<dyn Reducer> = Arc::new(ByteHuffmanReducer::default());
    let work: Arc<dyn DeviceAdapter> = Arc::new(SerialAdapter::new());
    let (container, _) = compress_pipelined(
        &hpdr_sim::spec::v100(),
        work,
        Arc::clone(&reducer),
        Arc::new(bytes.clone()),
        &meta,
        &PipelineOptions::fixed(256),
    )
    .unwrap();
    assert_eq!(container.chunks.len(), 3);
    let valid = container.to_bytes();
    // magic, name length and name, dtype, rank, dims, chunk count, then
    // per chunk its rows and its stream's block length.
    let name_end = 8 + container.reducer.len();
    let mut fields = vec![field(4, 4), field(name_end + 1, 1)];
    fields.extend((0..2).map(|d| field(name_end + 2 + 8 * d, 8)));
    let mut at = name_end + 18;
    fields.push(field(at, 4));
    at += 4;
    for (_, stream) in &container.chunks {
        fields.extend([field(at, 8), field(at + 8, 8)]);
        at += 16 + stream.len();
    }
    let decode = |input: &[u8]| {
        verdict(pipeline_decode(Arc::clone(&reducer), input), || {
            Some(bytes.clone())
        })
    };
    sweep("pipeline container", &valid, &fields, 0, &decode);
}

/// Every block of a BP dataset, with its step and variable.
type BpBlocks = Vec<(usize, String, BlockInfo, Vec<u8>)>;

/// A temp dir holding a small BP dataset: two steps, four blocks over
/// two subfiles. Removed on drop.
struct BpDataset(PathBuf);

impl BpDataset {
    fn new(name: &str) -> BpDataset {
        let dir = std::env::temp_dir().join(format!("hpdr-bp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = |dims: &[usize]| ArrayMeta::new(DType::F32, Shape::new(dims));
        let mut w = BpWriter::create(&dir, 2).unwrap();
        w.begin_step();
        w.put("density", &meta(&[4]), &[1; 16], "zfp-x").unwrap();
        w.put("density", &meta(&[2, 3]), &[2; 24], "zfp-x").unwrap();
        w.put("t", &meta(&[2]), &[3; 8], "raw").unwrap();
        w.end_step().unwrap();
        w.begin_step();
        w.put("density", &meta(&[4]), &[4; 16], "mgard-x").unwrap();
        w.close().unwrap();
        BpDataset(dir)
    }

    fn index(&self) -> Vec<u8> {
        std::fs::read(self.0.join("md.idx")).unwrap()
    }
}

impl Drop for BpDataset {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every block of the dataset in `dir`, through `BpReader`.
fn bp_read(dir: &Path) -> hpdr_core::Result<BpBlocks> {
    let r = BpReader::open(dir)?;
    let mut out = Vec::new();
    for step in 0..r.num_steps() {
        for var in r.variables(step) {
            for b in r.blocks(step, var)? {
                out.push((step, var.to_string(), b.clone(), r.read_block(b)?));
            }
        }
    }
    Ok(out)
}

/// Reference read of a BP dataset, written from the format alone: plain
/// reads with nothing reserved ahead, each block sliced out of its whole
/// subfile; `None` where it cannot read.
fn bp_reference(dir: &Path, idx: &[u8]) -> Option<BpBlocks> {
    let mut r = ByteReader::new(idx);
    (r.get_u32().ok()? == 0x4250_3500 && r.get_u8().ok()? == 1).then_some(())?;
    r.get_u32().ok()?; // subfile count
    let mut steps = Vec::new();
    for _ in 0..r.get_u32().ok()? {
        let mut vars = Vec::new();
        for _ in 0..r.get_u32().ok()? {
            let name = r.get_str().ok()?;
            let mut blocks = Vec::new();
            for _ in 0..r.get_u32().ok()? {
                let (writer, subfile) = (r.get_u32().ok()?, r.get_u32().ok()?);
                let (offset, len) = (r.get_u64().ok()?, r.get_u64().ok()?);
                let codec = r.get_str().ok()?;
                let dtype = DType::from_tag(r.get_u8().ok()?)?;
                let dims = (0..r.get_u8().ok()?)
                    .map(|_| r.get_u64().ok().map(|d| d as usize))
                    .collect::<Option<Vec<_>>>()?;
                let meta = ArrayMeta::new(dtype, Shape::try_new(&dims).ok()?);
                blocks.push(BlockInfo {
                    writer,
                    subfile,
                    offset,
                    len,
                    codec,
                    meta,
                });
            }
            vars.push((name, blocks));
        }
        steps.push(vars);
    }
    r.expect_exhausted().ok()?;
    let mut out = Vec::new();
    for (step, vars) in steps.iter().enumerate() {
        for (name, _) in vars {
            // A step's variables are looked up by name: the first wins.
            let (_, blocks) = vars.iter().find(|(n, _)| n == name)?;
            for b in blocks {
                let file = std::fs::read(dir.join(format!("data.{}", b.subfile))).ok()?;
                let at = usize::try_from(b.offset).ok()?;
                let end = at.checked_add(usize::try_from(b.len).ok()?)?;
                out.push((step, name.clone(), b.clone(), file.get(at..end)?.to_vec()));
            }
        }
    }
    Some(out)
}

/// The BP index's count, length, subfile, offset, rank and dim fields.
fn bp_fields(idx: &[u8]) -> Vec<Field> {
    let u32_at = |at: usize| u32_at(idx, at);
    // After the 5-byte frame: the subfile count and the step count.
    let mut fields = vec![field(5, 4), field(9, 4)];
    let mut at = 13;
    for _ in 0..u32_at(9) {
        fields.push(field(at, 4));
        let vars = u32_at(at);
        at += 4;
        for _ in 0..vars {
            fields.push(field(at, 4));
            at += 4 + u32_at(at);
            fields.push(field(at, 4));
            let blocks = u32_at(at);
            at += 4;
            for _ in 0..blocks {
                // The writer rank is an id, not a size; then subfile,
                // offset, length and the codec name's length.
                fields.extend([field(at + 4, 4), field(at + 8, 8), field(at + 16, 8)]);
                fields.push(field(at + 24, 4));
                at += 28 + u32_at(at + 24);
                // The dtype tag, then the rank and the dims.
                fields.push(field(at + 1, 1));
                let rank = idx[at + 1] as usize;
                fields.extend((0..rank).map(|d| field(at + 2 + 8 * d, 8)));
                at += 2 + 8 * rank;
            }
        }
    }
    assert_eq!(at, idx.len(), "walked the whole index");
    fields
}

#[test]
fn bp_index_fields_decode_to_err_or_the_reference() {
    let data = BpDataset::new("sweep");
    let valid = data.index();
    assert_eq!(bp_read(&data.0).unwrap().len(), 4);
    let decode = |input: &[u8]| {
        std::fs::write(data.0.join("md.idx"), input).unwrap();
        verdict(bp_read(&data.0), || bp_reference(&data.0, input))
    };
    sweep("bp index", &valid, &bp_fields(&valid), 0, &decode);
}

/// The named inputs: each aborted the process or panicked in a debug
/// build before the decoders bounded what they read.
#[test]
fn crafted_inputs_are_rejected_without_a_large_allocation() {
    let a = SerialAdapter::new();
    let expect_err = |label: &str, input: &[u8], decode: &dyn Fn(&[u8]) -> bool| {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let decoded = run_case(label, input, &|i| Ok(decode(i))).unwrap();
        assert!(!decoded, "{label}: must be rejected");
    };

    // 1. A Huffman-X stream with its dictionary set to u32::MAX: the old
    //    decoder allocated a code per dictionary entry (64 GiB). The
    //    stream stays valid — every coded symbol lies in the dictionary —
    //    so it decodes to its keys, from tables sized by the coded pairs.
    let keys: Vec<u32> = (0..100u32).map(|i| i % 7).collect();
    let mut stream = hpdr_huffman::compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
    stream[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let decoded = run_case("dict_size u32::MAX", &stream, &|i| {
            verdict(hpdr_huffman::decompress_u32(&a, i), || Some(keys.clone()))
        })
        .unwrap();
        assert!(decoded);
    }

    // 2. A 27-byte pipeline container that declares u32::MAX chunks.
    let mut w = hpdr_core::ByteWriter::new();
    w.put_u32(0x4850_4331);
    w.put_str("zfp-x");
    w.put_u8(DType::F32.tag());
    w.put_u8(1);
    w.put_u64(4);
    w.put_u32(u32::MAX);
    let many_chunks = w.into_vec();
    assert_eq!(many_chunks.len(), 27);
    expect_err("u32::MAX chunks", &many_chunks, &|i| {
        Container::from_bytes(i).is_ok()
    });

    // 3. Chunk rows (usize::MAX, 5) over a leading dim of 4: their sum
    //    overflows (a panic in debug builds, accepted in release).
    let overflow = Container {
        reducer: "zfp-x".into(),
        meta: ArrayMeta::new(DType::F32, Shape::new(&[4])),
        chunks: vec![(usize::MAX, vec![]), (5, vec![])],
    }
    .to_bytes();
    expect_err("rows overflow", &overflow, &|i| {
        Container::from_bytes(i).is_ok()
    });

    // 4. A container claiming 2^40 f32 rows around a valid 16-element
    //    ZFP-X stream: the old runner sized its outputs from the header.
    let zfp = ZfpReducer(ZfpConfig::fixed_rate(8));
    let (field16, meta16) = small_field(&[16]);
    let chunk = zfp.compress(&a, &field16, &meta16).unwrap();
    let rows = 1usize << 40;
    let claims = Container {
        reducer: "zfp-x".into(),
        meta: ArrayMeta::new(DType::F32, Shape::new(&[rows])),
        chunks: vec![(rows, chunk)],
    }
    .to_bytes();
    expect_err("2^40 claimed rows", &claims, &|i| {
        pipeline_decode(Arc::new(zfp), i).is_ok()
    });

    // 5. A Huffman-X reducer container with dims [2^61] of f64: the byte
    //    size overflows (a panic in debug builds).
    let (small, small_meta) = small_field(&[4]);
    let mut huge = ByteHuffmanReducer::default()
        .compress(&a, &small, &small_meta)
        .unwrap();
    huge[4] = DType::F64.tag();
    huge[6..14].copy_from_slice(&(1u64 << 61).to_le_bytes());
    expect_err("2^61 f64 dims", &huge, &|i| {
        ByteHuffmanReducer::default().decompress(&a, i).is_ok()
    });

    // 6. A 39-byte lz4-like container with dims 2^40 f32 and a raw length
    //    of 2^42: the old decoder reserved the raw length up front.
    let zeros = ArrayMeta::new(DType::F32, Shape::new(&[4]));
    let mut lz = Lz4Reducer.compress(&a, &[0u8; 16], &zeros).unwrap();
    assert_eq!(lz.len(), 39);
    lz[6..14].copy_from_slice(&(1u64 << 40).to_le_bytes());
    lz[14..22].copy_from_slice(&(1u64 << 42).to_le_bytes());
    expect_err("2^42 raw bytes", &lz, &|i| {
        Lz4Reducer.decompress(&a, i).is_ok()
    });

    // 7. A 13-byte BP index: the frame, one subfile and u32::MAX steps.
    //    The old reader reserved 24 bytes per claimed step (96 GiB).
    let data = BpDataset::new("crafted");
    let mut idx = data.index()[..5].to_vec();
    idx.extend(1u32.to_le_bytes());
    idx.extend(u32::MAX.to_le_bytes());
    assert_eq!(idx.len(), 13);
    expect_err("u32::MAX steps", &idx, &|i| {
        std::fs::write(data.0.join("md.idx"), i).unwrap();
        BpReader::open(&data.0).is_ok()
    });

    // 8. The 598-byte manifest of 16³ NYX with dims [2^32, 16, 16]: it
    //    parsed, and the retrieval then built a hierarchy of 2^40 nodes
    //    (a 32 GiB allocation that aborted the process).
    let (values, r) = nyx16_refactoring();
    let mut huge_dims = r.manifest.to_bytes();
    huge_dims[7..15].copy_from_slice(&(1u64 << 32).to_le_bytes());
    let tol = [1e-1 * r.manifest.range];
    expect_err("dims [2^32, 16, 16] manifest", &huge_dims, &|i| {
        manifest_retrievals(i, &r, &values, &tol) == Ok(true)
    });
}
