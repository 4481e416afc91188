//! The field workloads: seeded scientific fields round-tripped through
//! `hpdr_pipeline::compress_pipelined` / `decompress_pipelined` on the
//! scaled V100 of `bench::Scale::large()` with its adaptive (Algorithm 4)
//! chunking, so every field splits into several chunks and the Fig. 9
//! transfer/compute overlap runs.

use crate::check::{self, Extent};
use crate::env::Stopwatch;
use crate::report::{Clock, Metric, Tally};
use crate::spans::Tracer;
use crate::stats::{summarize, tail, Summary};
use crate::Size;
use bench::Scale;
use hpdr_core::{ArrayMeta, CpuParallelAdapter, DType, DeviceAdapter, Shape};
use hpdr_pipeline::{compress_pipelined, decompress_pipelined, Container, PipelineOptions};
use hpdr_serve::ServeCodec;
use hpdr_sim::DeviceSpec;
use std::sync::Arc;

pub const MGARD: ServeCodec = ServeCodec::Mgard { rel_eb: 1e-3 };
pub const ZFP_RATE: u32 = 16;
pub const ZFP: ServeCodec = ServeCodec::Zfp { rate: ZFP_RATE };
pub const SZ: ServeCodec = ServeCodec::Sz { rel_eb: 1e-3 };
pub const HUFFMAN: ServeCodec = ServeCodec::Huffman;

/// Relative L∞ bound a codec guarantees (`None`: lossless or fixed-rate).
pub fn rel_bound(codec: ServeCodec) -> Option<f64> {
    match codec {
        ServeCodec::Mgard { rel_eb } | ServeCodec::Sz { rel_eb } => Some(rel_eb),
        _ => None,
    }
}

/// One generated input array.
#[derive(Clone)]
pub struct Field {
    pub name: &'static str,
    pub bytes: Arc<Vec<u8>>,
    pub meta: ArrayMeta,
    pub extent: Extent,
}

impl Field {
    pub fn new(name: &'static str, bytes: Vec<u8>, meta: ArrayMeta) -> Field {
        let extent = check::extent(&bytes, meta.dtype);
        Field {
            name,
            bytes: Arc::new(bytes),
            meta,
            extent,
        }
    }
}

/// One (field, codec) round trip of a pass.
pub struct Item {
    pub field: usize,
    pub codec: ServeCodec,
    /// Relative bound every reconstruction is checked against.
    pub rel_bound: Option<f64>,
}

pub struct FieldWorkload {
    pub fields: Vec<Field>,
    pub items: Vec<Item>,
    pub spec: DeviceSpec,
    pub opts: PipelineOptions,
    pub work: Arc<dyn DeviceAdapter>,
    /// Warm-up containers, one per item; their digests (and those of the
    /// restored outputs) are the references every later pass must match.
    pub containers: Vec<Container>,
    pub reference: Vec<(u64, u64)>,
}

fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::large(),
        Size::Tiny => Scale::bench(),
    }
}

/// A NYX-like `side³` density field tiled from `T³` seeded
/// `(side/T)³` `hpdr_data::nyx_density` blocks. One field of 28 random
/// modes varies so much from seed to seed (its extreme densities set the
/// relative bound) that MGARD-X's ratio spans 6.6–10.5 over seeds 1–10;
/// independent blocks keep the seed's effect on the inputs and average
/// that variance down.
fn nyx(side: usize, seed: u64) -> Field {
    const T: usize = 4;
    let h = side / T;
    let mut out = vec![0u8; side * side * side * 4];
    for b in 0..T * T * T {
        let block = hpdr_data::nyx_density(h, seed.wrapping_mul(64).wrapping_add(b as u64));
        let (bz, by, bx) = (b / (T * T), b / T % T, b % T);
        for (r, row) in block.bytes.chunks_exact(h * 4).enumerate() {
            let (z, y) = (r / h, r % h);
            let at = (((bz * h + z) * side + by * h + y) * side + bx * h) * 4;
            out[at..at + h * 4].copy_from_slice(row);
        }
    }
    Field::new(
        "NYX",
        out,
        ArrayMeta::new(DType::F32, Shape::new(&[side; 3])),
    )
}

/// Generate the fields, then warm the pool, the MGARD context cache and
/// the references with one round trip per item. Everything here is
/// set-up time.
pub fn setup(workload: &str, seed: u64, size: Size) -> FieldWorkload {
    let sc = scale(size);
    let (fields, codecs) = match workload {
        "nyx-mgard" => (vec![nyx(sc.nyx_side, seed)], vec![MGARD]),
        _ => {
            let (t, la, lo) = sc.e3sm_dims;
            let e3sm = hpdr_data::e3sm_psl(t, la, lo, seed.wrapping_add(1));
            // 4D XGC folds its two slowest dims so the pipeline chunks
            // along planes × poloidal rows, as the codecs fold it anyway.
            let mesh = match size {
                Size::Full => 160,
                Size::Tiny => 8,
            };
            let xgc = hpdr_data::xgc_ef(mesh, seed.wrapping_add(2));
            let d = xgc.shape.dims().to_vec();
            (
                vec![
                    nyx(sc.nyx_side, seed),
                    Field::new("E3SM", e3sm.bytes, ArrayMeta::new(DType::F32, e3sm.shape)),
                    Field::new(
                        "XGC",
                        xgc.bytes,
                        ArrayMeta::new(DType::F64, Shape::new(&[d[0] * d[1], d[2], d[3]])),
                    ),
                ],
                vec![ZFP, SZ, HUFFMAN],
            )
        }
    };
    let items = (0..fields.len())
        .flat_map(|f| {
            codecs.iter().map(move |&codec| Item {
                field: f,
                codec,
                rel_bound: rel_bound(codec),
            })
        })
        .collect();
    let mut wl = FieldWorkload {
        fields,
        items,
        spec: sc.spec(&hpdr_sim::v100()),
        opts: sc.adaptive(),
        work: Arc::new(CpuParallelAdapter::new(crate::env::adapter_threads())),
        containers: Vec::new(),
        reference: Vec::new(),
    };
    for i in 0..wl.items.len() {
        let (container, _) = wl.compress(i).expect("warm-up compression failed");
        let (out, _, _) = wl
            .decompress(i, &container)
            .expect("warm-up decompression failed");
        wl.reference
            .push((check::digest(&container.to_bytes()), check::digest(&out)));
        wl.containers.push(container);
    }
    wl
}

type Restored = (Vec<u8>, ArrayMeta, hpdr_pipeline::PipelineReport);

impl FieldWorkload {
    pub fn field_of(&self, item: usize) -> &Field {
        &self.fields[self.items[item].field]
    }

    pub fn compress(
        &self,
        item: usize,
    ) -> hpdr_core::Result<(Container, hpdr_pipeline::PipelineReport)> {
        let f = self.field_of(item);
        compress_pipelined(
            &self.spec,
            Arc::clone(&self.work),
            self.items[item].codec.reducer(),
            Arc::clone(&f.bytes),
            &f.meta,
            &self.opts,
        )
    }

    pub fn decompress(&self, item: usize, container: &Container) -> hpdr_core::Result<Restored> {
        decompress_pipelined(
            &self.spec,
            Arc::clone(&self.work),
            self.items[item].codec.reducer(),
            container,
            &self.opts,
        )
    }
}

/// What one pass (every item compressed and restored once) measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub raw: u64,
    pub container_bytes: u64,
    /// Wall time of the pipelined calls.
    pub compress_ns: u64,
    pub decompress_ns: u64,
    /// Process CPU time of the same calls.
    pub compress_cpu_ns: u64,
    pub decompress_cpu_ns: u64,
    pub virtual_ns: u64,
    pub calls: u64,
    /// Virtual makespan of each pipelined call, ms.
    pub call_ms_virtual: Vec<f64>,
    pub max_rel_err: f64,
}

/// One pass. With a tracer, each pipelined call becomes a span (the
/// traced-vs-untraced overhead comparison runs this same code).
pub fn pass(wl: &FieldWorkload, tally: &mut Tally, mut tracer: Option<&mut Tracer>) -> Pass {
    let mut p = Pass::default();
    for i in 0..wl.items.len() {
        let f = wl.field_of(i);
        let Item {
            codec, rel_bound, ..
        } = wl.items[i];
        let span = tracer
            .as_mut()
            .map(|t| t.open("pipeline.compress", i as u32));
        let t = Stopwatch::start();
        let compressed = wl.compress(i);
        let (wall, cpu) = t.elapsed_ns();
        p.compress_ns += wall;
        p.compress_cpu_ns += cpu;
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
        let (container, crep) = match compressed {
            Ok(c) => c,
            Err(e) => {
                tally.check(false, || {
                    format!("{} {}: compress: {e}", f.name, codec.label())
                });
                continue;
            }
        };
        let stream = container.to_bytes();
        tally.check(check::digest(&stream) == wl.reference[i].0, || {
            format!(
                "{} {}: container digest changed between passes",
                f.name,
                codec.label()
            )
        });
        let span = tracer
            .as_mut()
            .map(|t| t.open("pipeline.decompress", i as u32));
        let t = Stopwatch::start();
        let restored = wl.decompress(i, &container);
        let (wall, cpu) = t.elapsed_ns();
        p.decompress_ns += wall;
        p.decompress_cpu_ns += cpu;
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
        let verdict = restored
            .map_err(|e| e.to_string())
            .and_then(|(out, meta, drep)| {
                let lossless = codec.reducer().is_lossless();
                let rel =
                    check::reconstruction(&f.bytes, &out, &meta, &f.meta, lossless, rel_bound)?;
                if check::digest(&out) != wl.reference[i].1 {
                    return Err("restored output changed between passes".into());
                }
                Ok((rel, drep))
            });
        match verdict {
            Ok((rel, drep)) => {
                tally.check(true, String::new);
                p.max_rel_err = p.max_rel_err.max(rel);
                p.virtual_ns += crep.makespan.0 + drep.makespan.0;
                p.call_ms_virtual
                    .extend([crep.makespan.0 as f64 / 1e6, drep.makespan.0 as f64 / 1e6]);
            }
            Err(e) => tally.check(false, || {
                format!("{} {}: decompress: {e}", f.name, codec.label())
            }),
        }
        p.raw += f.bytes.len() as u64;
        p.container_bytes += stream.len() as u64;
        p.calls += 2;
    }
    p
}

/// End-to-end metrics of the measured passes.
pub fn metrics(wl: &FieldWorkload, passes: &[Pass]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Pass) -> f64| summarize(&passes.iter().map(f).collect::<Vec<_>>());
    let calls: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.call_ms_virtual.iter().copied())
        .collect();
    let (p99, beyond) = tail(&calls, 0.99);
    let n = passes.len();
    let mut out = vec![
        Metric::of(
            "compress_gbps",
            per(&|p| p.raw as f64 / p.compress_cpu_ns as f64),
        )
        .with_note("raw bytes / process CPU time of compress_pipelined, per pass"),
        Metric::of(
            "decompress_gbps",
            per(&|p| p.raw as f64 / p.decompress_cpu_ns as f64),
        )
        .with_note("raw bytes / process CPU time of decompress_pipelined, per pass"),
        Metric::of("ratio", per(&|p| p.raw as f64 / p.container_bytes as f64))
            .with_note("raw bytes / serialized container bytes"),
        Metric::of(
            "max_rel_err",
            Summary::single(passes.iter().map(|p| p.max_rel_err).fold(0.0, f64::max), n),
        )
        .with_note("max |x - x'| / value range over items"),
        Metric::of("virtual_gbps", per(&|p| 2.0 * p.raw as f64 / p.virtual_ns as f64))
            .with_note("PipelineReport throughput: raw bytes / virtual makespan, both directions"),
        Metric::of(
            "jobs_per_s",
            per(&|p| p.calls as f64 * 1e9 / (p.compress_cpu_ns + p.decompress_cpu_ns) as f64),
        )
        .with_note("pipelined calls per process CPU second"),
        Metric::of("job_p50_ms_virtual", summarize(&calls))
            .with_note("virtual makespan per pipelined call; quartiles over calls"),
        Metric::of("job_p99_ms_virtual", Summary::single(p99, calls.len()))
            .with_note(format!("{beyond} calls beyond it; a call's virtual time is fixed per item, so the tail is the slowest item")),
        Metric::extra(
            "compress_gbps_wall".into(),
            "GB/s",
            Clock::Wall,
            per(&|p| p.raw as f64 / p.compress_ns as f64),
        ),
        Metric::extra(
            "decompress_gbps_wall".into(),
            "GB/s",
            Clock::Wall,
            per(&|p| p.raw as f64 / p.decompress_ns as f64),
        ),
        Metric::extra(
            "jobs_per_s_wall".into(),
            "1/s",
            Clock::Wall,
            per(&|p| p.calls as f64 * 1e9 / (p.compress_ns + p.decompress_ns) as f64),
        ),
    ];
    for (i, it) in wl.items.iter().enumerate() {
        let f = &wl.fields[it.field];
        let chunks = wl.containers[i].chunks.len();
        out.push(Metric::extra(
            format!("item.{}.{}.chunks", f.name, it.codec.name()),
            "count",
            Clock::None,
            Summary::single(chunks as f64, 1),
        ));
    }
    out
}
