//! High-level one-call API.
//!
//! [`Codec`] enumerates the built-in reduction pipelines; [`compress`] /
//! [`decompress`] run them directly on an adapter, and [`detect_codec`]
//! identifies a stream from its magic so readers need no out-of-band
//! configuration (all HPDR streams are self-describing).

use hpdr_baselines::{Lz4Reducer, SzConfig, SzReducer};
use hpdr_core::{ArrayMeta, DeviceAdapter, Float, HpdrError, Reducer, Result};
use hpdr_huffman::ByteHuffmanReducer;
use hpdr_mgard::{MgardConfig, MgardReducer};
use hpdr_zfp::{ZfpConfig, ZfpReducer};
use std::sync::Arc;

/// A configured reduction pipeline.
#[derive(Debug, Clone, Copy)]
pub enum Codec {
    /// MGARD-X error-bounded lossy compression (paper Alg. 1).
    Mgard(MgardConfig),
    /// ZFP-X fixed-rate compression (paper Alg. 3).
    Zfp(ZfpConfig),
    /// Huffman-X lossless byte compression (paper Alg. 2).
    Huffman,
    /// SZ-style comparator (cuSZ analogue).
    Sz(SzConfig),
    /// LZ4-style comparator (nvCOMP analogue).
    Lz4,
}

impl PartialEq for Codec {
    /// Codecs compare by pipeline identity (name), not configuration.
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Codec {
    /// Instantiate the reducer for this codec.
    pub fn reducer(&self) -> Arc<dyn Reducer> {
        match *self {
            Codec::Mgard(cfg) => Arc::new(MgardReducer(cfg)),
            Codec::Zfp(cfg) => Arc::new(ZfpReducer(cfg)),
            Codec::Huffman => Arc::new(ByteHuffmanReducer::default()),
            Codec::Sz(cfg) => Arc::new(SzReducer(cfg)),
            Codec::Lz4 => Arc::new(Lz4Reducer),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Codec::Mgard(_) => "mgard-x",
            Codec::Zfp(_) => "zfp-x",
            Codec::Huffman => "huffman-x",
            Codec::Sz(_) => "cusz-like",
            Codec::Lz4 => "nvcomp-lz4-like",
        }
    }
}

/// Instantiate a (decompression-capable) reducer from a stream-registry
/// name, as stored in containers and BP block metadata. Codec parameters
/// are embedded in each stream, so defaults suffice for decoding.
pub fn reducer_by_name(name: &str) -> Result<Arc<dyn Reducer>> {
    match name {
        "mgard-x" => Ok(Arc::new(MgardReducer(MgardConfig::default()))),
        "zfp-x" => Ok(Arc::new(ZfpReducer(ZfpConfig::fixed_rate(16)))),
        "huffman-x" => Ok(Arc::new(ByteHuffmanReducer::default())),
        "cusz-like" => Ok(Arc::new(SzReducer(SzConfig::relative(1e-3)))),
        "nvcomp-lz4-like" => Ok(Arc::new(Lz4Reducer)),
        other => Err(HpdrError::unsupported(format!("unknown reducer '{other}'"))),
    }
}

/// Identify a stream's codec from the magic its codec exports.
pub fn detect_codec(stream: &[u8]) -> Option<&'static str> {
    let magic = u32::from_le_bytes(stream.get(..4)?.try_into().ok()?);
    [
        (hpdr_mgard::codec::FRAME.magic, "mgard-x"),
        (hpdr_zfp::codec::FRAME.magic, "zfp-x"),
        (hpdr_huffman::reducer::MAGIC, "huffman-x"),
        (hpdr_baselines::szlike::MAGIC, "cusz-like"),
        (hpdr_baselines::lz4like::MAGIC, "nvcomp-lz4-like"),
    ]
    .into_iter()
    .find_map(|(m, name)| (m == magic).then_some(name))
}

/// Outcome statistics of one compression call.
#[derive(Debug, Clone)]
pub struct CompressionStats {
    pub codec: &'static str,
    pub original_bytes: usize,
    pub compressed_bytes: usize,
    pub ratio: f64,
}

/// Compress raw little-endian array bytes with `codec`.
pub fn compress(
    adapter: &dyn DeviceAdapter,
    bytes: &[u8],
    meta: &ArrayMeta,
    codec: Codec,
) -> Result<(Vec<u8>, CompressionStats)> {
    let stream = codec.reducer().compress(adapter, bytes, meta)?;
    let stats = CompressionStats {
        codec: codec.name(),
        original_bytes: bytes.len(),
        compressed_bytes: stream.len(),
        ratio: bytes.len() as f64 / stream.len().max(1) as f64,
    };
    Ok((stream, stats))
}

/// Decompress any HPDR stream (codec auto-detected from the magic).
pub fn decompress(adapter: &dyn DeviceAdapter, stream: &[u8]) -> Result<(Vec<u8>, ArrayMeta)> {
    let name =
        detect_codec(stream).ok_or_else(|| HpdrError::corrupt("unrecognized stream magic"))?;
    reducer_by_name(name)?.decompress(adapter, stream)
}

/// Typed convenience: compress a float slice.
pub fn compress_slice<T: Float>(
    adapter: &dyn DeviceAdapter,
    data: &[T],
    shape: &hpdr_core::Shape,
    codec: Codec,
) -> Result<(Vec<u8>, CompressionStats)> {
    let meta = ArrayMeta::new(T::DTYPE, shape.clone());
    compress(adapter, &T::slice_to_bytes(data), &meta, codec)
}

/// Typed convenience: decompress to a float vector.
pub fn decompress_slice<T: Float>(
    adapter: &dyn DeviceAdapter,
    stream: &[u8],
) -> Result<(Vec<T>, hpdr_core::Shape)> {
    let (bytes, meta) = decompress(adapter, stream)?;
    if meta.dtype != T::DTYPE {
        return Err(HpdrError::invalid(format!(
            "stream holds {} data, requested {}",
            meta.dtype.name(),
            T::DTYPE.name()
        )));
    }
    Ok((T::bytes_to_vec(&bytes), meta.shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{SerialAdapter, Shape};

    fn sample() -> (Vec<f32>, Shape) {
        let shape = Shape::new(&[24, 24]);
        let data = (0..576).map(|i| (i as f32 * 0.05).sin()).collect();
        (data, shape)
    }

    #[test]
    fn every_codec_roundtrips_via_detection() {
        let adapter = SerialAdapter::new();
        let (data, shape) = sample();
        for codec in [
            Codec::Mgard(MgardConfig::relative(1e-3)),
            Codec::Zfp(ZfpConfig::fixed_rate(20)),
            Codec::Huffman,
            Codec::Sz(SzConfig::relative(1e-3)),
            Codec::Lz4,
        ] {
            let (stream, stats) = compress_slice(&adapter, &data, &shape, codec).unwrap();
            assert_eq!(
                detect_codec(&stream),
                Some(codec.name()),
                "{:?}",
                codec.name()
            );
            assert_eq!(stats.codec, codec.name());
            let (out, s) = decompress_slice::<f32>(&adapter, &stream).unwrap();
            assert_eq!(s, shape);
            assert_eq!(out.len(), data.len());
            if codec.reducer().is_lossless() {
                assert_eq!(out, data, "{} must be lossless", codec.name());
            } else {
                let err = data
                    .iter()
                    .zip(&out)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(err < 0.05, "{}: err {err}", codec.name());
            }
        }
    }

    #[test]
    fn unknown_stream_rejected() {
        let adapter = SerialAdapter::new();
        assert!(decompress(&adapter, &[1, 2, 3, 4, 5]).is_err());
        assert!(decompress(&adapter, &[]).is_err());
        assert!(reducer_by_name("gzip").is_err());
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let adapter = SerialAdapter::new();
        let (data, shape) = sample();
        let (stream, _) = compress_slice(
            &adapter,
            &data,
            &shape,
            Codec::Zfp(ZfpConfig::fixed_rate(16)),
        )
        .unwrap();
        assert!(decompress_slice::<f64>(&adapter, &stream).is_err());
    }

    #[test]
    fn stats_ratio_is_consistent() {
        let adapter = SerialAdapter::new();
        let (data, shape) = sample();
        let (stream, stats) = compress_slice(
            &adapter,
            &data,
            &shape,
            Codec::Mgard(MgardConfig::relative(1e-2)),
        )
        .unwrap();
        assert_eq!(stats.compressed_bytes, stream.len());
        assert!((stats.ratio - 2304.0 / stream.len() as f64).abs() < 1e-9);
    }
}
