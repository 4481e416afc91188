//! [`Reducer`](hpdr_core::Reducer) implementation for ZFP-X, through
//! [`TypedCodec`].

use crate::codec::{compress, decompress, ZfpConfig};
use hpdr_core::{DeviceAdapter, Float, FrameHeader, KernelClass, Result, Shape, TypedCodec};

/// ZFP-X as a byte-level reduction pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ZfpReducer(pub ZfpConfig);

impl TypedCodec for ZfpReducer {
    const NAME: &'static str = "zfp-x";
    const KERNEL_CLASS: KernelClass = KernelClass::Zfp;
    const FRAME_LEN: usize = FrameHeader::LEN;

    fn compress_typed<T: Float>(
        &self,
        adapter: &dyn DeviceAdapter,
        data: &[T],
        shape: &Shape,
    ) -> Result<Vec<u8>> {
        compress(adapter, data, shape, &self.0)
    }

    fn decompress_typed<T: Float>(
        &self,
        adapter: &dyn DeviceAdapter,
        stream: &[u8],
    ) -> Result<(Vec<T>, Shape)> {
        decompress(adapter, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{ArrayMeta, DType, Reducer, SerialAdapter};

    #[test]
    fn byte_level_roundtrip_fixed_rate() {
        let adapter = SerialAdapter::new();
        let shape = Shape::new(&[8, 8, 8]);
        let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.02).cos()).collect();
        let meta = ArrayMeta::new(DType::F64, shape.clone());
        let r = ZfpReducer(ZfpConfig::fixed_rate(24));
        let stream = r
            .compress(&adapter, &f64::slice_to_bytes(&data), &meta)
            .unwrap();
        // Fixed rate 24 of 64 bits: ~2.7× smaller payload.
        assert!(stream.len() < data.len() * 8 / 2);
        let (bytes, meta2) = r.decompress(&adapter, &stream).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(bytes.len(), 512 * 8);
    }
}
