//! [`Reducer`](hpdr_core::Reducer) implementation for MGARD-X, through
//! [`TypedCodec`].

use crate::codec::{compress, decompress, MgardConfig};
use hpdr_core::{DeviceAdapter, Float, FrameHeader, KernelClass, Result, Shape, TypedCodec};

/// MGARD-X as a byte-level reduction pipeline.
#[derive(Debug, Clone, Copy)]
pub struct MgardReducer(pub MgardConfig);

impl TypedCodec for MgardReducer {
    const NAME: &'static str = "mgard-x";
    const KERNEL_CLASS: KernelClass = KernelClass::Mgard;
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
    fn byte_level_roundtrip_f32() {
        let adapter = SerialAdapter::new();
        let shape = Shape::new(&[12, 10]);
        let data: Vec<f32> = (0..120).map(|i| (i as f32 * 0.3).sin()).collect();
        let meta = ArrayMeta::new(DType::F32, shape.clone());
        let r = MgardReducer(MgardConfig::relative(1e-3));
        let stream = r
            .compress(&adapter, &f32::slice_to_bytes(&data), &meta)
            .unwrap();
        let (bytes, meta2) = r.decompress(&adapter, &stream).unwrap();
        assert_eq!(meta2, meta);
        let out = f32::bytes_to_vec(&bytes);
        let err = data
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(err <= 2.0 * 1e-3 * 1.01);
    }

    #[test]
    fn rejects_length_mismatch() {
        let adapter = SerialAdapter::new();
        let meta = ArrayMeta::new(DType::F64, Shape::new(&[4]));
        let r = MgardReducer(MgardConfig::default());
        assert!(r.compress(&adapter, &[0u8; 7], &meta).is_err());
    }
}
