//! The portable reduction-algorithm interface.
//!
//! A [`Reducer`] is one full reduction pipeline (MGARD-X, ZFP-X,
//! Huffman-X, or a comparator baseline) operating on raw little-endian
//! array bytes. The byte-level interface is what the HDEM pipeline, the
//! I/O layer and the benchmark harness program against — it lets one
//! pipeline implementation drive every codec and dtype.

use crate::adapter::DeviceAdapter;
use crate::error::{HpdrError, Result};
use crate::float::{DType, Float};
use crate::shape::{ArrayMeta, Shape};
use hpdr_sim::KernelClass;

/// A reduction algorithm over raw array bytes.
pub trait Reducer: Send + Sync {
    /// Short stable identifier (also stored in containers).
    fn name(&self) -> &'static str;

    /// Cost-model class for the device simulator.
    fn kernel_class(&self) -> KernelClass;

    /// Whether reconstruction is bit-exact (lossless).
    fn is_lossless(&self) -> bool;

    /// Compress the little-endian bytes of the array described by `meta`.
    fn compress(
        &self,
        adapter: &dyn DeviceAdapter,
        bytes: &[u8],
        meta: &ArrayMeta,
    ) -> Result<Vec<u8>>;

    /// Decompress a stream produced by [`Reducer::compress`], returning
    /// raw little-endian bytes and the array metadata.
    fn decompress(
        &self,
        adapter: &dyn DeviceAdapter,
        stream: &[u8],
    ) -> Result<(Vec<u8>, ArrayMeta)>;
}

/// A lossy codec over typed `f32`/`f64` slices (MGARD-X, ZFP-X,
/// cuSZ-like) whose streams start with a `FRAME_LEN`-byte frame and then
/// the [`ArrayMeta`] header. Every `TypedCodec` is a [`Reducer`]: the
/// blanket impl checks the byte length, dispatches on the dtype (read
/// from the stream's header when decompressing) and converts the typed
/// result back to bytes.
pub trait TypedCodec: Send + Sync {
    /// The [`Reducer::name`].
    const NAME: &'static str;
    /// The [`Reducer::kernel_class`].
    const KERNEL_CLASS: KernelClass;
    /// Bytes in front of the array header.
    const FRAME_LEN: usize;

    fn compress_typed<T: Float>(
        &self,
        adapter: &dyn DeviceAdapter,
        data: &[T],
        shape: &Shape,
    ) -> Result<Vec<u8>>;

    fn decompress_typed<T: Float>(
        &self,
        adapter: &dyn DeviceAdapter,
        stream: &[u8],
    ) -> Result<(Vec<T>, Shape)>;
}

impl<C: TypedCodec> Reducer for C {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn kernel_class(&self) -> KernelClass {
        C::KERNEL_CLASS
    }

    fn is_lossless(&self) -> bool {
        false
    }

    fn compress(
        &self,
        adapter: &dyn DeviceAdapter,
        bytes: &[u8],
        meta: &ArrayMeta,
    ) -> Result<Vec<u8>> {
        if bytes.len() != meta.num_bytes() {
            return Err(HpdrError::invalid("byte length does not match metadata"));
        }
        match meta.dtype {
            DType::F32 => self.compress_typed(adapter, &f32::bytes_to_vec(bytes), &meta.shape),
            DType::F64 => self.compress_typed(adapter, &f64::bytes_to_vec(bytes), &meta.shape),
        }
    }

    fn decompress(
        &self,
        adapter: &dyn DeviceAdapter,
        stream: &[u8],
    ) -> Result<(Vec<u8>, ArrayMeta)> {
        let tag = *stream
            .get(C::FRAME_LEN)
            .ok_or_else(|| HpdrError::corrupt("stream too short for header"))?;
        match DType::from_tag(tag).ok_or_else(|| HpdrError::corrupt("unknown dtype tag"))? {
            DType::F32 => decompress_as::<f32, C>(self, adapter, stream),
            DType::F64 => decompress_as::<f64, C>(self, adapter, stream),
        }
    }
}

fn decompress_as<T: Float, C: TypedCodec>(
    codec: &C,
    adapter: &dyn DeviceAdapter,
    stream: &[u8],
) -> Result<(Vec<u8>, ArrayMeta)> {
    let (data, shape) = codec.decompress_typed::<T>(adapter, stream)?;
    Ok((T::slice_to_bytes(&data), ArrayMeta::new(T::DTYPE, shape)))
}
