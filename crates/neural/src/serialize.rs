//! Flat binary (de)serialisation of model weights.
//!
//! The trained Tiny-VBF weights need to move between the trainer, the quantizer and the
//! FPGA-accelerator model. The format is deliberately simple: a magic tag, the number of
//! tensors, and for each tensor its rank, shape and little-endian `f32` payload.

use crate::tensor::Tensor;
use crate::{NeuralError, NeuralResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x5456_4246; // "TVBF"

/// Smallest encoded tensor: rank, one dimension and one value.
const MIN_TENSOR_BYTES: usize = 12;

/// Serialises a list of tensors into a byte buffer.
pub fn tensors_to_bytes(tensors: &[&Tensor]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(tensors.len() as u32);
    for t in tensors {
        buf.put_u32_le(t.shape().len() as u32);
        for &d in t.shape() {
            buf.put_u32_le(d as u32);
        }
        for &v in t.as_slice() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Deserialises tensors previously written by [`tensors_to_bytes`].
///
/// # Errors
///
/// Returns [`NeuralError::DeserializeError`] when the buffer is truncated, the magic tag
/// is wrong, or a shape is invalid or too large to address. The header is untrusted:
/// nothing is allocated beyond what the remaining bytes can fill.
pub fn tensors_from_bytes(mut data: &[u8]) -> NeuralResult<Vec<Tensor>> {
    let need = |n: usize, what: &str, data: &[u8]| -> NeuralResult<()> {
        if data.remaining() < n {
            Err(NeuralError::DeserializeError(format!("truncated while reading {what}")))
        } else {
            Ok(())
        }
    };
    need(8, "header", data)?;
    let magic = data.get_u32_le();
    if magic != MAGIC {
        return Err(NeuralError::DeserializeError(format!("bad magic 0x{magic:08x}")));
    }
    let count = data.get_u32_le() as usize;
    let mut tensors = Vec::with_capacity(count.min(data.remaining() / MIN_TENSOR_BYTES));
    for i in 0..count {
        need(4, "tensor rank", data)?;
        let rank = data.get_u32_le() as usize;
        if rank == 0 || rank > 8 {
            return Err(NeuralError::DeserializeError(format!("tensor {i} has invalid rank {rank}")));
        }
        need(4 * rank, "tensor shape", data)?;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(data.get_u32_le() as usize);
        }
        let numel = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        let payload = numel.and_then(|n| n.checked_mul(4));
        let (Some(numel), Some(payload)) = (numel, payload) else {
            return Err(NeuralError::DeserializeError(format!("tensor {i} shape {shape:?} overflows")));
        };
        if numel == 0 {
            return Err(NeuralError::DeserializeError(format!("tensor {i} has a zero dimension")));
        }
        need(payload, "tensor data", data)?;
        let mut values = Vec::with_capacity(numel);
        for _ in 0..numel {
            values.push(data.get_f32_le());
        }
        tensors.push(Tensor::from_vec(values, &shape)?);
    }
    Ok(tensors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_tensors() {
        let a = Tensor::from_vec(vec![1.0, -2.5, 3.25], &[3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|i| i as f32 * 0.1).collect(), &[3, 4]).unwrap();
        let bytes = tensors_to_bytes(&[&a, &b]);
        let restored = tensors_from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[0], a);
        assert_eq!(restored[1], b);
    }

    #[test]
    fn empty_list_round_trips() {
        let bytes = tensors_to_bytes(&[]);
        assert!(tensors_from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = tensors_to_bytes(&[]).to_vec();
        raw[0] ^= 0xFF;
        assert!(matches!(tensors_from_bytes(&raw), Err(NeuralError::DeserializeError(_))));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let a = Tensor::from_vec(vec![1.0; 16], &[4, 4]).unwrap();
        let bytes = tensors_to_bytes(&[&a]);
        for cut in [2usize, 9, 12, bytes.len() - 3] {
            assert!(tensors_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn garbage_rank_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(1);
        buf.put_u32_le(100); // absurd rank
        assert!(tensors_from_bytes(&buf.freeze()).is_err());
    }

    #[test]
    fn huge_tensor_count_is_rejected_without_allocating_for_it() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(u32::MAX); // claims 4 billion tensors
        buf.put_u32_le(1);
        assert!(matches!(tensors_from_bytes(&buf.freeze()), Err(NeuralError::DeserializeError(_))));
    }

    #[test]
    fn overflowing_shape_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(1);
        buf.put_u32_le(3);
        for _ in 0..3 {
            buf.put_u32_le(u32::MAX);
        }
        assert!(matches!(tensors_from_bytes(&buf.freeze()), Err(NeuralError::DeserializeError(_))));
    }
}
