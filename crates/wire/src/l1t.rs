//! A minimal custom transport for Layer-1 switched fabrics.
//!
//! §5 ("Protocols") observes that at 10 Gbps, processing Ethernet + IP +
//! TCP headers costs ~40 ns even though strategies ignore nearly all of
//! those fields, and suggests custom transports designed around L1S
//! constraints. `l1t` is that design point: an 8-byte header carrying only
//! what a point-to-point circuit needs — a stream id for demultiplexing
//! after merges, a sequence number for loss detection, and a length.
//!
//! ```text
//! length u16   whole frame length including this header
//! stream u16   stream id (assigned per source, survives L1S merges)
//! seq    u32   per-stream sequence number
//! ```
//!
//! Frames ride either directly on the circuit or inside an Ethernet frame
//! with [`crate::eth::EtherType::L1Transport`] when a NIC requires L2
//! framing. The stream id is positioned in the first word so an FPGA
//! filter can classify on a fixed offset (the "exposing information that
//! can be used for filtering or load balancing" suggestion).

use crate::bytes::{get_u16_le, get_u32_le, set_u16_le, set_u32_le};
use crate::error::{Result, WireError};

/// Header length — 8 bytes versus 42 for Eth+IPv4+UDP or 54 for
/// Eth+IPv4+TCP.
pub const HEADER_LEN: usize = 8;

/// Zero-copy view of an L1 transport frame.
#[derive(Debug)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap with validation.
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let f = Frame { buffer };
        let l = f.len_field() as usize;
        if l < HEADER_LEN || l > len {
            return Err(WireError::BadLength);
        }
        Ok(f)
    }

    /// Whole-frame length field.
    pub fn len_field(&self) -> u16 {
        get_u16_le(self.buffer.as_ref(), 0)
    }

    /// Stream id.
    pub fn stream(&self) -> u16 {
        get_u16_le(self.buffer.as_ref(), 2)
    }

    /// Per-stream sequence.
    pub fn seq(&self) -> u32 {
        get_u32_le(self.buffer.as_ref(), 4)
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.len_field() as usize]
    }
}

/// Append a complete frame to `out`, reusing whatever capacity `out`
/// already has.
pub fn emit_into(stream: u16, seq: u32, payload: &[u8], out: &mut Vec<u8>) {
    let total = HEADER_LEN + payload.len();
    debug_assert!(total <= u16::MAX as usize);
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    out.extend_from_slice(payload);
    let buf = &mut out[start..];
    set_u16_le(buf, 0, total as u16);
    set_u16_le(buf, 2, stream);
    set_u32_le(buf, 4, seq);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        emit_into(5, 1000, b"normalized records here", &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + 23);
        let f = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.stream(), 5);
        assert_eq!(f.seq(), 1000);
        assert_eq!(f.payload(), b"normalized records here");
    }

    #[test]
    fn header_is_8_bytes() {
        // The whole point: 8 vs 42/54 bytes of standard-stack headers.
        assert_eq!(HEADER_LEN, 8);
        let mut buf = Vec::new();
        emit_into(0, 0, b"", &mut buf);
        assert_eq!(buf.len(), 8);
    }

    #[test]
    fn validation() {
        assert_eq!(
            Frame::new_checked(&[0u8; 4][..]).unwrap_err(),
            WireError::Truncated
        );
        let mut buf = Vec::new();
        emit_into(1, 1, b"abc", &mut buf);
        buf[0] = 200;
        assert_eq!(
            Frame::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
        buf[0] = 4; // below header length
        buf[1] = 0;
        assert_eq!(
            Frame::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn padded_payload_not_leaked() {
        let mut buf = Vec::new();
        emit_into(1, 1, b"abc", &mut buf);
        buf.extend_from_slice(&[0; 30]);
        let f = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.payload(), b"abc");
    }
}
