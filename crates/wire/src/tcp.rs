//! TCP header codec.
//!
//! Order-entry sessions (§2: long-lived TCP connections to the exchange)
//! are simulated at the segment level; this module provides the header
//! codec. Connection state machines live in `tn-feed`/`tn-trading` — the
//! simulator does not need retransmission timers to reproduce the paper's
//! results, but it does account for real header bytes (the 40-byte
//! Eth+IP+TCP overhead §5 calls out).

use crate::bytes::{get_u16_be, get_u32_be, internet_checksum, set_u16_be, set_u32_be};
use crate::error::{Result, WireError};
use crate::ipv4;

/// Length of the option-less TCP header we emit.
pub const HEADER_LEN: usize = 20;

/// TCP flag bits (subset used by the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flags(pub u8);

impl Flags {
    pub const SYN: Flags = Flags(0x02);
    pub const PSH: Flags = Flags(0x08);
    pub const ACK: Flags = Flags(0x10);
    /// No flags set.
    pub const EMPTY: Flags = Flags(0);

    /// True if all bits of `other` are set in `self`.
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        Flags(self.0 | rhs.0)
    }
}

/// Zero-copy view of a TCP segment.
#[derive(Debug)]
pub struct Segment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Segment<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Segment<T> {
        Segment { buffer }
    }

    /// Wrap with validation: header present and data offset sane.
    pub fn new_checked(buffer: T) -> Result<Segment<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let s = Segment { buffer };
        let off = s.header_len();
        if !(HEADER_LEN..=60).contains(&off) || off > len {
            return Err(WireError::BadLength);
        }
        Ok(s)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        get_u16_be(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        get_u16_be(self.buffer.as_ref(), 2)
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        get_u32_be(self.buffer.as_ref(), 4)
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> u32 {
        get_u32_be(self.buffer.as_ref(), 8)
    }

    /// Header length in bytes, from the data-offset field.
    pub fn header_len(&self) -> usize {
        ((self.buffer.as_ref()[12] >> 4) as usize) * 4
    }

    /// Flag bits.
    pub fn flags(&self) -> Flags {
        Flags(self.buffer.as_ref()[13] & 0x1f)
    }

    /// Payload bytes after the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verify the checksum against the IPv4 pseudo-header.
    pub fn verify_checksum(&self, src: ipv4::Addr, dst: ipv4::Addr) -> bool {
        let b = self.buffer.as_ref();
        let seed = ipv4::pseudo_header_sum(src, dst, ipv4::PROTO_TCP, b.len() as u16);
        internet_checksum(seed, b) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Segment<T> {
    /// Initialize a fresh 20-byte header (data offset 5).
    pub fn init(&mut self) {
        let b = self.buffer.as_mut();
        b[12] = 5 << 4;
    }

    /// Set source port.
    pub fn set_src_port(&mut self, v: u16) {
        set_u16_be(self.buffer.as_mut(), 0, v);
    }

    /// Set destination port.
    pub fn set_dst_port(&mut self, v: u16) {
        set_u16_be(self.buffer.as_mut(), 2, v);
    }

    /// Set sequence number.
    pub fn set_seq(&mut self, v: u32) {
        set_u32_be(self.buffer.as_mut(), 4, v);
    }

    /// Set acknowledgment number.
    pub fn set_ack(&mut self, v: u32) {
        set_u32_be(self.buffer.as_mut(), 8, v);
    }

    /// Set flags.
    pub fn set_flags(&mut self, v: Flags) {
        self.buffer.as_mut()[13] = v.0;
    }

    /// Set window.
    pub fn set_window(&mut self, v: u16) {
        set_u16_be(self.buffer.as_mut(), 14, v);
    }

    /// Compute and store the checksum.
    pub fn fill_checksum(&mut self, src: ipv4::Addr, dst: ipv4::Addr) {
        let len = self.buffer.as_ref().len() as u16;
        let b = self.buffer.as_mut();
        set_u16_be(b, 16, 0);
        let seed = ipv4::pseudo_header_sum(src, dst, ipv4::PROTO_TCP, len);
        let ck = internet_checksum(seed, b);
        set_u16_be(b, 16, ck);
    }
}

/// Append a complete segment around `payload` to `out`, reusing whatever
/// capacity `out` already has. Writer-style counterpart of [`build`].
#[allow(clippy::too_many_arguments)]
pub fn emit_into(
    src: ipv4::Addr,
    dst: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: Flags,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    out.extend_from_slice(payload);
    finish_header(
        &mut out[start..],
        src,
        dst,
        src_port,
        dst_port,
        seq,
        ack,
        flags,
    );
}

/// Fill the 20-byte header at the front of `segment` (header + payload
/// already laid out contiguously) and compute the checksum. The in-place
/// finisher used by [`emit_into`] and the single-pass stack emitters.
#[allow(clippy::too_many_arguments)]
pub fn finish_header(
    segment: &mut [u8],
    src: ipv4::Addr,
    dst: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: Flags,
) {
    let mut s = Segment::new_unchecked(segment);
    s.init();
    s.set_src_port(src_port);
    s.set_dst_port(dst_port);
    s.set_seq(seq);
    s.set_ack(ack);
    s.set_flags(flags);
    s.set_window(0xffff);
    s.fill_checksum(src, dst);
}

/// Allocate and fill a complete segment.
#[allow(clippy::too_many_arguments)]
pub fn build(
    src: ipv4::Addr,
    dst: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: Flags,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    emit_into(
        src, dst, src_port, dst_port, seq, ack, flags, payload, &mut buf,
    );
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ipv4::Addr = ipv4::Addr::new(10, 0, 0, 1);
    const B: ipv4::Addr = ipv4::Addr::new(10, 0, 9, 9);

    #[test]
    fn build_parse_roundtrip() {
        let buf = build(
            A,
            B,
            49000,
            443,
            1000,
            2000,
            Flags::ACK | Flags::PSH,
            b"new order bytes",
        );
        let s = Segment::new_checked(&buf[..]).unwrap();
        assert_eq!(s.src_port(), 49000);
        assert_eq!(s.dst_port(), 443);
        assert_eq!(s.seq(), 1000);
        assert_eq!(s.ack(), 2000);
        assert!(s.flags().contains(Flags::ACK));
        assert!(s.flags().contains(Flags::PSH));
        assert!(!s.flags().contains(Flags::SYN));
        assert_eq!(s.payload(), b"new order bytes");
        assert_eq!(s.header_len(), HEADER_LEN);
        assert!(s.verify_checksum(A, B));
    }

    #[test]
    fn corruption_detected() {
        let mut buf = build(A, B, 1, 2, 0, 0, Flags::SYN, b"");
        buf[4] ^= 1;
        let s = Segment::new_checked(&buf[..]).unwrap();
        assert!(!s.verify_checksum(A, B));
    }

    #[test]
    fn validation() {
        assert_eq!(
            Segment::new_checked(&[0u8; 19][..]).unwrap_err(),
            WireError::Truncated
        );
        let mut buf = build(A, B, 1, 2, 0, 0, Flags::SYN, b"");
        buf[12] = 2 << 4; // data offset below minimum
        assert_eq!(
            Segment::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
        buf[12] = 15 << 4; // data offset beyond buffer
        assert_eq!(
            Segment::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn flags_ops() {
        let f = Flags::SYN | Flags::ACK;
        assert!(f.contains(Flags::SYN));
        assert!(f.contains(Flags::ACK));
        assert!(!f.contains(Flags::PSH));
        assert_eq!(Flags::EMPTY.0, 0);
    }
}
