//! UDP header codec.

use crate::bytes::{get_u16_be, internet_checksum, set_u16_be};
use crate::error::{Result, WireError};
use crate::ipv4;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// Zero-copy view of a UDP datagram.
#[derive(Debug)]
pub struct Datagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Datagram<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Datagram<T> {
        Datagram { buffer }
    }

    /// Wrap with validation: header present, length field consistent.
    pub fn new_checked(buffer: T) -> Result<Datagram<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let d = Datagram { buffer };
        let l = d.len_field() as usize;
        if l < HEADER_LEN || l > len {
            return Err(WireError::BadLength);
        }
        Ok(d)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        get_u16_be(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        get_u16_be(self.buffer.as_ref(), 2)
    }

    /// Length field (header + payload).
    pub fn len_field(&self) -> u16 {
        get_u16_be(self.buffer.as_ref(), 4)
    }

    /// Checksum field.
    pub fn checksum(&self) -> u16 {
        get_u16_be(self.buffer.as_ref(), 6)
    }

    /// The payload, bounded by the length field.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.len_field() as usize]
    }

    /// Verify the checksum against the IPv4 pseudo-header. A zero checksum
    /// means "not computed" and passes (RFC 768).
    pub fn verify_checksum(&self, src: ipv4::Addr, dst: ipv4::Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let l = self.len_field();
        let seed = ipv4::pseudo_header_sum(src, dst, ipv4::PROTO_UDP, l);
        internet_checksum(seed, &self.buffer.as_ref()[..l as usize]) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Datagram<T> {
    /// Set source port.
    pub fn set_src_port(&mut self, v: u16) {
        set_u16_be(self.buffer.as_mut(), 0, v);
    }

    /// Set destination port.
    pub fn set_dst_port(&mut self, v: u16) {
        set_u16_be(self.buffer.as_mut(), 2, v);
    }

    /// Set the length field.
    pub fn set_len_field(&mut self, v: u16) {
        set_u16_be(self.buffer.as_mut(), 4, v);
    }

    /// Compute and store the checksum over the pseudo-header and datagram.
    pub fn fill_checksum(&mut self, src: ipv4::Addr, dst: ipv4::Addr) {
        let l = get_u16_be(self.buffer.as_ref(), 4);
        let b = self.buffer.as_mut();
        set_u16_be(b, 6, 0);
        let seed = ipv4::pseudo_header_sum(src, dst, ipv4::PROTO_UDP, l);
        let mut ck = internet_checksum(seed, &b[..l as usize]);
        if ck == 0 {
            ck = 0xffff; // RFC 768: transmitted zero means "no checksum"
        }
        set_u16_be(b, 6, ck);
    }
}

/// Append a UDP datagram (with checksum) around `payload` to `out`,
/// reusing whatever capacity `out` already has.
pub fn emit_into(
    src: ipv4::Addr,
    dst: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    out.extend_from_slice(payload);
    finish_header(&mut out[start..], src, dst, src_port, dst_port);
}

/// Fill the 8-byte header at the front of `datagram` (header + payload
/// already laid out contiguously) and compute the checksum. The in-place
/// finisher used by [`emit_into`] and the single-pass stack emitters.
pub fn finish_header(
    datagram: &mut [u8],
    src: ipv4::Addr,
    dst: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
) {
    let total = datagram.len();
    debug_assert!(total <= u16::MAX as usize);
    let mut d = Datagram::new_unchecked(datagram);
    d.set_src_port(src_port);
    d.set_dst_port(dst_port);
    d.set_len_field(total as u16);
    d.fill_checksum(src, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: ipv4::Addr = ipv4::Addr::new(10, 0, 0, 1);
    const DST: ipv4::Addr = ipv4::Addr::new(239, 0, 0, 5);

    #[test]
    fn build_parse_roundtrip() {
        let mut buf = Vec::new();
        emit_into(SRC, DST, 30001, 30001, b"feed", &mut buf);
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert_eq!(d.src_port(), 30001);
        assert_eq!(d.dst_port(), 30001);
        assert_eq!(d.len_field() as usize, buf.len());
        assert_eq!(d.payload(), b"feed");
        assert!(d.verify_checksum(SRC, DST));
    }

    #[test]
    fn corruption_detected() {
        let mut buf = Vec::new();
        emit_into(SRC, DST, 1, 2, b"payload", &mut buf);
        buf[HEADER_LEN] ^= 0x55;
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert!(!d.verify_checksum(SRC, DST));
        // Wrong pseudo-header (different dst) also fails.
        let mut buf = Vec::new();
        emit_into(SRC, DST, 1, 2, b"payload", &mut buf);
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert!(!d.verify_checksum(SRC, ipv4::Addr::new(239, 0, 0, 6)));
    }

    #[test]
    fn zero_checksum_passes() {
        let mut buf = Vec::new();
        emit_into(SRC, DST, 1, 2, b"x", &mut buf);
        buf[6] = 0;
        buf[7] = 0;
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert!(d.verify_checksum(SRC, DST));
    }

    #[test]
    fn validation() {
        assert_eq!(
            Datagram::new_checked(&[0u8; 7][..]).unwrap_err(),
            WireError::Truncated
        );
        let mut buf = Vec::new();
        emit_into(SRC, DST, 1, 2, b"abc", &mut buf);
        buf[4] = 0xff; // length > buffer
        assert_eq!(
            Datagram::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
        buf[4] = 0;
        buf[5] = 4; // length < header
        assert_eq!(
            Datagram::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn padded_payload_not_leaked() {
        let mut buf = Vec::new();
        emit_into(SRC, DST, 1, 2, b"abc", &mut buf);
        buf.extend_from_slice(&[0u8; 16]);
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert_eq!(d.payload(), b"abc");
    }
}
