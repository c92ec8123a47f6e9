//! IPv4 header codec (no options, which trading feeds never use).

use std::fmt;

use crate::bytes::{get_u16_be, internet_checksum, set_u16_be};
use crate::error::{Result, WireError};

/// Length of the option-less IPv4 header.
pub const HEADER_LEN: usize = 20;

/// Protocol numbers used in this workspace.
pub const PROTO_IGMP: u8 = 2;
pub const PROTO_TCP: u8 = 6;
pub const PROTO_UDP: u8 = 17;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub [u8; 4]);

impl Addr {
    /// Build from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr([a, b, c, d])
    }

    /// A unicast host address in 10.0.0.0/8 derived from an index.
    pub const fn host(idx: u32) -> Addr {
        let b = idx.to_be_bytes();
        Addr([10, b[1], b[2], b[3]])
    }

    /// An administratively-scoped multicast group (239.0.0.0/8) derived
    /// from a group index — the paper's feeds are partitioned across many
    /// such groups.
    pub const fn multicast_group(idx: u32) -> Addr {
        let b = idx.to_be_bytes();
        Addr([239, b[1], b[2], b[3]])
    }

    /// True for 224.0.0.0/4.
    pub fn is_multicast(&self) -> bool {
        self.0[0] >= 224 && self.0[0] <= 239
    }

    /// The group index assigned by [`Addr::multicast_group`], if this is
    /// such an address.
    pub fn multicast_index(&self) -> Option<u32> {
        if self.0[0] == 239 {
            Some(u32::from_be_bytes([0, self.0[1], self.0[2], self.0[3]]))
        } else {
            None
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// Zero-copy view of an IPv4 packet.
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap with structural validation: header present, version 4, IHL 5,
    /// total length consistent with the buffer.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let p = Packet { buffer };
        let b = p.buffer.as_ref();
        if b[0] >> 4 != 4 {
            return Err(WireError::BadField);
        }
        if b[0] & 0x0f != 5 {
            // Options unsupported; feeds never carry them.
            return Err(WireError::BadField);
        }
        let total = p.total_len() as usize;
        if total < HEADER_LEN || total > len {
            return Err(WireError::BadLength);
        }
        Ok(p)
    }

    /// Total length field.
    pub fn total_len(&self) -> u16 {
        get_u16_be(self.buffer.as_ref(), 2)
    }

    /// Protocol number.
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[9]
    }

    /// Source address.
    pub fn src(&self) -> Addr {
        let b = self.buffer.as_ref();
        Addr([b[12], b[13], b[14], b[15]])
    }

    /// Destination address.
    pub fn dst(&self) -> Addr {
        let b = self.buffer.as_ref();
        Addr([b[16], b[17], b[18], b[19]])
    }

    /// Validate the header checksum.
    pub fn verify_checksum(&self) -> bool {
        internet_checksum(0, &self.buffer.as_ref()[..HEADER_LEN]) == 0
    }

    /// The L4 payload, bounded by the total-length field.
    pub fn payload(&self) -> &[u8] {
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..total]
    }

    /// Recover the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Initialize version/IHL and defaults. Call before other setters on a
    /// fresh buffer.
    pub fn init(&mut self) {
        let b = self.buffer.as_mut();
        b[0] = 0x45;
        b[1] = 0; // DSCP/ECN
        set_u16_be(b, 4, 0); // identification
        set_u16_be(b, 6, 0x4000); // flags: DF
        b[8] = 64; // default TTL
    }

    /// Set total length.
    pub fn set_total_len(&mut self, v: u16) {
        set_u16_be(self.buffer.as_mut(), 2, v);
    }

    /// Set protocol.
    pub fn set_protocol(&mut self, v: u8) {
        self.buffer.as_mut()[9] = v;
    }

    /// Set source address.
    pub fn set_src(&mut self, v: Addr) {
        self.buffer.as_mut()[12..16].copy_from_slice(&v.0);
    }

    /// Set destination address.
    pub fn set_dst(&mut self, v: Addr) {
        self.buffer.as_mut()[16..20].copy_from_slice(&v.0);
    }

    /// Compute and store the header checksum (zeroing it first).
    pub fn fill_checksum(&mut self) {
        let b = self.buffer.as_mut();
        set_u16_be(b, 10, 0);
        let ck = internet_checksum(0, &b[..HEADER_LEN]);
        set_u16_be(b, 10, ck);
    }
}

/// Pseudo-header checksum seed for UDP/TCP over this packet's addresses.
pub fn pseudo_header_sum(src: Addr, dst: Addr, protocol: u8, l4_len: u16) -> u32 {
    let mut sum = 0u32;
    sum += u32::from(u16::from_be_bytes([src.0[0], src.0[1]]));
    sum += u32::from(u16::from_be_bytes([src.0[2], src.0[3]]));
    sum += u32::from(u16::from_be_bytes([dst.0[0], dst.0[1]]));
    sum += u32::from(u16::from_be_bytes([dst.0[2], dst.0[3]]));
    sum += u32::from(protocol);
    sum += u32::from(l4_len);
    sum
}

/// Append a complete IPv4 packet around `payload` to `out`, reusing
/// whatever capacity `out` already has.
pub fn emit_into(src: Addr, dst: Addr, protocol: u8, payload: &[u8], out: &mut Vec<u8>) {
    let total = HEADER_LEN + payload.len();
    debug_assert!(total <= u16::MAX as usize);
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    out.extend_from_slice(payload);
    finish_header(&mut out[start..], src, dst, protocol);
}

/// Fill the 20-byte header at the front of `packet` (header + payload
/// already laid out contiguously) and compute the header checksum. The
/// in-place finisher used by [`emit_into`] and the single-pass stack
/// emitters.
pub fn finish_header(packet: &mut [u8], src: Addr, dst: Addr, protocol: u8) {
    let total = packet.len();
    debug_assert!(total <= u16::MAX as usize);
    let mut p = Packet::new_unchecked(packet);
    p.init();
    p.set_total_len(total as u16);
    p.set_protocol(protocol);
    p.set_src(src);
    p.set_dst(dst);
    p.fill_checksum();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_roundtrip_with_checksum() {
        let payload = b"market data";
        let mut buf = Vec::new();
        emit_into(
            Addr::host(1),
            Addr::multicast_group(17),
            PROTO_UDP,
            payload,
            &mut buf,
        );
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.src(), Addr::host(1));
        assert_eq!(p.dst(), Addr::multicast_group(17));
        assert_eq!(p.protocol(), PROTO_UDP);
        assert_eq!(p.payload(), payload);
        assert_eq!(buf[8], 64, "TTL");
        assert!(p.verify_checksum());
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let mut buf = Vec::new();
        emit_into(Addr::host(1), Addr::host(2), PROTO_TCP, b"x", &mut buf);
        buf[15] ^= 0xff;
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(!p.verify_checksum());
    }

    #[test]
    fn structural_validation() {
        assert_eq!(
            Packet::new_checked(&[0u8; 10][..]).unwrap_err(),
            WireError::Truncated
        );
        let mut buf = Vec::new();
        emit_into(Addr::host(1), Addr::host(2), PROTO_UDP, b"abc", &mut buf);
        buf[0] = 0x65; // version 6
        assert_eq!(
            Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadField
        );
        buf[0] = 0x46; // IHL 6 (options)
        assert_eq!(
            Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadField
        );
        buf[0] = 0x45;
        buf[2] = 0xff; // total length > buffer
        buf[3] = 0xff;
        assert_eq!(
            Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn payload_respects_total_len() {
        // A frame padded to the Ethernet minimum must not leak pad bytes
        // into the payload.
        let mut buf = Vec::new();
        emit_into(Addr::host(1), Addr::host(2), PROTO_UDP, b"abc", &mut buf);
        buf.extend_from_slice(&[0u8; 20]); // Ethernet pad
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.payload(), b"abc");
    }

    #[test]
    fn multicast_helpers() {
        let g = Addr::multicast_group(300);
        assert!(g.is_multicast());
        assert_eq!(g.multicast_index(), Some(300));
        assert!(!Addr::host(5).is_multicast());
        assert_eq!(Addr::host(5).multicast_index(), None);
        assert!(Addr::new(224, 0, 0, 1).is_multicast());
        assert!(!Addr::new(240, 0, 0, 1).is_multicast());
        assert_eq!(g.to_string(), "239.0.1.44");
    }

    #[test]
    fn pseudo_header_sum_is_symmetric_in_length() {
        let a = pseudo_header_sum(Addr::host(1), Addr::host(2), PROTO_UDP, 8);
        let b = pseudo_header_sum(Addr::host(1), Addr::host(2), PROTO_UDP, 9);
        assert_eq!(b - a, 1);
    }
}
