//! Ethernet II framing.
//!
//! Frame lengths throughout the workspace follow Table 1's convention:
//! they include the Ethernet, IP and UDP headers but not the preamble,
//! SFD, or FCS.

use std::fmt;

use crate::bytes::{get_u16_be, set_u16_be};
use crate::error::{Result, WireError};

/// Length of the Ethernet II header (dst + src + ethertype).
pub const HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally-administered unicast address derived from a host index —
    /// handy for simulation topologies.
    pub const fn host(idx: u32) -> MacAddr {
        let b = idx.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// The IPv4 multicast MAC for a group address (RFC 1112 §6.4: low 23
    /// bits of the group mapped under 01:00:5e).
    pub fn ipv4_multicast(group: crate::ipv4::Addr) -> MacAddr {
        let g = group.0;
        MacAddr([0x01, 0x00, 0x5e, g[1] & 0x7f, g[2], g[3]])
    }

    /// True for group (multicast/broadcast) addresses.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values used in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// The custom Layer-1 transport of [`crate::l1t`] (0x88B5, a value
    /// reserved for local experiments).
    L1Transport,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x88B5 => EtherType::L1Transport,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::L1Transport => 0x88B5,
            EtherType::Other(o) => o,
        }
    }
}

/// Zero-copy view of an Ethernet II frame.
#[derive(Debug)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Wrap a buffer, checking it is at least header-sized.
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(Frame { buffer })
    }

    /// Destination MAC.
    pub fn dst(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// Source MAC.
    pub fn src(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[6], b[7], b[8], b[9], b[10], b[11]])
    }

    /// EtherType field.
    pub fn ethertype(&self) -> EtherType {
        EtherType::from(get_u16_be(self.buffer.as_ref(), 12))
    }

    /// The L3 payload.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }

    /// Total frame length.
    pub fn len(&self) -> usize {
        self.buffer.as_ref().len()
    }

    /// True if the buffer holds only a header.
    pub fn is_empty(&self) -> bool {
        self.len() <= HEADER_LEN
    }

    /// Recover the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Set destination MAC.
    pub fn set_dst(&mut self, v: MacAddr) {
        self.buffer.as_mut()[0..6].copy_from_slice(&v.0);
    }

    /// Set source MAC.
    pub fn set_src(&mut self, v: MacAddr) {
        self.buffer.as_mut()[6..12].copy_from_slice(&v.0);
    }

    /// Set EtherType.
    pub fn set_ethertype(&mut self, v: EtherType) {
        set_u16_be(self.buffer.as_mut(), 12, v.into());
    }
}

/// Append a complete frame around `payload` to `out`, reusing whatever
/// capacity `out` already has.
pub fn emit_into(
    dst: MacAddr,
    src: MacAddr,
    ethertype: EtherType,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    let mut f = Frame::new_unchecked(&mut out[start..]);
    f.set_dst(dst);
    f.set_src(src);
    f.set_ethertype(ethertype);
    out.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_parse_roundtrip() {
        let payload = [0xAAu8; 46];
        let mut buf = Vec::new();
        emit_into(
            MacAddr::BROADCAST,
            MacAddr::host(3),
            EtherType::Ipv4,
            &payload,
            &mut buf,
        );
        assert_eq!(buf.len(), 60);
        let f = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.dst(), MacAddr::BROADCAST);
        assert_eq!(f.src(), MacAddr::host(3));
        assert_eq!(f.ethertype(), EtherType::Ipv4);
        assert_eq!(f.payload(), &payload);
        assert!(!f.is_empty());
    }

    #[test]
    fn truncated_frame_rejected() {
        assert!(Frame::new_checked(&[0u8; 13][..]).is_err());
        assert!(Frame::new_checked(&[0u8; 14][..]).is_ok());
    }

    #[test]
    fn multicast_mac_mapping() {
        let group = crate::ipv4::Addr([239, 1, 2, 3]);
        let mac = MacAddr::ipv4_multicast(group);
        assert_eq!(mac.0, [0x01, 0x00, 0x5e, 0x01, 0x02, 0x03]);
        assert!(mac.is_multicast());
        // High bit of the second group octet is masked off.
        let group = crate::ipv4::Addr([239, 129, 2, 3]);
        assert_eq!(MacAddr::ipv4_multicast(group).0[3], 0x01);
    }

    #[test]
    fn host_macs_are_unicast_and_unique() {
        assert!(!MacAddr::host(1).is_multicast());
        assert_ne!(MacAddr::host(1), MacAddr::host(2));
        assert_eq!(MacAddr::host(7).to_string(), "02:00:00:00:00:07");
    }

    #[test]
    fn ethertype_conversions() {
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(EtherType::from(0x88B5), EtherType::L1Transport);
        assert_eq!(EtherType::from(0x1234), EtherType::Other(0x1234));
        assert_eq!(u16::from(EtherType::Other(0x4321)), 0x4321);
    }
}
