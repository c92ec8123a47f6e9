//! Whole-stack composition: build and parse Eth + IPv4 + UDP/TCP frames
//! in one call, plus the header-overhead constants the paper analyses.

use crate::error::{Result, WireError};
use crate::eth::{self, EtherType, MacAddr};
use crate::ipv4;
use crate::tcp;
use crate::udp;

/// Ethernet + IPv4 + UDP header bytes on every feed frame. Table 1's
/// commentary counts "40 bytes of network headers" (IP + UDP + Ethernet
/// minus some accounting); the exact stack is 14 + 20 + 8 = 42.
pub const UDP_OVERHEAD: usize = eth::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;

/// Ethernet + IPv4 + TCP header bytes on every order-entry segment.
pub const TCP_OVERHEAD: usize = eth::HEADER_LEN + ipv4::HEADER_LEN + tcp::HEADER_LEN;

/// Append `UDP_OVERHEAD` zero bytes of Eth+IPv4+UDP header space to
/// `out`, returning the frame's start offset. Write the application
/// payload after it, then call [`finish_udp`] on `&mut out[start..]` to
/// fill the headers in place — a single-pass, single-buffer emission with
/// no intermediate per-layer copies.
pub fn reserve_udp(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.resize(start + UDP_OVERHEAD, 0);
    start
}

/// Fill the Eth+IPv4+UDP headers of `frame` in place. `frame` must be a
/// complete frame-to-be: `UDP_OVERHEAD` reserved header bytes followed by
/// the application payload (see [`reserve_udp`]). Multicast destinations
/// get the RFC 1112 MAC mapping automatically when `dst_mac` is `None`.
pub fn finish_udp(
    frame: &mut [u8],
    src_mac: MacAddr,
    dst_mac: Option<MacAddr>,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
) {
    debug_assert!(frame.len() >= UDP_OVERHEAD);
    let dst_mac = dst_mac.unwrap_or_else(|| {
        if dst_ip.is_multicast() {
            MacAddr::ipv4_multicast(dst_ip)
        } else {
            MacAddr::BROADCAST
        }
    });
    let mut f = eth::Frame::new_unchecked(&mut frame[..]);
    f.set_dst(dst_mac);
    f.set_src(src_mac);
    f.set_ethertype(EtherType::Ipv4);
    let l4_start = eth::HEADER_LEN + ipv4::HEADER_LEN;
    udp::finish_header(&mut frame[l4_start..], src_ip, dst_ip, src_port, dst_port);
    ipv4::finish_header(
        &mut frame[eth::HEADER_LEN..],
        src_ip,
        dst_ip,
        ipv4::PROTO_UDP,
    );
}

/// Append a complete Ethernet/IPv4/UDP frame to `out` in a single pass
/// (one buffer, no per-layer copies). Writer-style counterpart of
/// [`build_udp`].
#[allow(clippy::too_many_arguments)]
pub fn emit_udp_into(
    src_mac: MacAddr,
    dst_mac: Option<MacAddr>,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    // One growth at most: a fresh arena buffer would otherwise grow for
    // the headers and again for the payload.
    out.reserve(UDP_OVERHEAD + payload.len());
    let start = reserve_udp(out);
    out.extend_from_slice(payload);
    finish_udp(
        &mut out[start..],
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
    );
}

/// Build a complete Ethernet/IPv4/UDP frame. Multicast destinations get
/// the RFC 1112 MAC mapping automatically.
pub fn build_udp(
    src_mac: MacAddr,
    dst_mac: Option<MacAddr>,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::new();
    emit_udp_into(
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, payload, &mut buf,
    );
    buf
}

/// Append `TCP_OVERHEAD` zero bytes of Eth+IPv4+TCP header space to
/// `out`, returning the frame's start offset; the TCP sibling of
/// [`reserve_udp`].
pub fn reserve_tcp(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.resize(start + TCP_OVERHEAD, 0);
    start
}

/// Fill the Eth+IPv4+TCP headers of `frame` in place. `frame` must be
/// `TCP_OVERHEAD` reserved header bytes followed by the stream payload
/// (see [`reserve_tcp`]).
#[allow(clippy::too_many_arguments)]
pub fn finish_tcp(
    frame: &mut [u8],
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: tcp::Flags,
) {
    debug_assert!(frame.len() >= TCP_OVERHEAD);
    let mut f = eth::Frame::new_unchecked(&mut frame[..]);
    f.set_dst(dst_mac);
    f.set_src(src_mac);
    f.set_ethertype(EtherType::Ipv4);
    let l4_start = eth::HEADER_LEN + ipv4::HEADER_LEN;
    tcp::finish_header(
        &mut frame[l4_start..],
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        seq,
        ack,
        flags,
    );
    ipv4::finish_header(
        &mut frame[eth::HEADER_LEN..],
        src_ip,
        dst_ip,
        ipv4::PROTO_TCP,
    );
}

/// Append a complete Ethernet/IPv4/TCP frame to `out` in a single pass
/// (one buffer, no per-layer copies). Writer-style counterpart of
/// [`build_tcp`].
#[allow(clippy::too_many_arguments)]
pub fn emit_tcp_into(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: tcp::Flags,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    out.reserve(TCP_OVERHEAD + payload.len());
    let start = reserve_tcp(out);
    out.extend_from_slice(payload);
    finish_tcp(
        &mut out[start..],
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        seq,
        ack,
        flags,
    );
}

/// Build a complete Ethernet/IPv4/TCP frame.
#[allow(clippy::too_many_arguments)]
pub fn build_tcp(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: tcp::Flags,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::new();
    emit_tcp_into(
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags, payload, &mut buf,
    );
    buf
}

/// A parsed view of a UDP frame: addressing plus payload bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpView<'a> {
    /// L2 source.
    pub src_mac: MacAddr,
    /// L3 source.
    pub src_ip: ipv4::Addr,
    /// L3 destination (multicast group for feeds).
    pub dst_ip: ipv4::Addr,
    /// L4 source port.
    pub src_port: u16,
    /// L4 destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: &'a [u8],
}

/// Parse a frame expected to be Ethernet/IPv4/UDP.
pub fn parse_udp(frame: &[u8]) -> Result<UdpView<'_>> {
    let eth = eth::Frame::new_checked(frame)?;
    if eth.ethertype() != EtherType::Ipv4 {
        return Err(WireError::BadField);
    }
    let src_mac = eth.src();
    let ip = ipv4::Packet::new_checked(&frame[eth::HEADER_LEN..])?;
    if ip.protocol() != ipv4::PROTO_UDP {
        return Err(WireError::BadField);
    }
    let (src_ip, dst_ip) = (ip.src(), ip.dst());
    let ip_payload_start = eth::HEADER_LEN + ipv4::HEADER_LEN;
    let ip_payload_end = eth::HEADER_LEN + ip.total_len() as usize;
    let dgram = udp::Datagram::new_checked(&frame[ip_payload_start..ip_payload_end])?;
    let payload_start = ip_payload_start + udp::HEADER_LEN;
    let payload_end = ip_payload_start + dgram.len_field() as usize;
    Ok(UdpView {
        src_mac,
        src_ip,
        dst_ip,
        src_port: dgram.src_port(),
        dst_port: dgram.dst_port(),
        payload: &frame[payload_start..payload_end],
    })
}

/// A parsed view of a TCP frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpView<'a> {
    /// L2 source.
    pub src_mac: MacAddr,
    /// L3 source.
    pub src_ip: ipv4::Addr,
    /// L3 destination.
    pub dst_ip: ipv4::Addr,
    /// L4 source port.
    pub src_port: u16,
    /// L4 destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: tcp::Flags,
    /// Stream payload bytes.
    pub payload: &'a [u8],
}

/// Parse a frame expected to be Ethernet/IPv4/TCP.
pub fn parse_tcp(frame: &[u8]) -> Result<TcpView<'_>> {
    let eth = eth::Frame::new_checked(frame)?;
    if eth.ethertype() != EtherType::Ipv4 {
        return Err(WireError::BadField);
    }
    let src_mac = eth.src();
    let ip = ipv4::Packet::new_checked(&frame[eth::HEADER_LEN..])?;
    if ip.protocol() != ipv4::PROTO_TCP {
        return Err(WireError::BadField);
    }
    let (src_ip, dst_ip) = (ip.src(), ip.dst());
    let seg_start = eth::HEADER_LEN + ipv4::HEADER_LEN;
    let seg_end = eth::HEADER_LEN + ip.total_len() as usize;
    let seg = tcp::Segment::new_checked(&frame[seg_start..seg_end])?;
    let payload_start = seg_start + seg.header_len();
    Ok(TcpView {
        src_mac,
        src_ip,
        dst_ip,
        src_port: seg.src_port(),
        dst_port: seg.dst_port(),
        seq: seg.seq(),
        ack: seg.ack(),
        flags: seg.flags(),
        payload: &frame[payload_start..seg_end],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC_IP: ipv4::Addr = ipv4::Addr::new(10, 0, 0, 1);

    #[test]
    fn udp_stack_roundtrip_multicast() {
        let group = ipv4::Addr::multicast_group(42);
        let frame = build_udp(
            MacAddr::host(1),
            None,
            SRC_IP,
            group,
            30001,
            30001,
            b"pitch packet",
        );
        assert_eq!(frame.len(), UDP_OVERHEAD + 12);
        let v = parse_udp(&frame).unwrap();
        let dst = eth::Frame::new_checked(&frame[..]).unwrap().dst();
        assert_eq!(dst, MacAddr::ipv4_multicast(group));
        assert_eq!(v.src_mac, MacAddr::host(1));
        assert_eq!(v.dst_ip, group);
        assert_eq!(v.src_ip, SRC_IP);
        assert_eq!(v.src_port, 30001);
        assert_eq!(v.payload, b"pitch packet");
    }

    #[test]
    fn tcp_stack_roundtrip() {
        let dst_ip = ipv4::Addr::new(10, 0, 255, 1);
        let frame = build_tcp(
            MacAddr::host(1),
            MacAddr::host(2),
            SRC_IP,
            dst_ip,
            49152,
            7001,
            111,
            222,
            tcp::Flags::ACK | tcp::Flags::PSH,
            b"boe msg",
        );
        assert_eq!(frame.len(), TCP_OVERHEAD + 7);
        let v = parse_tcp(&frame).unwrap();
        assert_eq!(v.seq, 111);
        assert_eq!(v.ack, 222);
        assert!(v.flags.contains(tcp::Flags::PSH));
        assert_eq!(v.payload, b"boe msg");
        assert_eq!(v.dst_ip, dst_ip);
    }

    #[test]
    fn overhead_constants_match_paper_discussion() {
        // The paper counts ~40 bytes of network headers per feed packet;
        // the exact Eth+IP+UDP stack is 42 and Eth+IP+TCP is 54.
        assert_eq!(UDP_OVERHEAD, 42);
        assert_eq!(TCP_OVERHEAD, 54);
    }

    #[test]
    fn parse_rejects_wrong_protocols() {
        let group = ipv4::Addr::multicast_group(1);
        let udp_frame = build_udp(MacAddr::host(1), None, SRC_IP, group, 1, 2, b"x");
        assert_eq!(parse_tcp(&udp_frame).unwrap_err(), WireError::BadField);
        let tcp_frame = build_tcp(
            MacAddr::host(1),
            MacAddr::host(2),
            SRC_IP,
            ipv4::Addr::new(10, 0, 0, 2),
            1,
            2,
            0,
            0,
            tcp::Flags::SYN,
            b"",
        );
        assert_eq!(parse_udp(&tcp_frame).unwrap_err(), WireError::BadField);
        // Non-IPv4 ethertype.
        let l1 = eth::build(
            MacAddr::host(2),
            MacAddr::host(1),
            EtherType::L1Transport,
            b"xx",
        );
        assert_eq!(parse_udp(&l1).unwrap_err(), WireError::BadField);
    }

    #[test]
    fn padded_frames_parse_cleanly() {
        // Ethernet minimum-size padding must not corrupt payload bounds.
        let group = ipv4::Addr::multicast_group(1);
        let mut frame = build_udp(MacAddr::host(1), None, SRC_IP, group, 1, 2, b"ab");
        frame.resize(60, 0); // the 64-byte minimum frame, FCS excluded
        let v = parse_udp(&frame).unwrap();
        assert_eq!(v.payload, b"ab");
    }
}
