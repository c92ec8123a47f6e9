//! IGMPv2-style group membership messages.
//!
//! Hosts join and leave the multicast groups carrying feed partitions;
//! switches snoop these to program their mroute tables (§3 "Multicast
//! Trends"). The format matches IGMPv2's 8-byte layout.

use crate::bytes::{internet_checksum, set_u16_be};
use crate::error::{Result, WireError};
use crate::ipv4;

/// Message length.
pub const MESSAGE_LEN: usize = 8;

/// IGMP message types used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Membership query (0x11).
    Query,
    /// Membership report, i.e. a join (0x16, the v2 report).
    Report,
    /// Leave group (0x17).
    Leave,
}

impl MessageType {
    fn to_wire(self) -> u8 {
        match self {
            MessageType::Query => 0x11,
            MessageType::Report => 0x16,
            MessageType::Leave => 0x17,
        }
    }

    fn from_wire(v: u8) -> Result<MessageType> {
        match v {
            0x11 => Ok(MessageType::Query),
            0x16 => Ok(MessageType::Report),
            0x17 => Ok(MessageType::Leave),
            _ => Err(WireError::BadField),
        }
    }
}

/// A decoded IGMP message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Message class.
    pub kind: MessageType,
    /// The group being joined/left/queried (zero for general queries).
    pub group: ipv4::Addr,
}

impl Message {
    /// Append the 8-byte encoding to `out`, reusing whatever capacity
    /// `out` already has.
    pub fn emit_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + MESSAGE_LEN, 0);
        let buf = &mut out[start..];
        buf[0] = self.kind.to_wire();
        buf[1] = 0; // max response time (unused in the simulator)
        buf[2] = 0;
        buf[3] = 0;
        buf[4..8].copy_from_slice(&self.group.0);
        let ck = internet_checksum(0, buf);
        set_u16_be(buf, 2, ck);
    }

    /// Decode from wire bytes, verifying length and checksum.
    pub fn parse(buf: &[u8]) -> Result<Message> {
        if buf.len() < MESSAGE_LEN {
            return Err(WireError::Truncated);
        }
        let buf = &buf[..MESSAGE_LEN];
        if internet_checksum(0, buf) != 0 {
            return Err(WireError::BadChecksum);
        }
        let kind = MessageType::from_wire(buf[0])?;
        let group = ipv4::Addr([buf[4], buf[5], buf[6], buf[7]]);
        Ok(Message { kind, group })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        for kind in [MessageType::Query, MessageType::Report, MessageType::Leave] {
            let m = Message {
                kind,
                group: ipv4::Addr::multicast_group(123),
            };
            let mut buf = Vec::new();
            m.emit_into(&mut buf);
            assert_eq!(buf.len(), MESSAGE_LEN);
            assert_eq!(Message::parse(&buf).unwrap(), m);
        }
    }

    #[test]
    fn corruption_and_truncation_rejected() {
        let m = Message {
            kind: MessageType::Report,
            group: ipv4::Addr::multicast_group(1),
        };
        let mut buf = Vec::new();
        m.emit_into(&mut buf);
        buf[5] ^= 0xff;
        assert_eq!(Message::parse(&buf).unwrap_err(), WireError::BadChecksum);
        assert_eq!(Message::parse(&buf[..7]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn unknown_type_rejected() {
        let m = Message {
            kind: MessageType::Report,
            group: ipv4::Addr::multicast_group(1),
        };
        let mut buf = Vec::new();
        m.emit_into(&mut buf);
        buf[0] = 0x99;
        // Fix up checksum so the type check is what fails.
        set_u16_be(&mut buf, 2, 0);
        let ck = internet_checksum(0, &buf);
        set_u16_be(&mut buf, 2, ck);
        assert_eq!(Message::parse(&buf).unwrap_err(), WireError::BadField);
    }
}
