//! The trading firm's internal *normalized* market-data format.
//!
//! Normalizers convert each exchange's native feed into this single fixed
//! 32-byte record and re-partition the result across internal multicast
//! groups (§2: "convert from each exchange's format to an internal
//! standard format, and also to re-partition the data"). A fixed-size
//! little-endian record lets strategies consume events with a single
//! branch-free load — the "execute directly on the relevant market data"
//! property the paper describes.
//!
//! Packets pack whole records behind an 8-byte header:
//!
//! ```text
//! Packet header (8 bytes)
//!   count     u8   number of records
//!   flags     u8
//!   partition u16  internal partition id
//!   sequence  u32  sequence of first record within the partition
//! Record (32 bytes each)
//!   kind        u8   1=BBO  2=Trade  3=Status  4=BookDelta
//!   exchange    u8   source exchange id
//!   side        u8   b'B'/b'S' (BBO, BookDelta); status code (Status)
//!   flags       u8
//!   symbol_id   u32  interned symbol (firm-wide dictionary)
//!   price       i64  1e-4 dollars
//!   size        u32
//!   aux         u32  kind-specific (BBO: opposite size; Trade: low 32 of exec id)
//!   src_time_ns u64  exchange timestamp, nanoseconds since midnight
//! ```

use crate::bytes::{
    get_i64_le, get_u16_le, get_u32_le, get_u64_le, set_i64_le, set_u16_le, set_u32_le, set_u64_le,
};
use crate::error::{Result, WireError};

/// Packet header length.
pub const PACKET_HEADER_LEN: usize = 8;
/// Fixed record length.
pub const RECORD_LEN: usize = 32;

/// Record kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Best bid/offer changed.
    Bbo,
    /// A trade printed.
    Trade,
    /// Trading status changed.
    Status,
    /// A depth-of-book delta (for strategies that build full books).
    BookDelta,
}

impl Kind {
    fn to_wire(self) -> u8 {
        match self {
            Kind::Bbo => 1,
            Kind::Trade => 2,
            Kind::Status => 3,
            Kind::BookDelta => 4,
        }
    }

    fn from_wire(v: u8) -> Result<Kind> {
        match v {
            1 => Ok(Kind::Bbo),
            2 => Ok(Kind::Trade),
            3 => Ok(Kind::Status),
            4 => Ok(Kind::BookDelta),
            _ => Err(WireError::BadField),
        }
    }
}

/// One normalized record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Event class.
    pub kind: Kind,
    /// Source exchange id (firm-internal numbering).
    pub exchange: u8,
    /// Side or status byte, per `kind`.
    pub side: u8,
    /// Flags (reserved).
    pub flags: u8,
    /// Interned symbol id.
    pub symbol_id: u32,
    /// Price (1e-4 dollars).
    pub price: i64,
    /// Size.
    pub size: u32,
    /// Kind-specific auxiliary field.
    pub aux: u32,
    /// Exchange timestamp, ns since midnight.
    pub src_time_ns: u64,
}

impl Record {
    /// Encode into exactly [`RECORD_LEN`] bytes appended to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + RECORD_LEN, 0);
        let b = &mut out[start..];
        b[0] = self.kind.to_wire();
        b[1] = self.exchange;
        b[2] = self.side;
        b[3] = self.flags;
        set_u32_le(b, 4, self.symbol_id);
        set_i64_le(b, 8, self.price);
        set_u32_le(b, 16, self.size);
        set_u32_le(b, 20, self.aux);
        set_u64_le(b, 24, self.src_time_ns);
    }

    /// Decode from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Record> {
        if buf.len() < RECORD_LEN {
            return Err(WireError::Truncated);
        }
        Ok(Record {
            kind: Kind::from_wire(buf[0])?,
            exchange: buf[1],
            side: buf[2],
            flags: buf[3],
            symbol_id: get_u32_le(buf, 4),
            price: get_i64_le(buf, 8),
            size: get_u32_le(buf, 16),
            aux: get_u32_le(buf, 20),
            src_time_ns: get_u64_le(buf, 24),
        })
    }
}

/// Zero-copy view of a normalized-feed packet (the UDP payload).
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap with validation: header present and count consistent with the
    /// buffer length.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < PACKET_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let p = Packet { buffer };
        let need = PACKET_HEADER_LEN + p.count() as usize * RECORD_LEN;
        if need > p.buffer.as_ref().len() {
            return Err(WireError::BadLength);
        }
        Ok(p)
    }

    /// Number of records.
    pub fn count(&self) -> u8 {
        self.buffer.as_ref()[0]
    }

    /// Internal partition id.
    pub fn partition(&self) -> u16 {
        get_u16_le(self.buffer.as_ref(), 2)
    }

    /// Sequence number of the first record.
    pub fn sequence(&self) -> u32 {
        get_u32_le(self.buffer.as_ref(), 4)
    }

    /// Iterate records (infallible once `new_checked` passed, except for
    /// bad kind bytes, which surface per-record).
    pub fn records(&self) -> impl Iterator<Item = Result<Record>> + '_ {
        let buf = &self.buffer.as_ref()[PACKET_HEADER_LEN..];
        (0..self.count() as usize).map(move |i| Record::parse(&buf[i * RECORD_LEN..]))
    }
}

/// Packs records into packets bounded by a maximum payload size.
pub struct PacketBuilder {
    partition: u16,
    next_seq: u32,
    max_records: u8,
    buf: Vec<u8>,
    count: u8,
}

impl PacketBuilder {
    /// Builder for `partition`, starting at `first_seq`, packing at most
    /// `max_payload` bytes per packet. Panics unless `max_payload` holds
    /// the header and at least one record.
    pub fn new(partition: u16, first_seq: u32, max_payload: usize) -> PacketBuilder {
        let room = max_payload.saturating_sub(PACKET_HEADER_LEN);
        assert!(room >= RECORD_LEN, "max_payload too small");
        let max_records = (room / RECORD_LEN).min(255) as u8;
        PacketBuilder {
            partition,
            next_seq: first_seq,
            max_records,
            buf: vec![0; PACKET_HEADER_LEN],
            count: 0,
        }
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Buffered record count.
    pub fn pending(&self) -> u8 {
        self.count
    }

    /// Append a record. When the buffer filled up *before* this record
    /// (which then starts the next packet), the sealed packet is appended
    /// to `out` and `true` is returned. The builder's working buffer is
    /// length-reset in place, so steady-state packing never allocates.
    pub fn push_into(&mut self, rec: &Record, out: &mut Vec<u8>) -> bool {
        let sealed = self.count == self.max_records;
        if sealed {
            self.seal_into(out);
        }
        rec.emit(&mut self.buf);
        self.count += 1;
        sealed
    }

    /// Seal the pending packet, if any records are pending, append it to
    /// `out` and return whether it did.
    pub fn flush_into(&mut self, out: &mut Vec<u8>) -> bool {
        if self.count == 0 {
            false
        } else {
            self.seal_into(out);
            true
        }
    }

    /// Fill the packet header in place, append the finished packet to
    /// `out`, and length-reset the working buffer (capacity kept).
    fn seal_into(&mut self, out: &mut Vec<u8>) {
        let count = self.count;
        self.count = 0;
        self.buf[0] = count;
        self.buf[1] = 0;
        set_u16_le(&mut self.buf, 2, self.partition);
        set_u32_le(&mut self.buf, 4, self.next_seq);
        self.next_seq = self.next_seq.wrapping_add(u32::from(count));
        out.extend_from_slice(&self.buf);
        self.buf.truncate(PACKET_HEADER_LEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u32) -> Record {
        Record {
            kind: Kind::Bbo,
            exchange: 2,
            side: b'B',
            flags: 0,
            symbol_id: i,
            price: 450_0000 + i64::from(i),
            size: 100 + i,
            aux: 200,
            src_time_ns: 34_200_000_000_000 + u64::from(i),
        }
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        for kind in [Kind::Bbo, Kind::Trade, Kind::Status, Kind::BookDelta] {
            let r = Record { kind, ..rec(5) };
            let mut buf = Vec::new();
            r.emit(&mut buf);
            assert_eq!(buf.len(), RECORD_LEN);
            assert_eq!(Record::parse(&buf).unwrap(), r);
        }
    }

    #[test]
    fn negative_prices_roundtrip() {
        // Options spreads and certain futures can print negative prices
        // (as crude oil famously did); the format must carry them.
        let r = Record {
            price: -37_6300,
            ..rec(1)
        };
        let mut buf = Vec::new();
        r.emit(&mut buf);
        assert_eq!(Record::parse(&buf).unwrap().price, -37_6300);
    }

    #[test]
    fn packet_roundtrip() {
        let mut pb = PacketBuilder::new(9, 1000, 1458);
        let mut packets = Vec::new();
        let n = 100u32;
        for i in 0..n {
            let mut p = Vec::new();
            if pb.push_into(&rec(i), &mut p) {
                packets.push(p);
            }
        }
        let mut last = Vec::new();
        assert!(pb.flush_into(&mut last));
        packets.push(last);
        let mut seen = Vec::new();
        let mut expect_seq = 1000;
        for p in &packets {
            let pkt = Packet::new_checked(&p[..]).unwrap();
            assert_eq!(pkt.partition(), 9);
            assert_eq!(pkt.sequence(), expect_seq);
            expect_seq += u32::from(pkt.count());
            // Max payload 1458 -> at most 45 records -> within one frame.
            assert!(p.len() <= 1458);
            for r in pkt.records() {
                seen.push(r.unwrap());
            }
        }
        assert_eq!(seen.len(), n as usize);
        assert_eq!(seen[0], rec(0));
        assert_eq!(seen[99], rec(99));
    }

    #[test]
    fn validation() {
        assert_eq!(
            Packet::new_checked(&[0u8; 4][..]).unwrap_err(),
            WireError::Truncated
        );
        let mut pb = PacketBuilder::new(0, 0, 200);
        let mut p = Vec::new();
        pb.push_into(&rec(0), &mut p);
        pb.flush_into(&mut p);
        p[0] = 10; // count larger than buffer
        assert_eq!(
            Packet::new_checked(&p[..]).unwrap_err(),
            WireError::BadLength
        );
        assert_eq!(Record::parse(&[0u8; 10]).unwrap_err(), WireError::Truncated);
        let mut buf = Vec::new();
        rec(0).emit(&mut buf);
        buf[0] = 99;
        assert_eq!(Record::parse(&buf).unwrap_err(), WireError::BadField);
    }

    #[test]
    fn builder_caps_records_per_packet() {
        // Tiny payload: header + 1 record.
        let mut pb = PacketBuilder::new(0, 0, PACKET_HEADER_LEN + RECORD_LEN);
        let mut pkt_bytes = Vec::new();
        assert!(!pb.push_into(&rec(0), &mut pkt_bytes));
        assert!(pb.push_into(&rec(1), &mut pkt_bytes));
        let pkt = Packet::new_checked(&pkt_bytes[..]).unwrap();
        assert_eq!(pkt.count(), 1);
        assert_eq!(pb.pending(), 1);
        assert_eq!(pb.next_seq(), 1);
    }

    #[test]
    #[should_panic(expected = "max_payload")]
    fn builder_refuses_a_budget_smaller_than_its_header() {
        PacketBuilder::new(0, 0, PACKET_HEADER_LEN - 4);
    }
}
