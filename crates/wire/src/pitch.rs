//! A sequenced multicast depth-of-book feed protocol modeled on Cboe PITCH.
//!
//! Exchanges disseminate market data as UDP multicast packets, each packing
//! several small binary messages behind a *sequenced unit header* (§2 of
//! the paper; format modeled on the Cboe "Multicast PITCH" specification
//! the paper cites). Message sizes match the figures quoted in the paper:
//! a short add-order is **26 bytes** and an order delete is **14 bytes**.
//!
//! Layout (all integers little-endian, as in real US market-data feeds):
//!
//! ```text
//! Sequenced Unit Header (8 bytes)
//!   length   u16   whole packet length including this header
//!   count    u8    number of messages that follow
//!   unit     u8    feed partition ("unit") this packet belongs to
//!   sequence u32   sequence number of the first message
//! Message (variable)
//!   length   u8    message length including this byte
//!   type     u8    discriminant
//!   ...            type-specific fields
//! ```
//!
//! Messages carry nanosecond offsets relative to the last `Time` message
//! on the unit, exactly as PITCH does, which is part of why the encoding
//! is so compact.

use crate::bytes::{get_u16_le, get_u32_le, get_u64_le, set_u16_le, set_u32_le, set_u64_le};
use crate::error::{Result, WireError};
use crate::symbol::Symbol;

/// Sequenced unit header length.
pub const UNIT_HEADER_LEN: usize = 8;

/// Message type discriminants.
pub mod msg_type {
    pub const TIME: u8 = 0x20;
    pub const ADD_ORDER_LONG: u8 = 0x21;
    pub const ADD_ORDER_SHORT: u8 = 0x22;
    pub const ORDER_EXECUTED: u8 = 0x23;
    pub const REDUCE_SIZE_LONG: u8 = 0x25;
    pub const REDUCE_SIZE_SHORT: u8 = 0x26;
    pub const MODIFY_ORDER_LONG: u8 = 0x27;
    pub const MODIFY_ORDER_SHORT: u8 = 0x28;
    pub const DELETE_ORDER: u8 = 0x29;
    pub const TRADE_LONG: u8 = 0x2A;
    pub const TRADE_SHORT: u8 = 0x2B;
    pub const TRADING_STATUS: u8 = 0x31;
}

/// Buy or sell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Bid side.
    Buy,
    /// Ask side.
    Sell,
}

impl Side {
    fn to_wire(self) -> u8 {
        match self {
            Side::Buy => b'B',
            Side::Sell => b'S',
        }
    }

    fn from_wire(v: u8) -> Result<Side> {
        match v {
            b'B' => Ok(Side::Buy),
            b'S' => Ok(Side::Sell),
            _ => Err(WireError::BadField),
        }
    }
}

/// Prices are integer 1/10000ths of a dollar (four implied decimals), the
/// "long" PITCH convention. Short encodings carry whole cents.
pub type Price = u64;

/// A decoded feed message.
///
/// Price/quantity fields are normalized to their widest form; the encoder
/// automatically picks the short variant when values fit, which is what
/// produces the realistic frame-length mix of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Unit timestamp: seconds since midnight. Subsequent messages carry
    /// nanosecond offsets from this.
    Time {
        /// Seconds since midnight (exchange local).
        seconds: u32,
    },
    /// A new visible order on the book.
    AddOrder {
        /// Nanoseconds since the last `Time` message.
        offset_ns: u32,
        /// Exchange-assigned order id.
        order_id: u64,
        /// Side of the book.
        side: Side,
        /// Displayed quantity.
        qty: u32,
        /// Instrument.
        symbol: Symbol,
        /// Limit price (1e-4 dollars).
        price: Price,
    },
    /// An order traded (partially or fully).
    OrderExecuted {
        /// Nanoseconds since the last `Time` message.
        offset_ns: u32,
        /// Resting order id.
        order_id: u64,
        /// Executed quantity.
        qty: u32,
        /// Execution id, unique per trade.
        exec_id: u64,
    },
    /// An order's displayed size decreased.
    ReduceSize {
        /// Nanoseconds since the last `Time` message.
        offset_ns: u32,
        /// Order id.
        order_id: u64,
        /// Quantity canceled (not the remaining size).
        qty: u32,
    },
    /// An order's price/size changed, keeping priority rules out of scope.
    ModifyOrder {
        /// Nanoseconds since the last `Time` message.
        offset_ns: u32,
        /// Order id.
        order_id: u64,
        /// New displayed quantity.
        qty: u32,
        /// New limit price (1e-4 dollars).
        price: Price,
    },
    /// An order left the book. **14 bytes on the wire** — the cancellation
    /// size the paper quotes.
    DeleteOrder {
        /// Nanoseconds since the last `Time` message.
        offset_ns: u32,
        /// Order id.
        order_id: u64,
    },
    /// A trade against a hidden or implied order (prints without a resting
    /// order id having been advertised).
    Trade {
        /// Nanoseconds since the last `Time` message.
        offset_ns: u32,
        /// Matched order id.
        order_id: u64,
        /// Aggressor side.
        side: Side,
        /// Executed quantity.
        qty: u32,
        /// Instrument.
        symbol: Symbol,
        /// Execution price (1e-4 dollars).
        price: Price,
        /// Execution id.
        exec_id: u64,
    },
    /// Halt/resume and similar per-symbol state changes.
    TradingStatus {
        /// Nanoseconds since the last `Time` message.
        offset_ns: u32,
        /// Instrument.
        symbol: Symbol,
        /// Status code (exchange-specific; `b'T'` trading, `b'H'` halted).
        status: u8,
    },
}

/// Maximum quantity representable in short encodings.
const SHORT_QTY_MAX: u32 = u16::MAX as u32;
/// Short encodings carry whole cents in a u16.
const SHORT_PRICE_MAX: Price = (u16::MAX as u64) * 100;

fn price_fits_short(price: Price) -> bool {
    price.is_multiple_of(100) && price <= SHORT_PRICE_MAX
}

impl Message {
    /// Encoded length in bytes (short/long variant chosen automatically).
    pub fn wire_len(&self) -> usize {
        match self {
            Message::Time { .. } => 6,
            Message::AddOrder { qty, price, .. } => {
                if *qty <= SHORT_QTY_MAX && price_fits_short(*price) {
                    26
                } else {
                    34
                }
            }
            Message::OrderExecuted { .. } => 26,
            Message::ReduceSize { qty, .. } => {
                if *qty <= SHORT_QTY_MAX {
                    16
                } else {
                    18
                }
            }
            Message::ModifyOrder { qty, price, .. } => {
                if *qty <= SHORT_QTY_MAX && price_fits_short(*price) {
                    19
                } else {
                    27
                }
            }
            Message::DeleteOrder { .. } => 14,
            Message::Trade { qty, price, .. } => {
                if *qty <= SHORT_QTY_MAX && price_fits_short(*price) {
                    33
                } else {
                    41
                }
            }
            Message::TradingStatus { .. } => 14,
        }
    }

    /// The symbol the message concerns, if it carries one on the wire.
    /// (Executions/deletes refer to orders whose symbol the receiver
    /// learned from the original add — PITCH's statefulness, which is why
    /// normalizers and book builders must track order ids.)
    pub fn symbol(&self) -> Option<Symbol> {
        match self {
            Message::AddOrder { symbol, .. }
            | Message::Trade { symbol, .. }
            | Message::TradingStatus { symbol, .. } => Some(*symbol),
            _ => None,
        }
    }

    /// The order id the message concerns, if any.
    pub fn order_id(&self) -> Option<u64> {
        match self {
            Message::AddOrder { order_id, .. }
            | Message::OrderExecuted { order_id, .. }
            | Message::ReduceSize { order_id, .. }
            | Message::ModifyOrder { order_id, .. }
            | Message::DeleteOrder { order_id, .. }
            | Message::Trade { order_id, .. } => Some(*order_id),
            _ => None,
        }
    }

    /// Append the wire encoding to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let len = self.wire_len();
        out.resize(start + len, 0);
        let b = &mut out[start..];
        b[0] = len as u8;
        match *self {
            Message::Time { seconds } => {
                b[1] = msg_type::TIME;
                set_u32_le(b, 2, seconds);
            }
            Message::AddOrder {
                offset_ns,
                order_id,
                side,
                qty,
                symbol,
                price,
            } => {
                set_u32_le(b, 2, offset_ns);
                set_u64_le(b, 6, order_id);
                b[14] = side.to_wire();
                if len == 26 {
                    b[1] = msg_type::ADD_ORDER_SHORT;
                    set_u16_le(b, 15, qty as u16);
                    symbol.to_wire(&mut b[17..23]);
                    set_u16_le(b, 23, (price / 100) as u16);
                    b[25] = 0; // flags
                } else {
                    b[1] = msg_type::ADD_ORDER_LONG;
                    set_u32_le(b, 15, qty);
                    symbol.to_wire(&mut b[19..25]);
                    set_u64_le(b, 25, price);
                    b[33] = 0; // flags
                }
            }
            Message::OrderExecuted {
                offset_ns,
                order_id,
                qty,
                exec_id,
            } => {
                b[1] = msg_type::ORDER_EXECUTED;
                set_u32_le(b, 2, offset_ns);
                set_u64_le(b, 6, order_id);
                set_u32_le(b, 14, qty);
                set_u64_le(b, 18, exec_id);
            }
            Message::ReduceSize {
                offset_ns,
                order_id,
                qty,
            } => {
                set_u32_le(b, 2, offset_ns);
                set_u64_le(b, 6, order_id);
                if len == 16 {
                    b[1] = msg_type::REDUCE_SIZE_SHORT;
                    set_u16_le(b, 14, qty as u16);
                } else {
                    b[1] = msg_type::REDUCE_SIZE_LONG;
                    set_u32_le(b, 14, qty);
                }
            }
            Message::ModifyOrder {
                offset_ns,
                order_id,
                qty,
                price,
            } => {
                set_u32_le(b, 2, offset_ns);
                set_u64_le(b, 6, order_id);
                if len == 19 {
                    b[1] = msg_type::MODIFY_ORDER_SHORT;
                    set_u16_le(b, 14, qty as u16);
                    set_u16_le(b, 16, (price / 100) as u16);
                    b[18] = 0; // flags
                } else {
                    b[1] = msg_type::MODIFY_ORDER_LONG;
                    set_u32_le(b, 14, qty);
                    set_u64_le(b, 18, price);
                    b[26] = 0; // flags
                }
            }
            Message::DeleteOrder {
                offset_ns,
                order_id,
            } => {
                b[1] = msg_type::DELETE_ORDER;
                set_u32_le(b, 2, offset_ns);
                set_u64_le(b, 6, order_id);
            }
            Message::Trade {
                offset_ns,
                order_id,
                side,
                qty,
                symbol,
                price,
                exec_id,
            } => {
                set_u32_le(b, 2, offset_ns);
                set_u64_le(b, 6, order_id);
                b[14] = side.to_wire();
                if len == 33 {
                    b[1] = msg_type::TRADE_SHORT;
                    set_u16_le(b, 15, qty as u16);
                    symbol.to_wire(&mut b[17..23]);
                    set_u16_le(b, 23, (price / 100) as u16);
                    set_u64_le(b, 25, exec_id);
                } else {
                    b[1] = msg_type::TRADE_LONG;
                    set_u32_le(b, 15, qty);
                    symbol.to_wire(&mut b[19..25]);
                    set_u64_le(b, 25, price);
                    set_u64_le(b, 33, exec_id);
                }
            }
            Message::TradingStatus {
                offset_ns,
                symbol,
                status,
            } => {
                b[1] = msg_type::TRADING_STATUS;
                set_u32_le(b, 2, offset_ns);
                symbol.to_wire(&mut b[6..12]);
                b[12] = status;
                b[13] = 0; // reserved
            }
        }
    }

    /// Decode one message from the front of `buf`, returning it and its
    /// wire length.
    pub fn parse(buf: &[u8]) -> Result<(Message, usize)> {
        if buf.len() < 2 {
            return Err(WireError::Truncated);
        }
        let len = buf[0] as usize;
        if len < 2 || len > buf.len() {
            return Err(WireError::BadLength);
        }
        let b = &buf[..len];
        let msg = match b[1] {
            msg_type::TIME => {
                Self::expect_len(len, 6)?;
                Message::Time {
                    seconds: get_u32_le(b, 2),
                }
            }
            msg_type::ADD_ORDER_SHORT => {
                Self::expect_len(len, 26)?;
                Message::AddOrder {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    side: Side::from_wire(b[14])?,
                    qty: u32::from(get_u16_le(b, 15)),
                    symbol: Symbol::from_wire(&b[17..23]),
                    price: u64::from(get_u16_le(b, 23)) * 100,
                }
            }
            msg_type::ADD_ORDER_LONG => {
                Self::expect_len(len, 34)?;
                Message::AddOrder {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    side: Side::from_wire(b[14])?,
                    qty: get_u32_le(b, 15),
                    symbol: Symbol::from_wire(&b[19..25]),
                    price: get_u64_le(b, 25),
                }
            }
            msg_type::ORDER_EXECUTED => {
                Self::expect_len(len, 26)?;
                Message::OrderExecuted {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    qty: get_u32_le(b, 14),
                    exec_id: get_u64_le(b, 18),
                }
            }
            msg_type::REDUCE_SIZE_SHORT => {
                Self::expect_len(len, 16)?;
                Message::ReduceSize {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    qty: u32::from(get_u16_le(b, 14)),
                }
            }
            msg_type::REDUCE_SIZE_LONG => {
                Self::expect_len(len, 18)?;
                Message::ReduceSize {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    qty: get_u32_le(b, 14),
                }
            }
            msg_type::MODIFY_ORDER_SHORT => {
                Self::expect_len(len, 19)?;
                Message::ModifyOrder {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    qty: u32::from(get_u16_le(b, 14)),
                    price: u64::from(get_u16_le(b, 16)) * 100,
                }
            }
            msg_type::MODIFY_ORDER_LONG => {
                Self::expect_len(len, 27)?;
                Message::ModifyOrder {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    qty: get_u32_le(b, 14),
                    price: get_u64_le(b, 18),
                }
            }
            msg_type::DELETE_ORDER => {
                Self::expect_len(len, 14)?;
                Message::DeleteOrder {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                }
            }
            msg_type::TRADE_SHORT => {
                Self::expect_len(len, 33)?;
                Message::Trade {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    side: Side::from_wire(b[14])?,
                    qty: u32::from(get_u16_le(b, 15)),
                    symbol: Symbol::from_wire(&b[17..23]),
                    price: u64::from(get_u16_le(b, 23)) * 100,
                    exec_id: get_u64_le(b, 25),
                }
            }
            msg_type::TRADE_LONG => {
                Self::expect_len(len, 41)?;
                Message::Trade {
                    offset_ns: get_u32_le(b, 2),
                    order_id: get_u64_le(b, 6),
                    side: Side::from_wire(b[14])?,
                    qty: get_u32_le(b, 15),
                    symbol: Symbol::from_wire(&b[19..25]),
                    price: get_u64_le(b, 25),
                    exec_id: get_u64_le(b, 33),
                }
            }
            msg_type::TRADING_STATUS => {
                Self::expect_len(len, 14)?;
                Message::TradingStatus {
                    offset_ns: get_u32_le(b, 2),
                    symbol: Symbol::from_wire(&b[6..12]),
                    status: b[12],
                }
            }
            _ => return Err(WireError::BadField),
        };
        Ok((msg, len))
    }

    fn expect_len(got: usize, want: usize) -> Result<()> {
        if got == want {
            Ok(())
        } else {
            Err(WireError::BadLength)
        }
    }
}

/// Zero-copy view of a sequenced-unit packet (the UDP payload).
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap with validation: header present, length field consistent.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < UNIT_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let p = Packet { buffer };
        let l = p.packet_len() as usize;
        if l < UNIT_HEADER_LEN || l > len {
            return Err(WireError::BadLength);
        }
        Ok(p)
    }

    /// Whole-packet length from the header.
    pub fn packet_len(&self) -> u16 {
        get_u16_le(self.buffer.as_ref(), 0)
    }

    /// Number of messages.
    pub fn count(&self) -> u8 {
        self.buffer.as_ref()[2]
    }

    /// Feed unit (partition) id.
    pub fn unit(&self) -> u8 {
        self.buffer.as_ref()[3]
    }

    /// Sequence number of the first message.
    pub fn sequence(&self) -> u32 {
        get_u32_le(self.buffer.as_ref(), 4)
    }

    /// Iterate over the packed messages.
    pub fn messages(&self) -> MessageIter<'_> {
        MessageIter {
            buf: &self.buffer.as_ref()[UNIT_HEADER_LEN..self.packet_len() as usize],
            remaining: self.count(),
        }
    }
}

/// Iterator over messages in a packet; yields `Err` once and then stops if
/// the payload is malformed.
pub struct MessageIter<'a> {
    buf: &'a [u8],
    remaining: u8,
}

impl Iterator for MessageIter<'_> {
    type Item = Result<Message>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        match Message::parse(self.buf) {
            Ok((msg, len)) => {
                self.buf = &self.buf[len..];
                self.remaining -= 1;
                Some(Ok(msg))
            }
            Err(e) => {
                self.remaining = 0;
                Some(Err(e))
            }
        }
    }
}

/// A retransmission request, sent over a separate unicast channel to the
/// exchange's gap-request server (real sequenced feeds pair the multicast
/// stream with exactly this mechanism; §2's "stateful protocols").
///
/// Wire layout (9 bytes, little-endian): `magic(0x47) unit u8 seq u32
/// count u16 checksum u8` where the checksum is the XOR of all prior
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapRequest {
    /// Feed unit the gap is on.
    pub unit: u8,
    /// First missing sequence number.
    pub seq: u32,
    /// Number of missing messages.
    pub count: u16,
}

/// Gap request wire length.
pub const GAP_REQUEST_LEN: usize = 9;
const GAP_MAGIC: u8 = 0x47;

impl GapRequest {
    /// Append the 9-byte encoding to `out`, reusing whatever capacity
    /// `out` already has.
    pub fn emit_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + GAP_REQUEST_LEN, 0);
        let b = &mut out[start..];
        b[0] = GAP_MAGIC;
        b[1] = self.unit;
        set_u32_le(b, 2, self.seq);
        set_u16_le(b, 6, self.count);
        b[8] = b[..8].iter().fold(0, |a, &x| a ^ x);
    }

    /// Decode from wire bytes.
    pub fn parse(buf: &[u8]) -> Result<GapRequest> {
        if buf.len() < GAP_REQUEST_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] != GAP_MAGIC {
            return Err(WireError::BadField);
        }
        if buf[..8].iter().fold(0u8, |a, &x| a ^ x) != buf[8] {
            return Err(WireError::BadChecksum);
        }
        Ok(GapRequest {
            unit: buf[1],
            seq: get_u32_le(buf, 2),
            count: get_u16_le(buf, 6),
        })
    }
}

/// Accumulates messages into sequenced-unit packets, respecting a maximum
/// packet size — this packing is what produces multi-message frames and
/// the length distribution of Table 1.
pub struct PacketBuilder {
    unit: u8,
    next_seq: u32,
    max_payload: usize,
    buf: Vec<u8>,
    count: u8,
}

impl PacketBuilder {
    /// Start building packets for `unit`, with `first_seq` as the next
    /// message sequence and `max_payload` as the largest UDP payload to
    /// emit (typically MTU − 42).
    pub fn new(unit: u8, first_seq: u32, max_payload: usize) -> PacketBuilder {
        assert!(max_payload >= UNIT_HEADER_LEN + 64, "max_payload too small");
        let mut buf = Vec::with_capacity(max_payload);
        buf.resize(UNIT_HEADER_LEN, 0);
        PacketBuilder {
            unit,
            next_seq: first_seq,
            max_payload,
            buf,
            count: 0,
        }
    }

    /// Next sequence number that will be assigned.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Number of messages buffered in the current packet.
    pub fn pending(&self) -> u8 {
        self.count
    }

    /// Append a message. Returns a completed packet if the message did not
    /// fit (the packet is sealed *without* it and the message starts the
    /// next packet) or if the packet reached 255 messages.
    pub fn push(&mut self, msg: &Message) -> Option<Vec<u8>> {
        let len = msg.wire_len();
        let flushed = if self.buf.len() + len > self.max_payload || self.count == u8::MAX {
            let mut packet = Vec::with_capacity(self.max_payload);
            self.seal_into(&mut packet);
            Some(packet)
        } else {
            None
        };
        msg.emit(&mut self.buf);
        self.count += 1;
        flushed
    }

    /// Writer-style [`PacketBuilder::push`]: when the message does not fit
    /// (or the packet reached 255 messages), the completed packet is
    /// appended to `out` and `true` is returned. The builder's working
    /// buffer is length-reset in place, so steady-state packing never
    /// allocates.
    pub fn push_into(&mut self, msg: &Message, out: &mut Vec<u8>) -> bool {
        let len = msg.wire_len();
        let sealed = self.buf.len() + len > self.max_payload || self.count == u8::MAX;
        if sealed {
            self.seal_into(out);
        }
        msg.emit(&mut self.buf);
        self.count += 1;
        sealed
    }

    /// Seal and return the current packet, if it holds any messages.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        if self.count == 0 {
            None
        } else {
            let mut packet = Vec::with_capacity(self.max_payload);
            self.seal_into(&mut packet);
            Some(packet)
        }
    }

    /// Writer-style [`PacketBuilder::flush`]: appends the sealed packet to
    /// `out` (if any messages are pending) and returns whether it did.
    pub fn flush_into(&mut self, out: &mut Vec<u8>) -> bool {
        if self.count == 0 {
            false
        } else {
            self.seal_into(out);
            true
        }
    }

    /// Fill the unit header in place, append the finished packet to `out`,
    /// and length-reset the working buffer (capacity kept — the next
    /// packet packs into the same allocation).
    fn seal_into(&mut self, out: &mut Vec<u8>) {
        let count = self.count;
        self.count = 0;
        let packet_len = self.buf.len() as u16;
        set_u16_le(&mut self.buf, 0, packet_len);
        self.buf[2] = count;
        self.buf[3] = self.unit;
        set_u32_le(&mut self.buf, 4, self.next_seq);
        self.next_seq = self.next_seq.wrapping_add(u32::from(count));
        out.extend_from_slice(&self.buf);
        self.buf.truncate(UNIT_HEADER_LEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s).unwrap()
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Time { seconds: 34_200 },
            Message::AddOrder {
                offset_ns: 10,
                order_id: 1,
                side: Side::Buy,
                qty: 100,
                symbol: sym("SPY"),
                price: 450_0000,
            },
            Message::AddOrder {
                offset_ns: 20,
                order_id: 2,
                side: Side::Sell,
                qty: 1_000_000, // forces long encoding
                symbol: sym("BRKA"),
                price: 6_213_450_001, // odd ticks force long encoding
            },
            Message::OrderExecuted {
                offset_ns: 30,
                order_id: 1,
                qty: 50,
                exec_id: 900,
            },
            Message::ReduceSize {
                offset_ns: 40,
                order_id: 2,
                qty: 25,
            },
            Message::ReduceSize {
                offset_ns: 41,
                order_id: 2,
                qty: 100_000,
            },
            Message::ModifyOrder {
                offset_ns: 50,
                order_id: 1,
                qty: 75,
                price: 449_9900,
            },
            Message::ModifyOrder {
                offset_ns: 51,
                order_id: 1,
                qty: 75,
                price: 449_9901,
            },
            Message::DeleteOrder {
                offset_ns: 60,
                order_id: 1,
            },
            Message::Trade {
                offset_ns: 70,
                order_id: 3,
                side: Side::Buy,
                qty: 10,
                symbol: sym("QQQ"),
                price: 380_0000,
                exec_id: 901,
            },
            Message::TradingStatus {
                offset_ns: 80,
                symbol: sym("SPY"),
                status: b'T',
            },
        ]
    }

    #[test]
    fn paper_quoted_sizes() {
        // §5: "26 bytes for a new order and 14 bytes for an order
        // cancellation on PITCH".
        let add = Message::AddOrder {
            offset_ns: 0,
            order_id: 1,
            side: Side::Buy,
            qty: 100,
            symbol: sym("IBM"),
            price: 100_0000,
        };
        assert_eq!(add.wire_len(), 26);
        let del = Message::DeleteOrder {
            offset_ns: 0,
            order_id: 1,
        };
        assert_eq!(del.wire_len(), 14);
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let mut buf = Vec::new();
            msg.emit(&mut buf);
            assert_eq!(
                buf.len(),
                msg.wire_len(),
                "emit/wire_len mismatch for {msg:?}"
            );
            assert_eq!(buf[0] as usize, buf.len());
            let (parsed, used) = Message::parse(&buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(parsed, msg);
        }
    }

    #[test]
    fn short_long_selection() {
        let make = |qty: u32, price: Price| Message::AddOrder {
            offset_ns: 0,
            order_id: 1,
            side: Side::Buy,
            qty,
            symbol: sym("A"),
            price,
        };
        assert_eq!(make(65535, 100).wire_len(), 26);
        assert_eq!(make(65536, 100).wire_len(), 34); // qty too large for short
        assert_eq!(make(100, 101).wire_len(), 34); // sub-cent tick
        assert_eq!(make(100, SHORT_PRICE_MAX + 100).wire_len(), 34); // price too high
    }

    #[test]
    fn packet_builder_packs_and_sequences() {
        let mut pb = PacketBuilder::new(3, 100, 200);
        let msgs = sample_messages();
        let mut packets = Vec::new();
        for m in &msgs {
            if let Some(p) = pb.push(m) {
                packets.push(p);
            }
        }
        if let Some(p) = pb.flush() {
            packets.push(p);
        }
        assert!(pb.flush().is_none());

        // Parse everything back out and compare.
        let mut decoded = Vec::new();
        let mut expect_seq = 100u32;
        for p in &packets {
            assert!(p.len() <= 200);
            let pkt = Packet::new_checked(&p[..]).unwrap();
            assert_eq!(pkt.unit(), 3);
            assert_eq!(pkt.sequence(), expect_seq);
            expect_seq += u32::from(pkt.count());
            for m in pkt.messages() {
                decoded.push(m.unwrap());
            }
        }
        assert_eq!(decoded, msgs);
        assert_eq!(pb.next_seq(), 100 + msgs.len() as u32);
    }

    #[test]
    fn packet_builder_respects_max_payload() {
        let mut pb = PacketBuilder::new(0, 0, 100);
        let add = Message::AddOrder {
            offset_ns: 0,
            order_id: 1,
            side: Side::Buy,
            qty: 10,
            symbol: sym("SPY"),
            price: 100_0000,
        };
        let mut sealed = 0;
        for _ in 0..10 {
            if pb.push(&add).is_some() {
                sealed += 1;
            }
        }
        // 8 + 26*3 = 86 fits; a 4th add would hit 112 > 100.
        assert!(sealed >= 2);
    }

    #[test]
    fn malformed_packets_rejected() {
        assert_eq!(
            Packet::new_checked(&[0u8; 4][..]).unwrap_err(),
            WireError::Truncated
        );
        let mut pb = PacketBuilder::new(0, 0, 1400);
        pb.push(&Message::Time { seconds: 1 });
        let mut p = pb.flush().unwrap();
        p[0] = 200; // length > buffer
        assert_eq!(
            Packet::new_checked(&p[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn iterator_surfaces_mid_packet_corruption() {
        let mut pb = PacketBuilder::new(0, 0, 1400);
        pb.push(&Message::Time { seconds: 1 });
        pb.push(&Message::DeleteOrder {
            offset_ns: 0,
            order_id: 5,
        });
        let mut p = pb.flush().unwrap();
        p[UNIT_HEADER_LEN + 6 + 1] = 0x99; // corrupt the delete's type byte
        let pkt = Packet::new_checked(&p[..]).unwrap();
        let results: Vec<_> = pkt.messages().collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(WireError::BadField));
    }

    #[test]
    fn message_parse_rejects_bad_lengths() {
        assert_eq!(Message::parse(&[1u8]).unwrap_err(), WireError::Truncated);
        assert_eq!(
            Message::parse(&[0, 0x20]).unwrap_err(),
            WireError::BadLength
        );
        // Wrong declared length for a known type.
        let mut buf = Vec::new();
        Message::Time { seconds: 1 }.emit(&mut buf);
        buf[0] = 5;
        assert_eq!(Message::parse(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn gap_request_roundtrip_and_validation() {
        let g = GapRequest {
            unit: 3,
            seq: 1_000_000,
            count: 250,
        };
        let mut buf = Vec::new();
        g.emit_into(&mut buf);
        assert_eq!(buf.len(), GAP_REQUEST_LEN);
        assert_eq!(GapRequest::parse(&buf).unwrap(), g);
        let mut bad = buf.clone();
        bad[3] ^= 0xFF;
        assert_eq!(GapRequest::parse(&bad).unwrap_err(), WireError::BadChecksum);
        let mut bad = buf.clone();
        bad[0] = 0;
        assert_eq!(GapRequest::parse(&bad).unwrap_err(), WireError::BadField);
        assert_eq!(
            GapRequest::parse(&buf[..5]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn accessors() {
        let msgs = sample_messages();
        assert_eq!(msgs[1].symbol(), Some(sym("SPY")));
        assert_eq!(msgs[3].symbol(), None);
        assert_eq!(msgs[3].order_id(), Some(1));
        assert_eq!(msgs[0].order_id(), None);
    }
}
