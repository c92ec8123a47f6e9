//! A binary order-entry protocol modeled on Cboe BOE.
//!
//! Order entry rides long-lived TCP sessions from the trading firm's
//! gateways to the exchange (§2). Messages are compact little-endian
//! binary records with a 7-byte framing header:
//!
//! ```text
//! magic  u8   0xBA
//! length u8   whole message length including this header
//! type   u8   discriminant
//! seq    u32  per-session sequence number
//! ```
//!
//! The protocol exhibits the races the paper mentions (§2): a cancel can
//! cross a fill in flight; the state machines in `tn-market` and
//! `tn-trading` handle both orderings.

use crate::bytes::{get_u32_le, get_u64_le, set_u32_le, set_u64_le};
use crate::error::{Result, WireError};
use crate::pitch::Side;
use crate::symbol::Symbol;

/// Framing header length.
pub const HEADER_LEN: usize = 7;
/// Framing magic byte.
pub const MAGIC: u8 = 0xBA;

/// Message type discriminants.
pub mod msg_type {
    pub const LOGIN: u8 = 0x00;
    pub const NEW_ORDER: u8 = 0x01;
    pub const CANCEL_ORDER: u8 = 0x02;
    pub const MODIFY_ORDER: u8 = 0x03;
    pub const HEARTBEAT: u8 = 0x0F;
    pub const ORDER_ACK: u8 = 0x10;
    pub const ORDER_REJECT: u8 = 0x11;
    pub const FILL: u8 = 0x12;
    pub const CANCEL_ACK: u8 = 0x13;
}

/// Why an exchange rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Unknown symbol (the paper's example of an invalid-ticker reject).
    UnknownSymbol,
    /// Order id not found (e.g. cancel after fill — the §2 race).
    UnknownOrder,
    /// Price out of allowed bands.
    BadPrice,
    /// Session not logged in or sequence error.
    Session,
}

impl RejectReason {
    fn to_wire(self) -> u8 {
        match self {
            RejectReason::UnknownSymbol => 1,
            RejectReason::UnknownOrder => 2,
            RejectReason::BadPrice => 3,
            RejectReason::Session => 4,
        }
    }

    fn from_wire(v: u8) -> Result<Self> {
        match v {
            1 => Ok(RejectReason::UnknownSymbol),
            2 => Ok(RejectReason::UnknownOrder),
            3 => Ok(RejectReason::BadPrice),
            4 => Ok(RejectReason::Session),
            _ => Err(WireError::BadField),
        }
    }
}

/// A decoded order-entry message (either direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Session login (firm → exchange).
    Login {
        /// Firm-assigned session id.
        session: u32,
        /// Authentication token (opaque in the simulator).
        token: u64,
    },
    /// Liveness keepalive, either direction.
    Heartbeat,
    /// Enter a new limit order (firm → exchange).
    NewOrder {
        /// Client order id, unique per session.
        cl_ord_id: u64,
        /// Side.
        side: Side,
        /// Quantity.
        qty: u32,
        /// Instrument.
        symbol: Symbol,
        /// Limit price (1e-4 dollars).
        price: u64,
    },
    /// Cancel an open order (firm → exchange).
    CancelOrder {
        /// Client order id of the order to cancel.
        cl_ord_id: u64,
    },
    /// Modify price/size of an open order (firm → exchange).
    ModifyOrder {
        /// Client order id.
        cl_ord_id: u64,
        /// New quantity.
        qty: u32,
        /// New price (1e-4 dollars).
        price: u64,
    },
    /// Order accepted (exchange → firm).
    OrderAck {
        /// Echoed client order id.
        cl_ord_id: u64,
        /// Exchange-assigned order id (appears in market data).
        exch_ord_id: u64,
    },
    /// Request rejected (exchange → firm).
    OrderReject {
        /// Echoed client order id.
        cl_ord_id: u64,
        /// Why.
        reason: RejectReason,
    },
    /// An open order traded (exchange → firm).
    Fill {
        /// Client order id.
        cl_ord_id: u64,
        /// Execution id (matches the feed's trade/execute messages).
        exec_id: u64,
        /// Executed quantity.
        qty: u32,
        /// Execution price (1e-4 dollars).
        price: u64,
        /// Remaining open quantity.
        leaves: u32,
    },
    /// Cancel confirmed; the order is out (exchange → firm).
    CancelAck {
        /// Client order id.
        cl_ord_id: u64,
    },
}

impl Message {
    /// Encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN
            + match self {
                Message::Login { .. } => 12,
                Message::Heartbeat => 0,
                Message::NewOrder { .. } => 27,
                Message::CancelOrder { .. } => 8,
                Message::ModifyOrder { .. } => 20,
                Message::OrderAck { .. } => 16,
                Message::OrderReject { .. } => 9,
                Message::Fill { .. } => 32,
                Message::CancelAck { .. } => 8,
            }
    }

    fn type_byte(&self) -> u8 {
        match self {
            Message::Login { .. } => msg_type::LOGIN,
            Message::Heartbeat => msg_type::HEARTBEAT,
            Message::NewOrder { .. } => msg_type::NEW_ORDER,
            Message::CancelOrder { .. } => msg_type::CANCEL_ORDER,
            Message::ModifyOrder { .. } => msg_type::MODIFY_ORDER,
            Message::OrderAck { .. } => msg_type::ORDER_ACK,
            Message::OrderReject { .. } => msg_type::ORDER_REJECT,
            Message::Fill { .. } => msg_type::FILL,
            Message::CancelAck { .. } => msg_type::CANCEL_ACK,
        }
    }

    /// Append the wire encoding (with `seq` in the framing header) to `out`.
    pub fn emit(&self, seq: u32, out: &mut Vec<u8>) {
        let start = out.len();
        let len = self.wire_len();
        out.resize(start + len, 0);
        let b = &mut out[start..];
        b[0] = MAGIC;
        b[1] = len as u8;
        b[2] = self.type_byte();
        set_u32_le(b, 3, seq);
        match *self {
            Message::Login { session, token } => {
                set_u32_le(b, 7, session);
                set_u64_le(b, 11, token);
            }
            Message::Heartbeat => {}
            Message::NewOrder {
                cl_ord_id,
                side,
                qty,
                symbol,
                price,
            } => {
                set_u64_le(b, 7, cl_ord_id);
                b[15] = match side {
                    Side::Buy => b'B',
                    Side::Sell => b'S',
                };
                set_u32_le(b, 16, qty);
                symbol.to_wire(&mut b[20..26]);
                set_u64_le(b, 26, price);
            }
            Message::CancelOrder { cl_ord_id } => {
                set_u64_le(b, 7, cl_ord_id);
            }
            Message::ModifyOrder {
                cl_ord_id,
                qty,
                price,
            } => {
                set_u64_le(b, 7, cl_ord_id);
                set_u32_le(b, 15, qty);
                set_u64_le(b, 19, price);
            }
            Message::OrderAck {
                cl_ord_id,
                exch_ord_id,
            } => {
                set_u64_le(b, 7, cl_ord_id);
                set_u64_le(b, 15, exch_ord_id);
            }
            Message::OrderReject { cl_ord_id, reason } => {
                set_u64_le(b, 7, cl_ord_id);
                b[15] = reason.to_wire();
            }
            Message::Fill {
                cl_ord_id,
                exec_id,
                qty,
                price,
                leaves,
            } => {
                set_u64_le(b, 7, cl_ord_id);
                set_u64_le(b, 15, exec_id);
                set_u32_le(b, 23, qty);
                set_u64_le(b, 27, price);
                set_u32_le(b, 35, leaves);
            }
            Message::CancelAck { cl_ord_id } => {
                set_u64_le(b, 7, cl_ord_id);
            }
        }
    }

    /// Decode one message from the front of `buf`; returns the message,
    /// its framing sequence, and its wire length.
    pub fn parse(buf: &[u8]) -> Result<(Message, u32, usize)> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] != MAGIC {
            return Err(WireError::BadField);
        }
        let len = buf[1] as usize;
        if len < HEADER_LEN || len > buf.len() {
            return Err(WireError::BadLength);
        }
        let seq = get_u32_le(buf, 3);
        let b = &buf[..len];
        let need = |want: usize| {
            if len == want {
                Ok(())
            } else {
                Err(WireError::BadLength)
            }
        };
        let msg = match b[2] {
            msg_type::LOGIN => {
                need(19)?;
                Message::Login {
                    session: get_u32_le(b, 7),
                    token: get_u64_le(b, 11),
                }
            }
            msg_type::HEARTBEAT => {
                need(7)?;
                Message::Heartbeat
            }
            msg_type::NEW_ORDER => {
                need(34)?;
                Message::NewOrder {
                    cl_ord_id: get_u64_le(b, 7),
                    side: match b[15] {
                        b'B' => Side::Buy,
                        b'S' => Side::Sell,
                        _ => return Err(WireError::BadField),
                    },
                    qty: get_u32_le(b, 16),
                    symbol: Symbol::from_wire(&b[20..26]),
                    price: get_u64_le(b, 26),
                }
            }
            msg_type::CANCEL_ORDER => {
                need(15)?;
                Message::CancelOrder {
                    cl_ord_id: get_u64_le(b, 7),
                }
            }
            msg_type::MODIFY_ORDER => {
                need(27)?;
                Message::ModifyOrder {
                    cl_ord_id: get_u64_le(b, 7),
                    qty: get_u32_le(b, 15),
                    price: get_u64_le(b, 19),
                }
            }
            msg_type::ORDER_ACK => {
                need(23)?;
                Message::OrderAck {
                    cl_ord_id: get_u64_le(b, 7),
                    exch_ord_id: get_u64_le(b, 15),
                }
            }
            msg_type::ORDER_REJECT => {
                need(16)?;
                Message::OrderReject {
                    cl_ord_id: get_u64_le(b, 7),
                    reason: RejectReason::from_wire(b[15])?,
                }
            }
            msg_type::FILL => {
                need(39)?;
                Message::Fill {
                    cl_ord_id: get_u64_le(b, 7),
                    exec_id: get_u64_le(b, 15),
                    qty: get_u32_le(b, 23),
                    price: get_u64_le(b, 27),
                    leaves: get_u32_le(b, 35),
                }
            }
            msg_type::CANCEL_ACK => {
                need(15)?;
                Message::CancelAck {
                    cl_ord_id: get_u64_le(b, 7),
                }
            }
            _ => return Err(WireError::BadField),
        };
        Ok((msg, seq, len))
    }
}

/// Reassembles BOE messages from a TCP byte stream.
///
/// Order-entry messages can split across segments; gateways and exchange
/// front-ends feed received bytes in and pull complete messages out,
/// either with [`Decoder::push`] and [`Decoder::next_message`] or with
/// [`Decoder::decode`], which buffers only what a segment leaves
/// incomplete.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
}

/// The message at the front of `buf`: `Ok(None)` while it is incomplete,
/// an error once its framing is malformed.
fn front(buf: &[u8]) -> Result<Option<(Message, u32, usize)>> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0] != MAGIC {
        return Err(WireError::BadField);
    }
    let len = buf[1] as usize;
    if len < HEADER_LEN {
        return Err(WireError::BadLength);
    }
    if buf.len() < len {
        return Ok(None);
    }
    Message::parse(buf).map(Some)
}

impl Decoder {
    /// Fresh decoder with an empty reassembly buffer.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Append stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pull the next complete message, if one is buffered. Malformed
    /// framing surfaces as an error and poisons the stream (real sessions
    /// would disconnect).
    pub fn next_message(&mut self) -> Result<Option<(Message, u32)>> {
        let Some((msg, seq, used)) = front(&self.buf)? else {
            return Ok(None);
        };
        self.buf.drain(..used);
        Ok(Some((msg, seq)))
    }

    /// Feed one segment and append every message it completes to `out`:
    /// the same messages, the same error and the same leftover
    /// [`Decoder::pending_bytes`] as [`Decoder::push`] followed by
    /// [`Decoder::next_message`] until it stops. With nothing buffered
    /// the messages are parsed straight from `bytes` and only an
    /// incomplete (or malformed, which poisons the stream) tail is
    /// copied in, so a session whose segments carry whole messages never
    /// touches the reassembly buffer.
    pub fn decode(&mut self, bytes: &[u8], out: &mut Vec<Message>) -> Result<()> {
        if !self.buf.is_empty() {
            self.push(bytes);
            while let Some((msg, _)) = self.next_message()? {
                out.push(msg);
            }
            return Ok(());
        }
        let mut at = 0;
        let result = loop {
            match front(&bytes[at..]) {
                Ok(Some((msg, _, used))) => {
                    out.push(msg);
                    at += used;
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.buf.extend_from_slice(&bytes[at..]);
        result
    }

    /// Bytes currently buffered awaiting completion.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s).unwrap()
    }

    fn sample() -> Vec<Message> {
        vec![
            Message::Login {
                session: 7,
                token: 0xDEAD,
            },
            Message::Heartbeat,
            Message::NewOrder {
                cl_ord_id: 42,
                side: Side::Buy,
                qty: 100,
                symbol: sym("SPY"),
                price: 450_0000,
            },
            Message::CancelOrder { cl_ord_id: 42 },
            Message::ModifyOrder {
                cl_ord_id: 42,
                qty: 50,
                price: 449_0000,
            },
            Message::OrderAck {
                cl_ord_id: 42,
                exch_ord_id: 9001,
            },
            Message::OrderReject {
                cl_ord_id: 43,
                reason: RejectReason::UnknownSymbol,
            },
            Message::Fill {
                cl_ord_id: 42,
                exec_id: 77,
                qty: 50,
                price: 450_0000,
                leaves: 50,
            },
            Message::CancelAck { cl_ord_id: 42 },
        ]
    }

    #[test]
    fn all_messages_roundtrip() {
        for (i, msg) in sample().into_iter().enumerate() {
            let mut buf = Vec::new();
            msg.emit(i as u32, &mut buf);
            assert_eq!(buf.len(), msg.wire_len());
            let (parsed, seq, used) = Message::parse(&buf).unwrap();
            assert_eq!(parsed, msg);
            assert_eq!(seq, i as u32);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn decoder_handles_arbitrary_segmentation() {
        let msgs = sample();
        let mut stream = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            m.emit(i as u32, &mut stream);
        }
        // Feed one byte at a time — the worst segmentation possible.
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for byte in stream {
            dec.push(&[byte]);
            while let Some((m, _)) = dec.next_message().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn decoder_rejects_bad_magic() {
        let mut dec = Decoder::new();
        dec.push(&[0x00; 8]);
        assert_eq!(dec.next_message().unwrap_err(), WireError::BadField);
    }

    #[test]
    fn parse_validates_lengths_and_fields() {
        let mut buf = Vec::new();
        Message::CancelOrder { cl_ord_id: 1 }.emit(0, &mut buf);
        buf[1] = 99; // declared length beyond buffer
        assert_eq!(Message::parse(&buf).unwrap_err(), WireError::BadLength);

        let mut buf = Vec::new();
        Message::NewOrder {
            cl_ord_id: 1,
            side: Side::Buy,
            qty: 1,
            symbol: sym("A"),
            price: 1,
        }
        .emit(0, &mut buf);
        buf[15] = b'X'; // invalid side
        assert_eq!(Message::parse(&buf).unwrap_err(), WireError::BadField);

        let mut buf = Vec::new();
        Message::OrderReject {
            cl_ord_id: 1,
            reason: RejectReason::Session,
        }
        .emit(0, &mut buf);
        buf[15] = 200; // invalid reason
        assert_eq!(Message::parse(&buf).unwrap_err(), WireError::BadField);
    }

    #[test]
    fn order_entry_messages_are_small() {
        // §5: order-entry payloads are tens of bytes — far smaller than
        // the 54-byte Eth+IP+TCP header stack that carries them.
        let cancel = Message::CancelOrder { cl_ord_id: 1 };
        assert!(cancel.wire_len() <= 16);
        let new = Message::NewOrder {
            cl_ord_id: 1,
            side: Side::Buy,
            qty: 1,
            symbol: sym("A"),
            price: 1,
        };
        assert!(new.wire_len() <= 34);
    }
}
