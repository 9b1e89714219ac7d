//! Memory request/response messages.
//!
//! GPUs and the CPU issue [`MemReq`]s; HMC vault controllers return
//! [`MemResp`]s. In HMC-style systems these are *packetized* high-level
//! messages (Fig. 3(b) in the paper), so the same types ride inside network
//! packets as their [`Payload`].

use crate::ids::{Agent, ReqId};

/// Size in bytes of a request/response packet header (command, address,
/// tag, CRC — per the HMC specification's abstracted packet format).
pub const HEADER_BYTES: u32 = 16;

/// What a memory request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read `bytes` starting at `addr`.
    Read,
    /// Write `bytes` starting at `addr` (write data travels with the
    /// request; the response is a short acknowledgement).
    Write,
    /// Read-modify-write executed by the atomic unit on the HMC logic die
    /// (Section III-D). Carries operand data both ways.
    Atomic,
}

impl AccessKind {
    /// True for operations that deliver data back to the requester.
    #[inline]
    pub fn returns_data(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Atomic)
    }

    /// True for operations that carry data toward memory.
    #[inline]
    pub fn carries_data(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Atomic)
    }
}

/// A memory request on its way to an HMC vault (or DDR model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Unique id; the response echoes it.
    pub id: ReqId,
    /// Byte address as the issuer sees it (virtual; the driver translates).
    pub addr: u64,
    /// Access size in bytes (128 B for GPU cache lines, 64 B for CPU).
    pub bytes: u32,
    /// Operation kind.
    pub kind: AccessKind,
    /// Issuing agent; the response is routed back to this agent's endpoint.
    pub src: Agent,
}

impl MemReq {
    /// Total bytes this request occupies on a link (header + write data).
    #[inline]
    pub fn packet_bytes(&self) -> u32 {
        HEADER_BYTES
            + if self.kind.carries_data() {
                self.bytes
            } else {
                0
            }
    }

    /// Builds the response for this request.
    #[inline]
    pub fn response(&self) -> MemResp {
        MemResp {
            id: self.id,
            addr: self.addr,
            bytes: self.bytes,
            kind: self.kind,
            src: self.src,
        }
    }
}

/// A completed memory operation returning to its requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResp {
    /// Echo of the request id.
    pub id: ReqId,
    /// The request's address, echoed; a GPU read finds its L2 MSHR entry by it.
    pub addr: u64,
    /// Access size of the original request in bytes.
    pub bytes: u32,
    /// Operation kind of the original request.
    pub kind: AccessKind,
    /// Original requester.
    pub src: Agent,
}

impl MemResp {
    /// Total bytes this response occupies on a link (header + read data).
    #[inline]
    pub fn packet_bytes(&self) -> u32 {
        HEADER_BYTES
            + if self.kind.returns_data() {
                self.bytes
            } else {
                0
            }
    }
}

/// What a network packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A request travelling toward memory.
    Req(MemReq),
    /// A response travelling back to the requester.
    Resp(MemResp),
}

impl Payload {
    /// Bytes on the wire, header included.
    #[inline]
    pub fn packet_bytes(&self) -> u32 {
        match self {
            Payload::Req(r) => r.packet_bytes(),
            Payload::Resp(r) => r.packet_bytes(),
        }
    }

    /// The agent that originated the transaction.
    #[inline]
    pub fn src(&self) -> Agent {
        match self {
            Payload::Req(r) => r.src,
            Payload::Resp(r) => r.src,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CpuId, GpuId};

    fn req(kind: AccessKind, bytes: u32) -> MemReq {
        MemReq {
            id: ReqId(1),
            addr: 0x1000,
            bytes,
            kind,
            src: Agent::Gpu(GpuId(0)),
        }
    }

    #[test]
    fn read_request_is_header_only() {
        assert_eq!(req(AccessKind::Read, 128).packet_bytes(), 16);
    }

    #[test]
    fn write_request_carries_data() {
        assert_eq!(req(AccessKind::Write, 128).packet_bytes(), 144);
    }

    #[test]
    fn read_response_carries_data_write_ack_does_not() {
        assert_eq!(req(AccessKind::Read, 128).response().packet_bytes(), 144);
        assert_eq!(req(AccessKind::Write, 128).response().packet_bytes(), 16);
    }

    #[test]
    fn atomic_carries_data_both_ways() {
        let a = req(AccessKind::Atomic, 16);
        assert_eq!(a.packet_bytes(), 32);
        assert_eq!(a.response().packet_bytes(), 32);
    }

    #[test]
    fn response_echoes_request() {
        let r = req(AccessKind::Read, 64);
        let resp = r.response();
        assert_eq!(resp.id, r.id);
        assert_eq!(resp.addr, r.addr);
        assert_eq!(resp.src, r.src);
    }

    #[test]
    fn payload_accessors() {
        let r = MemReq {
            id: ReqId(9),
            addr: 0,
            bytes: 64,
            kind: AccessKind::Read,
            src: Agent::Cpu(CpuId(0)),
        };
        let p = Payload::Req(r);
        assert_eq!(p.src(), Agent::Cpu(CpuId(0)));
        assert_eq!(p.packet_bytes(), 16);
        let q = Payload::Resp(r.response());
        assert_eq!(q.packet_bytes(), 80);
    }
}
