//! Cycle-level interconnection-network simulator for HMC memory networks.
//!
//! This crate models the network fabric of the paper: HMC logic-layer
//! routers connected by high-speed SerDes channels, with virtual-channel
//! flow control and credit-based backpressure. It is a from-scratch
//! replacement for the cycle-accurate NoC simulator (booksim) used by the
//! paper's evaluation.
//!
//! # Model
//!
//! * **Virtual cut-through** switching at packet granularity: a packet moves
//!   in one piece, paying `ceil(bytes / channel-bytes-per-cycle)`
//!   serialization cycles per hop plus the 4-stage router pipeline and the
//!   3.2 ns SerDes latency. The 512 B VC buffers of the paper hold any whole
//!   packet (max 144 B = 9 flits), which makes cut-through equivalent to
//!   wormhole for these packet sizes.
//! * **Two message classes** (request / response) with separate virtual
//!   channels for protocol-deadlock freedom; within a class the VC index
//!   increases with hop count, which makes the channel-dependency graph
//!   acyclic (routing-deadlock freedom) for any topology.
//! * **Credit-based flow control** per (port, VC) in flit units.
//! * **Routing**: oblivious minimal (spread over all minimal ports), or
//!   UGAL-style adaptive (minimal vs. Valiant through a random intermediate
//!   router, chosen at injection by comparing queue × hops products).
//! * **Overlay pass-through** (Section V-C): designated serial chains where
//!   CPU packets bypass the SerDes and router pipeline at reduced per-hop
//!   latency.
//! * **Energy**: 2.0 pJ/bit for transferred packets, 1.5 pJ/bit idle filler
//!   on powered external channels, per the paper's model.
//!
//! # Example
//!
//! ```
//! use memnet_noc::{LinkSpec, LinkTag, NetworkBuilder, NocParams, MsgClass};
//! use memnet_common::{AccessKind, Agent, GpuId, MemReq, Payload, ReqId};
//!
//! let mut b = NetworkBuilder::new(NocParams::default());
//! let r0 = b.router();
//! let r1 = b.router();
//! let ep0 = b.endpoint(r0);
//! let ep1 = b.endpoint(r1);
//! b.link(r0, r1, LinkSpec::default(), LinkTag::HmcHmc);
//! let mut net = b.build();
//!
//! let req = MemReq { id: ReqId(0), addr: 0, bytes: 128, kind: AccessKind::Read,
//!                    src: Agent::Gpu(GpuId(0)) };
//! net.inject(ep0, ep1, MsgClass::Req, Payload::Req(req), false);
//! for _ in 0..100 { net.tick(); }
//! let out = net.poll_eject(ep1).expect("packet should arrive");
//! assert!(matches!(out.payload, Payload::Req(_)));
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

pub mod builder;
mod calq;
pub mod network;
pub mod packet;
pub mod topo;
pub mod traffic;

pub use builder::{LinkSpec, LinkTag, NetworkBuilder, NocParams};
pub use network::{
    EjectedPacket, FailedPacket, LinkUtilization, NetStats, Network, RoutingPolicy, WorkCounts,
};
pub use packet::{MsgClass, Packet, PacketId};
pub use traffic::{LoadPoint, Pattern};
