//! Strongly-typed identifiers for the agents and resources in the system.
//!
//! Newtypes keep GPU indices, HMC indices, network node ids, etc. from being
//! mixed up (C-NEWTYPE). All ids are small dense integers assigned at system
//! construction time.

use core::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident($inner:ty)) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw index.
            #[inline]
            #[allow(clippy::cast_possible_truncation, reason = "an id that indexes a table is below its length")]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A discrete GPU device in the multi-GPU system.
    GpuId(u16)
);
id_type!(
    /// The host CPU (the paper's systems have one).
    CpuId(u16)
);
id_type!(
    /// A hybrid memory cube, numbered globally across all clusters.
    HmcId(u16)
);
id_type!(
    /// A vault (vertical slice) within one HMC.
    VaultId(u16)
);
id_type!(
    /// A streaming multiprocessor (core) within one GPU.
    SmId(u16)
);
id_type!(
    /// A node in the interconnection-network graph (router or endpoint).
    NodeId(u16)
);
id_type!(
    /// A unique in-flight memory-request identifier.
    ReqId(u64)
);

impl ReqId {
    /// Largest per-issuer sequence number: an issuer packs its kind and
    /// device id above the low 48 bits of its request ids.
    pub const MAX_SEQ: u64 = (1 << 48) - 1;
}

/// The originator of a memory request.
///
/// Responses are routed back to the agent's network endpoint, and statistics
/// (e.g. the Fig. 10 traffic matrix) are keyed by agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agent {
    /// A GPU; requests carry the issuing GPU so the response returns to its
    /// memory port.
    Gpu(GpuId),
    /// The host CPU core.
    Cpu(CpuId),
    /// The DMA (memcpy) engine owned by the host.
    Dma(CpuId),
}

impl fmt::Display for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Agent::Gpu(g) => write!(f, "{g}"),
            Agent::Cpu(c) => write!(f, "{c}"),
            Agent::Dma(c) => write!(f, "Dma({c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_indices() {
        let g = GpuId(3);
        assert_eq!(g.index(), 3);
        assert_eq!(g.to_string(), "GpuId3");
        let h: HmcId = 7u16.into();
        assert_eq!(h.index(), 7);
    }

    #[test]
    fn ids_order_and_dedup() {
        let mut s = std::collections::BTreeSet::new();
        s.insert(NodeId(1));
        s.insert(NodeId(1));
        s.insert(NodeId(2));
        assert_eq!(s.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }
}
