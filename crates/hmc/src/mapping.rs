//! Physical address interleaving (Section VI-A).
//!
//! The paper maps physical addresses as `RW:CLH:BK:CT:VL:LC:CLL:BY`
//! (MSB → LSB): Row, Column-High, Bank, Cluster id, Vault, Local-HMC id,
//! Column-Low, Byte offset. The consequences, which the topology design
//! relies on (Section V-A):
//!
//! * consecutive 128 B cache lines interleave across the *local HMCs* of a
//!   cluster (`LC` sits just above the line offset), balancing intra-cluster
//!   traffic;
//! * consecutive lines also spread over vaults (`VL` above `LC`);
//! * the cluster id sits above the 4 KB page offset, so *pages* are placed
//!   on clusters — the runtime's random page placement policy chooses the
//!   `CT` bits of each physical page.

use memnet_common::SystemConfig;

/// A fully decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Cluster (device) index, `CT`.
    pub cluster: u32,
    /// Local HMC index within the cluster, `LC`.
    pub local_hmc: u32,
    /// Vault within the HMC, `VL`.
    pub vault: u32,
    /// Bank within the vault, `BK`.
    pub bank: u32,
    /// DRAM row, `RW`.
    pub row: u64,
    /// Column word within the row (`CLH:CLL` combined).
    pub col: u32,
}

impl Location {
    /// Global HMC index (`cluster * hmcs_per_cluster + local_hmc`).
    pub fn hmc_global(&self, hmcs_per_cluster: u32) -> u32 {
        self.cluster * hmcs_per_cluster + self.local_hmc
    }
}

/// Bit-sliced address mapping `RW:CLH:BK:CT:VL:LC:CLL:BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    by_bits: u32,
    cll_bits: u32,
    lc_bits: u32,
    vl_bits: u32,
    ct_bits: u32,
    bk_bits: u32,
    clh_bits: u32,
    page_bits: u32,
}

/// Bytes per column access word (the unit below `CLL`).
pub const COL_BYTES: u64 = 32;
/// Bytes per DRAM row per bank.
pub const ROW_BYTES: u64 = 2048;

impl AddressMap {
    /// Builds the mapping for a system configuration.
    ///
    /// # Panics
    ///
    /// Panics if counts are not powers of two, or if the cluster field does
    /// not sit above the page offset (required for page-granular placement).
    pub fn new(cfg: &SystemConfig) -> Self {
        Self::with_clusters(cfg, cfg.n_gpus)
    }

    /// Builds the mapping for a given cluster count (e.g. `n_gpus + 1` when
    /// the CPU's HMC cluster shares the address space, as in UMN).
    ///
    /// # Panics
    ///
    /// Same conditions as [`AddressMap::new`].
    pub fn with_clusters(cfg: &SystemConfig, n_clusters: u32) -> Self {
        let log2 = |v: u64| -> u32 {
            assert!(v.is_power_of_two(), "{v} must be a power of two");
            v.trailing_zeros()
        };
        let by_bits = log2(COL_BYTES);
        let cll_bits = log2(128 / COL_BYTES); // line = 128 B spans CLL:BY
        let lc_bits = log2(cfg.hmcs_per_gpu as u64);
        let vl_bits = log2(cfg.hmc.vaults as u64);
        let ct_bits = log2(n_clusters.next_power_of_two() as u64);
        let bk_bits = log2(cfg.hmc.banks_per_vault as u64);
        let clh_bits = log2(ROW_BYTES / COL_BYTES) - cll_bits;
        let page_bits = log2(cfg.page_bytes);
        let map = AddressMap {
            by_bits,
            cll_bits,
            lc_bits,
            vl_bits,
            ct_bits,
            bk_bits,
            clh_bits,
            page_bits,
        };
        assert!(
            map.ct_shift() >= page_bits,
            "cluster bits (at {}) must lie above the page offset ({page_bits})",
            map.ct_shift()
        );
        map
    }

    fn lc_shift(&self) -> u32 {
        self.by_bits + self.cll_bits
    }
    fn vl_shift(&self) -> u32 {
        self.lc_shift() + self.lc_bits
    }
    fn ct_shift(&self) -> u32 {
        self.vl_shift() + self.vl_bits
    }
    fn bk_shift(&self) -> u32 {
        self.ct_shift() + self.ct_bits
    }
    fn clh_shift(&self) -> u32 {
        self.bk_shift() + self.bk_bits
    }
    fn rw_shift(&self) -> u32 {
        self.clh_shift() + self.clh_bits
    }

    /// Decodes a physical byte address (the `BY` offset is dropped).
    pub fn decode(&self, addr: u64) -> Location {
        #[allow(clippy::cast_possible_truncation, reason = "masked to a field's width, < 32 bits")]
        let field = |shift: u32, bits: u32| ((addr >> shift) & ((1u64 << bits) - 1)) as u32;
        let cll = field(self.by_bits, self.cll_bits);
        let clh = field(self.clh_shift(), self.clh_bits);
        Location {
            cluster: field(self.ct_shift(), self.ct_bits),
            local_hmc: field(self.lc_shift(), self.lc_bits),
            vault: field(self.vl_shift(), self.vl_bits),
            bank: field(self.bk_shift(), self.bk_bits),
            row: addr >> self.rw_shift(),
            col: (clh << self.cll_bits) | cll,
        }
    }

    /// Re-encodes a location to its (column-word aligned) physical address.
    pub fn encode(&self, loc: Location) -> u64 {
        let cll = (loc.col & ((1 << self.cll_bits) - 1)) as u64;
        let clh = (loc.col >> self.cll_bits) as u64;
        (loc.row << self.rw_shift())
            | (clh << self.clh_shift())
            | ((loc.bank as u64) << self.bk_shift())
            | ((loc.cluster as u64) << self.ct_shift())
            | ((loc.vault as u64) << self.vl_shift())
            | ((loc.local_hmc as u64) << self.lc_shift())
            | (cll << self.by_bits)
    }

    /// Physical page size covered by this map's page field, in bytes.
    pub fn page_bytes(&self) -> u64 {
        1u64 << self.page_bits
    }

    /// Constructs the physical page index of the `seq`-th page placed on
    /// `cluster`: sequential pages within a cluster, with the `CT` bits set
    /// to the cluster.
    ///
    /// Together with [`AddressMap::page_cluster`] this is a bijection
    /// `(cluster, seq) ↔ page`.
    pub fn page_for_cluster(&self, seq: u64, cluster: u32) -> u64 {
        let low_bits = self.ct_shift() - self.page_bits; // page-number bits below CT
        let low = seq & ((1u64 << low_bits) - 1);
        let high = seq >> low_bits;
        (high << (low_bits + self.ct_bits)) | ((cluster as u64) << low_bits) | low
    }

    /// How many pages [`AddressMap::page_for_cluster`] places on one
    /// cluster before a page's byte address would pass 2^64.
    pub fn pages_per_cluster(&self) -> u64 {
        1 << (64 - self.page_bits - self.ct_bits)
    }

    /// The cluster a physical page lives on.
    #[allow(clippy::cast_possible_truncation, reason = "masked to ct_bits")]
    pub fn page_cluster(&self, page: u64) -> u32 {
        let low_bits = self.ct_shift() - self.page_bits;
        ((page >> low_bits) & ((1u64 << self.ct_bits) - 1)) as u32
    }

    /// Number of clusters addressable by the `CT` field.
    pub fn clusters(&self) -> u32 {
        1 << self.ct_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_common::rng::SplitMix64;

    fn map() -> AddressMap {
        AddressMap::new(&SystemConfig::paper())
    }

    #[test]
    fn consecutive_lines_interleave_local_hmcs() {
        let m = map();
        // 128 B apart: LC changes, cluster does not.
        let a = m.decode(0);
        let b = m.decode(128);
        let c = m.decode(256);
        assert_eq!(a.cluster, b.cluster);
        assert_ne!(a.local_hmc, b.local_hmc);
        assert_ne!(b.local_hmc, c.local_hmc);
    }

    #[test]
    fn lines_spread_over_vaults_above_local_hmcs() {
        let m = map();
        // 128 B × 4 local HMCs = 512 B apart: same LC, next vault.
        let a = m.decode(0);
        let b = m.decode(512);
        assert_eq!(a.local_hmc, b.local_hmc);
        assert_ne!(a.vault, b.vault);
    }

    #[test]
    fn cluster_field_is_page_granular() {
        let m = map();
        let page = SystemConfig::paper().page_bytes;
        // All lines of one page share a cluster.
        let c0 = m.decode(0).cluster;
        for off in (0..page).step_by(128) {
            assert_eq!(m.decode(off).cluster, c0);
        }
    }

    #[test]
    fn within_page_addresses_hit_all_local_hmcs() {
        let m = map();
        let mut seen = [false; 4];
        for off in (0..4096u64).step_by(128) {
            seen[m.decode(off).local_hmc as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "page lines must cover all 4 local HMCs"
        );
    }

    #[test]
    fn page_for_cluster_round_trips() {
        let m = map();
        for cluster in 0..4 {
            for seq in [0u64, 1, 2, 7, 100, 12345] {
                let page = m.page_for_cluster(seq, cluster);
                assert_eq!(m.page_cluster(page), cluster, "seq {seq} cluster {cluster}");
            }
        }
    }

    #[test]
    fn page_for_cluster_is_injective() {
        let m = map();
        let mut seen = std::collections::BTreeSet::new();
        for cluster in 0..4 {
            for seq in 0..1000u64 {
                assert!(
                    seen.insert(m.page_for_cluster(seq, cluster)),
                    "duplicate page"
                );
            }
        }
    }

    #[test]
    fn hmc_global_index() {
        let loc = Location {
            cluster: 2,
            local_hmc: 3,
            vault: 0,
            bank: 0,
            row: 0,
            col: 0,
        };
        assert_eq!(loc.hmc_global(4), 11);
    }

    // Deterministic randomized properties: a seeded SplitMix64 replaces the
    // former proptest strategies so the suite runs without registry deps.

    #[test]
    fn decode_encode_bijection() {
        let m = map();
        let mut rng = SplitMix64::new(0xb1ec7);
        for _ in 0..256 {
            let addr = rng.next_below(1u64 << 40);
            let aligned = addr & !(COL_BYTES - 1);
            assert_eq!(m.encode(m.decode(aligned)), aligned, "addr {addr:#x}");
        }
    }

    #[test]
    fn decode_fields_in_range() {
        let m = map();
        let mut rng = SplitMix64::new(0xf1e1d5);
        for _ in 0..256 {
            let addr = rng.next_below(1u64 << 40);
            let loc = m.decode(addr);
            assert!(loc.cluster < 4, "addr {addr:#x}");
            assert!(loc.local_hmc < 4, "addr {addr:#x}");
            assert!(loc.vault < 16, "addr {addr:#x}");
            assert!(loc.bank < 16, "addr {addr:#x}");
            assert!((loc.col as u64) < ROW_BYTES / COL_BYTES, "addr {addr:#x}");
        }
    }

    #[test]
    fn page_placement_bijection() {
        let m = map();
        let mut rng = SplitMix64::new(0x9a9e5);
        for _ in 0..256 {
            let seq = rng.next_below(1_000_000);
            let cluster = rng.next_below(4) as u32;
            let page = m.page_for_cluster(seq, cluster);
            assert_eq!(m.page_cluster(page), cluster, "seq {seq} cluster {cluster}");
            // Different seqs map to different pages for the same cluster.
            let other = m.page_for_cluster(seq + 1, cluster);
            assert_ne!(page, other, "seq {seq} cluster {cluster}");
        }
    }
}
