//! Virtual address space organization (Section III-C).
//!
//! All GPUs and the CPU share one virtual address space (unified virtual
//! addressing); the SKE runtime keeps the shared page table and performs
//! translation at the device boundary. Pages are placed at 4 KB granularity
//! on *clusters* (a device's local HMC group) with a random page placement
//! policy over each region's allowed cluster set, and cache lines
//! interleave across the cluster's local HMCs via the
//! `RW:CLH:BK:CT:VL:LC:CLL:BY` mapping.
//!
//! Regions let the system organizations express data residency:
//!
//! * memcpy organizations: the device region lives on GPU clusters, the
//!   host staging region on the CPU cluster;
//! * zero-copy: the whole footprint lives on the CPU cluster;
//! * UMN: the footprint is spread over *all* clusters (no copies);
//! * Fig. 7: the device region is restricted to 1, 2 or 4 GPU clusters.

use memnet_common::{SplitMix64, SystemConfig};
use memnet_hmc::mapping::{AddressMap, Location};
use memnet_obs::json::{snaps, Fields, JsonValue, Snap};
use std::collections::BTreeMap;

/// How fresh pages pick a cluster from their region's allowed set.
///
/// The paper assumes random placement (Section VI-A); the alternatives are
/// the ablation of `ablation_placement`: round-robin is equally balanced,
/// while a naive contiguous (first-fit) allocator concentrates small
/// footprints on one cluster and recreates the Fig. 10(b) hotspotting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Uniform random over the region's clusters (paper default).
    #[default]
    Random,
    /// Rotate through the region's clusters.
    RoundRobin,
    /// Always the first cluster of the region (naive first-fit arena).
    Contiguous,
}

/// Virtual base of the host staging copy of the footprint.
pub const HOST_BASE: u64 = 1 << 40;

/// Virtual pages per page-table chunk (4 KiB of physical page numbers),
/// so a footprint of a few thousand pages is a handful of map keys; an
/// entry no first touch has filled holds `UNMAPPED`, which no page is.
const CHUNK_PAGES: usize = 512;
const UNMAPPED: u64 = u64::MAX;

/// A virtual region and the clusters its pages may land on.
#[derive(Debug, Clone)]
struct Region {
    base: u64,
    bytes: u64,
    clusters: Vec<u32>,
}

/// The shared page table plus placement policy.
#[derive(Debug)]
pub struct MemoryLayout {
    map: AddressMap,
    regions: Vec<Region>,
    /// Virtual page `v`'s physical page, at `v % CHUNK_PAGES` in chunk
    /// `v / CHUNK_PAGES`.
    page_table: BTreeMap<u64, Box<[u64; CHUNK_PAGES]>>,
    next_seq: Vec<u64>,
    page_bytes: u64,
    rng: SplitMix64,
    policy: PlacementPolicy,
    rr_next: usize,
}

impl MemoryLayout {
    /// Creates an empty layout for `n_clusters` clusters.
    pub fn new(cfg: &SystemConfig, n_clusters: u32) -> Self {
        MemoryLayout {
            map: AddressMap::with_clusters(cfg, n_clusters),
            regions: Vec::new(),
            page_table: BTreeMap::new(),
            next_seq: vec![0; n_clusters as usize],
            page_bytes: cfg.page_bytes,
            rng: SplitMix64::new(cfg.seed ^ 0x9A6E),
            policy: PlacementPolicy::Random,
            rr_next: 0,
        }
    }

    /// Sets the page placement policy (default: random, Section VI-A).
    pub fn set_policy(&mut self, policy: PlacementPolicy) {
        self.policy = policy;
    }

    /// The underlying address map.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Declares that virtual `[base, base+bytes)` may be placed on
    /// `clusters`. Later regions take precedence for overlapping ranges.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or names a cluster beyond the layout.
    pub fn add_region(&mut self, base: u64, bytes: u64, clusters: &[u32]) {
        assert!(!clusters.is_empty(), "region needs at least one cluster");
        assert!(
            clusters.iter().all(|&c| (c as usize) < self.next_seq.len()),
            "cluster out of range"
        );
        self.regions.push(Region {
            base,
            bytes,
            clusters: clusters.to_vec(),
        });
    }

    /// Translates a virtual address, allocating the page on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the address belongs to no declared region.
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        let vpage = vaddr / self.page_bytes;
        let offset = vaddr % self.page_bytes;
        let ppage = *self.entry(vpage);
        if ppage != UNMAPPED {
            return ppage * self.page_bytes + offset;
        }
        let region = self
            .regions
            .iter()
            .rev()
            .find(|r| vaddr >= r.base && vaddr < r.base + r.bytes)
            .unwrap_or_else(|| panic!("virtual address {vaddr:#x} outside all regions"));
        #[allow(clippy::cast_possible_truncation, reason = "next_below(len) is below len")]
        let cluster = match self.policy {
            // Random page placement (Section VI-A).
            PlacementPolicy::Random => {
                region.clusters[self.rng.next_below(region.clusters.len() as u64) as usize]
            }
            PlacementPolicy::RoundRobin => {
                let c = region.clusters[self.rr_next % region.clusters.len()];
                self.rr_next += 1;
                c
            }
            PlacementPolicy::Contiguous => region.clusters[0],
        };
        let seq = self.next_seq[cluster as usize];
        self.next_seq[cluster as usize] += 1;
        let ppage = self.map.page_for_cluster(seq, cluster);
        *self.entry(vpage) = ppage;
        ppage * self.page_bytes + offset
    }

    /// `vpage`'s page-table entry, in a chunk made on first use.
    #[allow(clippy::cast_possible_truncation, reason = "below CHUNK_PAGES")]
    fn entry(&mut self, vpage: u64) -> &mut u64 {
        let (chunk, at) = (vpage / CHUNK_PAGES as u64, vpage % CHUNK_PAGES as u64);
        let entries = self.page_table.entry(chunk);
        &mut entries.or_insert_with(|| Box::new([UNMAPPED; CHUNK_PAGES]))[at as usize]
    }

    /// Translates and decodes in one step.
    pub fn locate(&mut self, vaddr: u64) -> (u64, Location) {
        let paddr = self.translate(vaddr);
        (paddr, self.map.decode(paddr))
    }

    /// The snapshot record of the placement state. Regions and policy are
    /// configuration (re-derived on rebuild); what must carry over is the
    /// first-touch outcome: the page table, per-cluster allocation
    /// cursors, the placement RNG and the round-robin cursor.
    pub(crate) fn snapshot(&self) -> JsonValue {
        // (vpage, ppage) pairs, flattened in ascending virtual-page order.
        let table = self.page_table.iter();
        let pages = table.flat_map(|(&c, e)| (c * CHUNK_PAGES as u64..).zip(e.iter()));
        let pages = pages
            .filter(|(_, &p)| p != UNMAPPED)
            .flat_map(|(v, &p)| [v, p]);
        JsonValue::object([
            ("page_table", snaps(pages)),
            ("next_seq", self.next_seq.snap()),
            ("rng_state", self.rng.state().snap()),
            ("rr_next", (self.rr_next as u64).snap()),
        ])
    }

    /// Reads back a [`MemoryLayout::snapshot`] record taken on an
    /// identically configured layout.
    ///
    /// # Errors
    ///
    /// Refuses, untouched, a mistyped field, a cluster count this layout
    /// does not have, a virtual page in no declared region, and a
    /// physical page or allocation cursor the address map cannot hand out
    /// on one of this layout's clusters.
    #[allow(clippy::cast_possible_truncation, reason = "rr_next is reader-limited to 2^53")]
    pub(crate) fn restore(&mut self, f: &Fields) -> Result<(), String> {
        let clusters = self.next_seq.len();
        let page_table = f.req("page_table")?.rows(2, None, |c| {
            let ppage = c[1].uint_str()?;
            let on = self.map.page_cluster(ppage) as usize;
            if ppage.checked_mul(self.page_bytes).is_none() || on >= clusters {
                let path = c[1].path();
                return Err(format!(
                    "field '{path}' is not a page this layout hands out"
                ));
            }
            let (vpage, pb) = (c[0].uint_str()?, self.page_bytes);
            let held = |r: &Region| (r.base / pb..(r.base + r.bytes).div_ceil(pb)).contains(&vpage);
            if !self.regions.iter().any(held) {
                let path = c[0].path();
                return Err(format!("field '{path}' is a page in no declared region"));
            }
            Ok((vpage, ppage))
        })?;
        let limit = self.map.pages_per_cluster();
        let next = f.req("next_seq")?;
        let next_seq = next.list_of(clusters, |x| {
            let seq = x.uint_str()?;
            if seq >= limit {
                let path = x.path();
                return Err(format!("field '{path}' is past a cluster's {limit} pages"));
            }
            Ok(seq)
        })?;
        let rng_state = f.req("rng_state")?.u64_str()?;
        let rr_next: u64 = f.get("rr_next")?;
        self.page_table.clear();
        for (vpage, ppage) in page_table {
            *self.entry(vpage) = ppage;
        }
        self.next_seq = next_seq;
        self.rng = SplitMix64::new(rng_state);
        self.rr_next = rr_next as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_obs::json::Field;

    fn layout(n_clusters: u32) -> MemoryLayout {
        MemoryLayout::new(&SystemConfig::paper(), n_clusters)
    }

    #[test]
    fn same_page_translates_consistently() {
        let mut l = layout(4);
        l.add_region(0, 1 << 20, &[0, 1, 2, 3]);
        let a = l.translate(0x1234);
        let b = l.translate(0x1238);
        assert_eq!(a + 4, b, "offsets within a page are preserved");
        assert_eq!(rows(&l).len(), 2, "one page touched");
    }

    #[test]
    fn restricted_region_stays_on_its_clusters() {
        let mut l = layout(4);
        l.add_region(0, 1 << 22, &[2]);
        for off in (0..(1u64 << 22)).step_by(4096) {
            let (_, loc) = l.locate(off);
            assert_eq!(loc.cluster, 2);
        }
    }

    #[test]
    fn random_placement_spreads_pages() {
        let mut l = layout(4);
        l.add_region(0, 4 << 20, &[0, 1, 2, 3]);
        let mut counts = [0u32; 4];
        for off in (0..(4u64 << 20)).step_by(4096) {
            let (_, loc) = l.locate(off);
            counts[loc.cluster as usize] += 1;
        }
        for c in counts {
            assert!(c > 128, "each cluster should get a fair share: {counts:?}");
        }
    }

    #[test]
    fn lines_within_a_page_interleave_local_hmcs() {
        let mut l = layout(4);
        l.add_region(0, 1 << 20, &[1]);
        let mut seen = [false; 4];
        for off in (0..4096u64).step_by(128) {
            let (_, loc) = l.locate(off);
            seen[loc.local_hmc as usize] = true;
            assert_eq!(loc.cluster, 1);
        }
        assert!(
            seen.iter().all(|&s| s),
            "cache lines must cover all local HMCs"
        );
    }

    #[test]
    fn later_regions_take_precedence() {
        let mut l = layout(4);
        l.add_region(0, 1 << 20, &[0]);
        l.add_region(0, 4096, &[3]);
        let (_, loc) = l.locate(100);
        assert_eq!(loc.cluster, 3);
        let (_, loc2) = l.locate(8192);
        assert_eq!(loc2.cluster, 0);
    }

    #[test]
    fn host_region_is_disjoint_from_device() {
        let mut l = layout(5);
        l.add_region(0, 1 << 20, &[0, 1, 2, 3]);
        l.add_region(HOST_BASE, 1 << 20, &[4]);
        let a = l.translate(0x1000);
        let b = l.translate(HOST_BASE + 0x1000);
        assert_ne!(a, b);
        assert_eq!(l.map().decode(b).cluster, 4);
    }

    #[test]
    fn translation_is_deterministic() {
        let run = || {
            let mut l = layout(4);
            l.add_region(0, 1 << 22, &[0, 1, 2, 3]);
            (0..256u64)
                .map(|i| l.translate(i * 4096))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The `page_table` rows of `l`'s snapshot, flattened.
    fn rows(l: &MemoryLayout) -> Vec<u64> {
        let snap = l.snapshot();
        let Some(JsonValue::Array(cells)) = snap.get("page_table") else {
            panic!("page_table is an array: {snap:?}");
        };
        let cell = |c: &JsonValue| c.as_str().and_then(|s| s.parse().ok());
        cells
            .iter()
            .map(|c| cell(c).expect("a decimal string"))
            .collect()
    }

    /// A device region of 2 048 pages and a host region from the page
    /// below `HOST_BASE`: both straddle 512-page boundaries.
    fn bordered() -> MemoryLayout {
        let mut l = layout(5);
        l.add_region(0, 2048 * 4096, &[0, 1, 2, 3]);
        l.add_region(HOST_BASE - 4096, 1025 * 4096, &[4]);
        l
    }

    #[test]
    fn page_table_agrees_with_a_plain_map() {
        let pb = 4096;
        let host = HOST_BASE / pb;
        let borders = [
            0,
            1,
            511,
            512,
            513,
            1023,
            1024,
            2047,
            host - 1,
            host,
            host + 511,
            host + 512,
            host + 1023,
        ];
        let mut l = bordered();
        let mut reference = BTreeMap::new();
        let mut rng = SplitMix64::new(11);
        for i in 0..6000 {
            let vpage = match rng.next_below(4) {
                0 => borders[rng.next_below(borders.len() as u64) as usize],
                1 => host - 1 + rng.next_below(1025),
                _ => rng.next_below(2048),
            };
            let offset = rng.next_below(pb);
            let paddr = l.translate(vpage * pb + offset);
            let ppage = *reference.entry(vpage).or_insert(paddr / pb);
            assert_eq!(paddr, ppage * pb + offset, "op {i}: page {vpage:#x}");
        }
        let mut ppages: Vec<u64> = reference.values().copied().collect();
        ppages.sort_unstable();
        ppages.dedup();
        assert_eq!(
            ppages.len(),
            reference.len(),
            "a physical page is handed out once"
        );
        let want: Vec<u64> = reference.iter().flat_map(|(&v, &p)| [v, p]).collect();
        assert_eq!(rows(&l), want, "rows in ascending virtual-page order");
        let mut back = bordered();
        Field::root(&l.snapshot(), "")
            .record(|f| back.restore(f))
            .expect("a layout restores its own snapshot");
        assert_eq!(rows(&back), want);
        for (&v, &p) in &reference {
            assert_eq!(
                back.translate(v * pb + 7),
                p * pb + 7,
                "restored page {v:#x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside all regions")]
    fn unmapped_address_panics() {
        let mut l = layout(4);
        l.add_region(0, 4096, &[0]);
        let _ = l.translate(1 << 30);
    }

    #[test]
    #[should_panic(expected = "cluster out of range")]
    fn bad_cluster_panics() {
        let mut l = layout(2);
        l.add_region(0, 4096, &[5]);
    }
}
