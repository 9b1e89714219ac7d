//! One hybrid memory cube: 16 vaults behind the logic-layer switch.
//!
//! The network side (routing between cubes) is modeled by `memnet-noc`;
//! this type models the memory side of the logic die: accepting request
//! packets from the cube's network endpoint, dispatching them to vault
//! controllers, and emitting completions that become response packets.
//! Atomic operations execute here, near the vault controllers
//! (Section III-D).

use crate::vault::{Vault, VaultStats};
use memnet_common::config::HmcConfig;
use memnet_common::MemReq;
use memnet_obs::json::{Fields, JsonValue, Snap};
use memnet_obs::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::zip;

#[derive(Debug)]
struct Completion {
    at: u64,
    seq: u64,
    req: MemReq,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A hybrid memory cube's memory side.
#[derive(Debug)]
pub struct HmcDevice {
    vaults: Vec<Vault>,
    completions: BinaryHeap<Reverse<Completion>>,
    seq: u64,
    inflight: usize,
    /// Fault injection: vault `v` is frozen until `stalled_until[v]` tCK
    /// (exclusive). Queued requests wait the stall out; nothing is lost.
    stalled_until: Vec<u64>,
    /// Cumulative vault-stall events injected into this cube.
    stalls: u64,
}

impl HmcDevice {
    /// Creates a cube with `cfg.vaults` vault controllers.
    pub fn new(cfg: &HmcConfig) -> Self {
        HmcDevice {
            vaults: (0..cfg.vaults).map(|_| Vault::new(cfg)).collect(),
            completions: BinaryHeap::new(),
            seq: 0,
            inflight: 0,
            stalled_until: vec![0; cfg.vaults as usize],
            stalls: 0,
        }
    }

    /// Number of vault controllers in this cube.
    pub fn vault_count(&self) -> usize {
        self.vaults.len()
    }

    /// Fault injection: freezes vault `vault % vault_count` until
    /// `until_tck` (exclusive). The vault keeps accepting requests into
    /// its queue but services nothing while stalled; overlapping stalls
    /// extend to the later deadline.
    pub fn stall_vault(&mut self, vault: u64, until_tck: u64) {
        #[allow(clippy::cast_possible_truncation, reason = "`% len` is below the vault count")]
        let v = (vault % self.vaults.len() as u64) as usize;
        self.stalled_until[v] = self.stalled_until[v].max(until_tck);
        self.stalls += 1;
    }

    /// True if `vault` can accept another request.
    pub fn can_accept(&self, vault: u32) -> bool {
        self.vaults[vault as usize].can_accept()
    }

    /// Hands a request to a vault controller.
    ///
    /// # Errors
    ///
    /// Returns the request back if the vault queue is full (the caller
    /// should stall its ejection port — finite logic-die buffering).
    pub fn try_accept(
        &mut self,
        req: MemReq,
        vault: u32,
        bank: u32,
        row: u64,
    ) -> Result<(), MemReq> {
        self.vaults[vault as usize].try_enqueue(req, bank, row)?;
        self.inflight += 1;
        Ok(())
    }

    /// Advances all vaults one DRAM cycle.
    pub fn tick(&mut self, now_tck: u64) {
        self.tick_traced(now_tck, 0, None);
    }

    /// [`HmcDevice::tick`] with optional vault-service tracing; `hmc` is
    /// this cube's global index for the trace track.
    pub fn tick_traced(&mut self, now_tck: u64, hmc: u32, mut tracer: Option<&mut Tracer>) {
        #[allow(clippy::cast_possible_truncation, reason = "the vault count is a u32 config field")]
        for (vi, v) in self.vaults.iter_mut().enumerate() {
            if v.queue_len() == 0 || now_tck < self.stalled_until[vi] {
                continue;
            }
            if let Some((req, done)) = v.tick_traced(now_tck, hmc, vi as u32, tracer.as_deref_mut())
            {
                self.seq += 1;
                self.completions.push(Reverse(Completion {
                    at: done,
                    seq: self.seq,
                    req,
                }));
            }
        }
    }

    /// Total requests queued across all vault controllers (queue-depth
    /// gauge for metrics epochs; excludes in-flight completions).
    pub fn queued(&self) -> usize {
        self.vaults.iter().map(Vault::queue_len).sum()
    }

    /// Visits each vault's current queue depth in vault order, for
    /// occupancy histogram sampling.
    pub fn sample_vault_depths(&self, mut f: impl FnMut(u64)) {
        for v in &self.vaults {
            f(v.queue_len() as u64);
        }
    }

    /// Pops one request whose data transfer finished by `now_tck`.
    pub fn pop_completed(&mut self, now_tck: u64) -> Option<MemReq> {
        if self
            .completions
            .peek()
            .is_none_or(|Reverse(c)| c.at > now_tck)
        {
            return None;
        }
        let Reverse(c) = self.completions.pop()?;
        self.inflight -= 1;
        Some(c.req)
    }

    /// True while any vault or the completion queue holds work.
    pub fn has_work(&self) -> bool {
        self.inflight > 0
    }

    /// True while a vault controller holds a request it has not yet
    /// serviced: the only work a [`HmcDevice::tick`] can act on. Vault
    /// timing — including the tREFI refresh cadence — is keyed off the
    /// externally supplied `now_tck`, and vaults with empty queues are
    /// skipped inside the tick, so an idle stretch needs no catch-up.
    #[inline]
    pub fn has_queued(&self) -> bool {
        self.inflight > self.completions.len()
    }

    /// The DRAM cycle at which the earliest serviced request completes,
    /// or `None` when no completion is pending.
    #[inline]
    pub fn next_completion(&self) -> Option<u64> {
        self.completions.peek().map(|Reverse(c)| c.at)
    }

    /// The snapshot record. Only valid while the cube is drained (no
    /// queued requests, no pending completions) — a quiescent phase
    /// boundary. `stalled_until` deadlines are preserved verbatim so
    /// vault-stall faults injected before the snapshot keep acting after
    /// restore.
    ///
    /// # Panics
    ///
    /// Panics if any request is in flight.
    pub fn snapshot(&self) -> JsonValue {
        assert!(
            !self.has_work() && self.completions.is_empty(),
            "HMC snapshot requires a drained cube (quiescent phase boundary)"
        );
        let vaults = self.vaults.iter().map(Vault::snapshot).collect();
        JsonValue::object([
            ("seq", self.seq.snap()),
            ("stalled_until", self.stalled_until.snap()),
            ("stalls", self.stalls.snap()),
            ("vaults", JsonValue::Array(vaults)),
        ])
    }

    /// This cube, fresh from [`HmcDevice::new`], holding a
    /// [`HmcDevice::snapshot`] record taken on an identically configured
    /// cube.
    ///
    /// # Errors
    ///
    /// Refuses a mistyped field, a stall-deadline or vault count this cube
    /// does not have, and a vault record its vault refuses.
    pub fn restored(mut self, f: &Fields) -> Result<Self, String> {
        let n = self.vaults.len();
        self.seq = f.get("seq")?;
        self.stalled_until = f.req("stalled_until")?.list_of(n, u64::unsnap)?;
        self.stalls = f.get("stalls")?;
        let records = f.req("vaults")?.list_of(n, Ok)?;
        self.vaults = zip(self.vaults, records)
            .map(|(v, x)| x.record(|r| v.restored(r)))
            .collect::<Result<_, _>>()?;
        Ok(self)
    }

    /// Merged statistics over all vaults.
    pub fn stats(&self) -> VaultStats {
        let mut s = VaultStats::default();
        for v in &self.vaults {
            let vs = v.stats();
            s.row_hits += vs.row_hits;
            s.row_misses += vs.row_misses;
            s.served += vs.served;
            s.bytes += vs.bytes;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_common::{AccessKind, Agent, GpuId, ReqId, SystemConfig};

    fn req(id: u64) -> MemReq {
        MemReq {
            id: ReqId(id),
            addr: 0,
            bytes: 128,
            kind: AccessKind::Read,
            src: Agent::Gpu(GpuId(0)),
        }
    }

    #[test]
    fn requests_flow_through_vaults() {
        let cfg = SystemConfig::paper().hmc;
        let mut d = HmcDevice::new(&cfg);
        for i in 0..32 {
            d.try_accept(req(i), (i % 16) as u32, 0, 0).unwrap();
        }
        assert!(d.has_work() && d.has_queued());
        assert_eq!(d.next_completion(), None);
        let mut done = 0;
        for now in 0..10_000 {
            d.tick(now);
            while d.pop_completed(now).is_some() {
                done += 1;
            }
            if done == 32 {
                break;
            }
        }
        assert_eq!(done, 32);
        assert!(!d.has_work());
        assert_eq!(d.stats().served, 32);
    }

    #[test]
    fn a_cube_that_sleeps_between_completions_matches_a_stepped_one() {
        // The DRAM domain's park rule: with no request queued, nothing
        // before the next completion can change the cube.
        let cfg = SystemConfig::paper().hmc;
        let run = |sleep: bool| {
            let mut d = HmcDevice::new(&cfg);
            let mut out = Vec::new();
            for now in 0..20_000u64 {
                if now % 500 == 0 && now < 10_000 {
                    for i in 0..6 {
                        let id = now + i;
                        d.try_accept(req(id), (id % 3) as u32, 0, id / 4).unwrap();
                    }
                }
                if sleep && !d.has_queued() && d.next_completion().is_none_or(|at| at > now) {
                    continue;
                }
                d.tick(now);
                while let Some(r) = d.pop_completed(now) {
                    out.push((now, r.id));
                }
            }
            assert!(!d.has_work());
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn completions_come_out_in_time_order() {
        let cfg = SystemConfig::paper().hmc;
        let mut d = HmcDevice::new(&cfg);
        for i in 0..16 {
            d.try_accept(req(i), i as u32 % 4, 0, i / 4).unwrap();
        }
        let mut last = 0u64;
        let mut done = 0;
        for now in 0..100_000 {
            d.tick(now);
            while d.pop_completed(now).is_some() {
                assert!(now >= last);
                last = now;
                done += 1;
            }
            if done == 16 {
                break;
            }
        }
        assert_eq!(done, 16);
    }

    #[test]
    fn parallel_vaults_beat_single_vault() {
        let cfg = SystemConfig::paper().hmc;
        let run = |spread: bool| -> u64 {
            let mut d = HmcDevice::new(&cfg);
            let mut fed = 0u64;
            let mut done = 0;
            let mut now = 0;
            while done < 64 {
                while fed < 64 {
                    let vault = if spread { (fed % 16) as u32 } else { 0 };
                    if d.can_accept(vault)
                        && d.try_accept(req(fed), vault, (fed % 16) as u32, fed / 7)
                            .is_ok()
                    {
                        fed += 1;
                        continue;
                    }
                    break;
                }
                d.tick(now);
                while d.pop_completed(now).is_some() {
                    done += 1;
                }
                now += 1;
                assert!(now < 1_000_000);
            }
            now
        };
        let spread_time = run(true);
        let single_time = run(false);
        assert!(
            spread_time * 2 < single_time,
            "vault parallelism: spread {spread_time} vs single {single_time}"
        );
    }

    #[test]
    fn stalled_vault_delays_but_never_drops() {
        let cfg = SystemConfig::paper().hmc;
        let serve = |stall_until: u64| -> u64 {
            let mut d = HmcDevice::new(&cfg);
            if stall_until > 0 {
                d.stall_vault(0, stall_until);
            }
            for i in 0..8 {
                d.try_accept(req(i), 0, 0, 0).unwrap();
            }
            let mut done = 0;
            for now in 0..100_000 {
                d.tick(now);
                while d.pop_completed(now).is_some() {
                    done += 1;
                }
                if done == 8 {
                    return now;
                }
            }
            panic!("requests lost in stalled vault");
        };
        let clean = serve(0);
        let stalled = serve(2_000);
        assert!(
            stalled >= 2_000 && stalled > clean,
            "stall must delay service: clean {clean}, stalled {stalled}"
        );
    }

    #[test]
    fn overlapping_stalls_keep_the_later_deadline() {
        let cfg = SystemConfig::paper().hmc;
        let mut d = HmcDevice::new(&cfg);
        d.stall_vault(3, 5_000);
        d.stall_vault(3, 1_000);
        assert_eq!(d.stalls, 2);
        d.try_accept(req(0), 3, 0, 0).unwrap();
        for now in 0..4_999 {
            d.tick(now);
            assert!(
                d.pop_completed(now).is_none(),
                "nothing may complete before the later stall deadline"
            );
        }
    }

    #[test]
    fn stall_vault_wraps_out_of_range_indices() {
        let cfg = SystemConfig::paper().hmc;
        let mut d = HmcDevice::new(&cfg);
        let n = d.vault_count() as u64;
        d.stall_vault(n + 2, 100); // targets vault 2, no panic
        assert_eq!(d.stalls, 1);
    }

    #[test]
    fn backpressure_when_vault_full() {
        let cfg = SystemConfig::paper().hmc;
        let mut d = HmcDevice::new(&cfg);
        for i in 0..cfg.vault_queue as u64 {
            d.try_accept(req(i), 0, 0, 0).unwrap();
        }
        assert!(!d.can_accept(0));
        assert!(d.try_accept(req(99), 0, 0, 0).is_err());
        assert!(d.can_accept(1), "other vaults unaffected");
    }
}
