//! Vault controller: FR-FCFS scheduling over banked DRAM with Table I
//! timing.
//!
//! Each vault owns a request queue (16 entries), a set of banks with
//! open-row state, and a shared TSV data bus. Scheduling is FR-FCFS
//! (first-ready, first-come-first-served \[48\]): among requests whose bank
//! can accept a command, row hits win; ties break by age. All times are in
//! DRAM clock cycles (tCK = 1.25 ns).

use memnet_common::config::HmcConfig;
use memnet_common::{AccessKind, MemReq};
use memnet_obs::json::{Field, Fields, JsonValue, Snap};
use memnet_obs::{ClockDomain, TraceEventKind, Tracer};
use std::collections::VecDeque;

/// One DRAM bank's timing state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest tCK the next command (activate/precharge/column) may issue.
    next_cmd: u64,
    /// When the current row was activated (for tRAS).
    activated_at: u64,
    /// End of the last write burst + tWR (precharge must wait).
    write_recovery_until: u64,
    /// Next scheduled refresh (tREFI cadence; refresh closes the row and
    /// blocks the bank for tRFC).
    next_refresh: u64,
}

/// Bank `i` of a fresh vault: closed, with no deadline but its first
/// refresh. Refreshes are staggered across banks so they don't all fire
/// at t = 0 or collide on the same cycle.
fn fresh_bank(cfg: &HmcConfig, i: usize) -> Bank {
    Bank {
        next_refresh: (i as u64 + 1) * cfg.t_refi.max(1) as u64 / cfg.banks_per_vault as u64
            + cfg.t_refi as u64 / 2,
        ..Bank::default()
    }
}

/// A queued request with its decoded bank/row.
#[derive(Debug, Clone, Copy)]
struct Entry {
    req: MemReq,
    bank: u32,
    row: u64,
}

memnet_obs::snap_struct! {
    /// Scheduling statistics for one vault.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct VaultStats {
        /// Requests serviced that hit the open row.
        pub row_hits: u64,
        /// Requests serviced that required precharge/activate.
        pub row_misses: u64,
        /// Total requests serviced.
        pub served: u64,
        /// Total bytes moved over the vault data bus.
        pub bytes: u64,
        /// Refresh commands issued.
        pub refreshes: u64,
    }
}

/// One vault: queue + banks + data bus.
#[derive(Debug)]
pub struct Vault {
    queue: VecDeque<Entry>,
    banks: Vec<Bank>,
    bus_free_at: u64,
    queue_cap: usize,
    cfg: HmcConfig,
    stats: VaultStats,
}

impl Vault {
    /// Creates a vault per the HMC configuration.
    pub fn new(cfg: &HmcConfig) -> Self {
        let banks = (0..cfg.banks_per_vault as usize)
            .map(|i| fresh_bank(cfg, i))
            .collect();
        Vault {
            queue: VecDeque::with_capacity(cfg.vault_queue as usize),
            banks,
            bus_free_at: 0,
            queue_cap: cfg.vault_queue as usize,
            cfg: *cfg,
            stats: VaultStats::default(),
        }
    }

    /// True if the request queue has room.
    #[inline]
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_cap
    }

    /// Number of queued requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Scheduling statistics.
    pub fn stats(&self) -> VaultStats {
        self.stats
    }

    /// Enqueues a request for `bank`/`row`.
    ///
    /// # Errors
    ///
    /// Returns the request back if the 16-entry queue is full.
    pub fn try_enqueue(&mut self, req: MemReq, bank: u32, row: u64) -> Result<(), MemReq> {
        if !self.can_accept() {
            return Err(req);
        }
        debug_assert!((bank as usize) < self.banks.len(), "bank index in range");
        self.queue.push_back(Entry { req, bank, row });
        Ok(())
    }

    /// FR-FCFS issue: picks at most one request this cycle, returning it and
    /// its data-completion time in tCK.
    pub fn tick(&mut self, now: u64) -> Option<(MemReq, u64)> {
        self.tick_traced(now, 0, 0, None)
    }

    /// [`Vault::tick`] with optional tracing: each serviced request emits a
    /// [`TraceEventKind::VaultService`] span from its first DRAM command to
    /// the end of the data burst. The vault holds no identity, so the
    /// caller passes `(hmc, vault)` coordinates.
    pub fn tick_traced(
        &mut self,
        now: u64,
        hmc: u32,
        vault: u32,
        tracer: Option<&mut Tracer>,
    ) -> Option<(MemReq, u64)> {
        if self.queue.is_empty() {
            return None;
        }
        // First-ready: banks whose command slot is open.
        // Prefer the oldest row hit, else the oldest ready request.
        let mut pick: Option<usize> = None;
        for (i, e) in self.queue.iter().enumerate() {
            let bank = &self.banks[e.bank as usize];
            if bank.next_cmd > now {
                continue;
            }
            let hit = bank.open_row == Some(e.row);
            if hit {
                pick = Some(i);
                break;
            }
            if pick.is_none() {
                pick = Some(i);
            }
        }
        let idx = pick?;
        #[allow(clippy::expect_used, reason = "idx comes from enumerate() over this same queue")]
        let e = self.queue.remove(idx).expect("index valid");
        let bank = &mut self.banks[e.bank as usize];
        let c = &self.cfg;
        // Refresh: on the tREFI cadence, close the row and block the bank
        // for tRFC before the request's commands may issue.
        if c.t_refi > 0 && now >= bank.next_refresh {
            let start = now
                .max(bank.activated_at + c.t_ras as u64)
                .max(bank.write_recovery_until);
            bank.open_row = None;
            bank.next_cmd = bank.next_cmd.max(start + c.t_rfc as u64);
            bank.next_refresh = now + c.t_refi as u64;
            self.stats.refreshes += 1;
        }
        let burst = (e.req.bytes as u64)
            .div_ceil(c.vault_bus_bytes_per_tck as u64)
            .max(1);

        // Column command time after any row cycling.
        let cmd_at = now.max(bank.next_cmd);
        let row_hit = bank.open_row == Some(e.row);
        let col_ready = match bank.open_row {
            Some(r) if r == e.row => {
                self.stats.row_hits += 1;
                cmd_at
            }
            Some(_) => {
                self.stats.row_misses += 1;
                // Precharge must respect tRAS since activate and tWR after
                // the last write burst.
                let pre_at = cmd_at
                    .max(bank.activated_at + c.t_ras as u64)
                    .max(bank.write_recovery_until);
                let act_at = pre_at + c.t_rp as u64;
                bank.activated_at = act_at;
                bank.open_row = Some(e.row);
                act_at + c.t_rcd as u64
            }
            None => {
                self.stats.row_misses += 1;
                bank.activated_at = cmd_at;
                bank.open_row = Some(e.row);
                cmd_at + c.t_rcd as u64
            }
        };

        // Data transfer start obeys CAS latency and bus availability.
        let data_start = (col_ready + c.t_cl as u64).max(self.bus_free_at);
        let mut done = data_start + burst;
        self.bus_free_at = done;
        bank.next_cmd = col_ready + c.t_ccd as u64;
        match e.req.kind {
            AccessKind::Write => {
                bank.write_recovery_until = done + c.t_wr as u64;
            }
            AccessKind::Atomic => {
                // Read-modify-write on the logic die: extra ALU time plus
                // the internal write-back.
                done += c.atomic_extra_tck as u64 + burst;
                bank.write_recovery_until = done + c.t_wr as u64;
                bank.next_cmd = bank.next_cmd.max(done);
            }
            AccessKind::Read => {}
        }
        self.stats.served += 1;
        self.stats.bytes += e.req.bytes as u64;
        if let Some(tr) = tracer {
            tr.emit(
                ClockDomain::Dram,
                cmd_at,
                done - cmd_at,
                TraceEventKind::VaultService {
                    hmc,
                    vault,
                    row_hit,
                    bytes: e.req.bytes,
                },
            );
        }
        Some((e.req, done))
    }

    /// The snapshot record. Only valid while the queue is empty (a
    /// quiescent phase boundary). Bank timing state — open rows, command
    /// deadlines, the staggered refresh schedule — and the bus deadline
    /// are all in absolute tCK, so they restore verbatim. Each bank that
    /// differs from a fresh one is a row `[index, open_row ("-" = closed),
    /// next_cmd, activated_at, write_recovery_until, next_refresh]`, in
    /// ascending index; a vault no request reached has none.
    ///
    /// # Panics
    ///
    /// Panics if requests are still queued.
    pub fn snapshot(&self) -> JsonValue {
        assert!(
            self.queue.is_empty(),
            "vault snapshot requires an empty request queue"
        );
        let touched =
            (self.banks.iter().enumerate()).filter(|&(i, b)| *b != fresh_bank(&self.cfg, i));
        let rows = touched.flat_map(|(i, b)| {
            let row = b
                .open_row
                .map_or_else(|| "-".to_string().snap(), |r| r.snap());
            let deadlines = [
                b.next_cmd,
                b.activated_at,
                b.write_recovery_until,
                b.next_refresh,
            ];
            [(i as u64).snap(), row]
                .into_iter()
                .chain(deadlines.map(|d| d.snap()))
        });
        let mut members = vec![
            ("rows", JsonValue::Array(rows.collect())),
            ("bus_free_at", self.bus_free_at.snap()),
        ];
        members.extend(self.stats.members());
        JsonValue::object(members)
    }

    /// This vault, fresh from [`Vault::new`], holding a
    /// [`Vault::snapshot`] record taken on an identically configured
    /// vault: version 3's `rows`, or versions 1 and 2's `banks`, a dense
    /// `[open_row, next_cmd, activated_at, write_recovery_until,
    /// next_refresh]` row per bank. A bank no row names stays fresh.
    ///
    /// # Errors
    ///
    /// Refuses a record with both `rows` and `banks` or with neither, a
    /// mistyped field, a bank index past this vault's banks or not above
    /// the previous row's, and a dense bank count this vault does not
    /// have.
    pub fn restored(mut self, f: &Fields) -> Result<Self, String> {
        let bank = |c: &[Field]| {
            Ok(Bank {
                open_row: match &*c[0].str()? {
                    "-" => None,
                    _ => Some(c[0].uint_str()?),
                },
                next_cmd: c[1].uint_str()?,
                activated_at: c[2].uint_str()?,
                write_recovery_until: c[3].uint_str()?,
                next_refresh: c[4].uint_str()?,
            })
        };
        match (f.opt("rows")?, f.opt("banks")?) {
            (Some(sparse), None) => {
                for (i, b) in sparse.indexed_rows(6, self.banks.len(), bank)? {
                    self.banks[i] = b;
                }
            }
            (None, Some(dense)) => self.banks = dense.rows(5, Some(self.banks.len()), bank)?,
            _ => {
                let path = f.path();
                return Err(format!(
                    "field '{path}' must hold exactly one of 'rows' and 'banks'"
                ));
            }
        }
        self.bus_free_at = f.get("bus_free_at")?;
        self.stats = VaultStats::read(f)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_common::{Agent, GpuId, ReqId, SystemConfig};
    use memnet_obs::json::ToJson;

    fn cfg() -> HmcConfig {
        SystemConfig::paper().hmc
    }

    fn req(id: u64, bytes: u32, kind: AccessKind) -> MemReq {
        MemReq {
            id: ReqId(id),
            addr: 0,
            bytes,
            kind,
            src: Agent::Gpu(GpuId(0)),
        }
    }

    /// Drives the vault until a specific request completes.
    fn complete_all(v: &mut Vault, n: usize) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        let mut now = 0;
        while done.len() < n {
            if let Some((r, t)) = v.tick(now) {
                done.push((r.id.0, t));
            }
            now += 1;
            assert!(now < 1_000_000, "vault stalled");
        }
        done
    }

    #[test]
    fn closed_bank_read_latency_is_trcd_plus_tcl_plus_burst() {
        let c = cfg();
        let mut v = Vault::new(&c);
        v.try_enqueue(req(1, 128, AccessKind::Read), 0, 5).unwrap();
        let (_, t) = v.tick(0).expect("issued");
        let burst = 128 / c.vault_bus_bytes_per_tck as u64;
        assert_eq!(t, (c.t_rcd + c.t_cl) as u64 + burst);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let c = cfg();
        let mut v = Vault::new(&c);
        v.try_enqueue(req(1, 128, AccessKind::Read), 0, 5).unwrap();
        let (_, t1) = v.tick(0).expect("first");
        // Same row again: hit.
        v.try_enqueue(req(2, 128, AccessKind::Read), 0, 5).unwrap();
        let start = t1 + 100;
        let (_, t2) = v.tick(start).expect("hit");
        let hit_lat = t2 - start;
        // Different row: miss with precharge.
        v.try_enqueue(req(3, 128, AccessKind::Read), 0, 9).unwrap();
        let start = t2 + 100;
        let (_, t3) = v.tick(start).expect("miss");
        let miss_lat = t3 - start;
        assert!(hit_lat < miss_lat, "hit {hit_lat} vs miss {miss_lat}");
        assert_eq!(miss_lat - hit_lat, (c.t_rp + c.t_rcd) as u64);
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_miss() {
        let c = cfg();
        let mut v = Vault::new(&c);
        // Open row 5 on bank 0.
        v.try_enqueue(req(1, 128, AccessKind::Read), 0, 5).unwrap();
        let (_, t1) = v.tick(0).expect("warmup");
        let now = t1 + c.t_ccd as u64 + 1;
        // Older request misses (row 9), younger hits (row 5): hit first.
        v.try_enqueue(req(2, 128, AccessKind::Read), 0, 9).unwrap();
        v.try_enqueue(req(3, 128, AccessKind::Read), 0, 5).unwrap();
        let (first, _) = v.tick(now).expect("scheduled");
        assert_eq!(first.id.0, 3, "row hit should be served first");
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let c = cfg();
        let mut v = Vault::new(&c);
        for i in 0..c.vault_queue as u64 {
            v.try_enqueue(req(i, 128, AccessKind::Read), 0, 0).unwrap();
        }
        assert!(!v.can_accept());
        assert!(v.try_enqueue(req(99, 128, AccessKind::Read), 0, 0).is_err());
    }

    #[test]
    fn bus_serializes_back_to_back_hits() {
        let c = cfg();
        let mut v = Vault::new(&c);
        v.try_enqueue(req(1, 128, AccessKind::Read), 0, 5).unwrap();
        v.try_enqueue(req(2, 128, AccessKind::Read), 1, 5).unwrap();
        let done = complete_all(&mut v, 2);
        let burst = 128 / c.vault_bus_bytes_per_tck as u64;
        let gap = done[1].1.abs_diff(done[0].1);
        assert!(
            gap >= burst,
            "completions {gap} apart must be ≥ burst {burst}"
        );
    }

    #[test]
    fn atomic_takes_longer_than_read() {
        let c = cfg();
        let mut v = Vault::new(&c);
        v.try_enqueue(req(1, 128, AccessKind::Read), 0, 5).unwrap();
        let (_, t_read) = v.tick(0).expect("read");
        let mut v2 = Vault::new(&c);
        v2.try_enqueue(req(2, 128, AccessKind::Atomic), 0, 5)
            .unwrap();
        let (_, t_atomic) = v2.tick(0).expect("atomic");
        assert!(t_atomic > t_read);
    }

    #[test]
    fn all_requests_eventually_complete() {
        let c = cfg();
        let mut v = Vault::new(&c);
        let mut issued = 0u64;
        let mut completed = 0;
        let mut now = 0u64;
        while completed < 200 {
            if issued < 200 && v.can_accept() {
                let bank = (issued % 16) as u32;
                let row = issued / 3;
                v.try_enqueue(req(issued, 128, AccessKind::Read), bank, row)
                    .unwrap();
                issued += 1;
            }
            if v.tick(now).is_some() {
                completed += 1;
            }
            now += 1;
            assert!(now < 1_000_000, "stalled");
        }
        let s = v.stats();
        assert_eq!(s.served, 200);
        assert_eq!(s.bytes, 200 * 128);
        assert!(s.row_hits + s.row_misses == 200);
    }

    #[test]
    fn streaming_same_row_gets_high_hit_rate() {
        let c = cfg();
        let mut v = Vault::new(&c);
        let mut now = 0;
        let mut left = 64;
        let mut fed = 0u64;
        while left > 0 {
            if fed < 64 && v.can_accept() {
                v.try_enqueue(req(fed, 128, AccessKind::Read), 0, 7)
                    .unwrap();
                fed += 1;
            }
            if v.tick(now).is_some() {
                left -= 1;
            }
            now += 1;
        }
        let s = v.stats();
        assert!(s.row_hits * 10 > s.served * 9, "{s:?}");
    }

    #[test]
    fn only_banks_that_left_their_fresh_state_are_recorded() {
        let c = cfg();
        let rows = |v: &Vault| match v.snapshot().get("rows") {
            Some(JsonValue::Array(cells)) => cells.len(),
            other => panic!("rows is an array: {other:?}"),
        };
        let mut v = Vault::new(&c);
        assert_eq!(rows(&v), 0, "a fresh vault records no bank");
        v.try_enqueue(req(1, 128, AccessKind::Write), 3, 5).unwrap();
        v.tick(0).expect("issued");
        let snap = v.snapshot();
        assert_eq!(rows(&v), 6, "one row, for bank 3");
        let text = snap.to_json();
        let f = Field::root(&text, "")
            .expect("valid JSON")
            .object()
            .expect("an object");
        let back = Vault::new(&c).restored(&f).expect("restores");
        assert_eq!(back.snapshot(), snap);
        assert_eq!(back.banks, v.banks);
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use memnet_common::{Agent, GpuId, ReqId, SystemConfig};

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
    fn refreshes_fire_on_the_trefi_cadence() {
        let c = SystemConfig::paper().hmc;
        let mut v = Vault::new(&c);
        // Keep bank 0 busy past several tREFI windows.
        let horizon = 4 * c.t_refi as u64;
        let mut now = 0;
        let mut fed = 0u64;
        while now < horizon {
            if v.can_accept() {
                v.try_enqueue(req(fed), 0, fed / 4).unwrap();
                fed += 1;
            }
            v.tick(now);
            now += 1;
        }
        let r = v.stats().refreshes;
        assert!(
            (2..=8).contains(&r),
            "expected a few refreshes over 4 tREFI, got {r}"
        );
    }

    #[test]
    fn refresh_closes_the_open_row() {
        let c = SystemConfig::paper().hmc;
        let mut v = Vault::new(&c);
        // Open row 5, then access it again right after the first refresh
        // window: it must be a row miss (refresh precharged it).
        v.try_enqueue(req(1), 0, 5).unwrap();
        let (_, _) = v.tick(0).expect("first access");
        let hits_before = v.stats().row_hits;
        v.try_enqueue(req(2), 0, 5).unwrap();
        let (_, _) = v.tick(2 * c.t_refi as u64).expect("post-refresh access");
        assert_eq!(
            v.stats().row_hits,
            hits_before,
            "row must have been closed by refresh"
        );
        assert!(v.stats().refreshes >= 1);
    }

    #[test]
    fn disabling_refresh_removes_it() {
        let mut c = SystemConfig::paper().hmc;
        c.t_refi = 0;
        let mut v = Vault::new(&c);
        for i in 0..32 {
            v.try_enqueue(req(i), 0, 0).unwrap_or(());
        }
        let mut now = 0;
        while v.queue_len() > 0 && now < 100_000 {
            v.tick(now);
            now += 1;
        }
        assert_eq!(v.stats().refreshes, 0);
    }
}
