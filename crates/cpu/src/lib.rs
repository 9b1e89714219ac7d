//! Host CPU model: an out-of-order core with ROB-limited memory-level
//! parallelism, a two-level cache, and the DMA engine that performs
//! `cudaMemcpy`-style transfers.
//!
//! This replaces McSimA+/GEMS in the paper's toolchain with the minimal
//! model the evaluation needs: the CPU executes *host programs* — streams
//! of compute intervals and 64 B memory accesses — with up to
//! `rob_size / 8` overlapping misses, so its performance is sensitive to
//! memory latency exactly as Fig. 18 requires; and the [`DmaEngine`]
//! streams copy traffic through whatever interconnect the system
//! organization provides, so memcpy time reflects real path bandwidth
//! (Fig. 14).
//!
//! The set-associative cache primitive is shared with the GPU crate
//! ([`memnet_gpu::cache::Cache`]).
//!
//! # Example
//!
//! ```
//! use memnet_cpu::{CpuCore, CpuOp};
//! use memnet_common::{CpuId, SystemConfig};
//!
//! let mut cpu = CpuCore::new(CpuId(0), &SystemConfig::paper().cpu);
//! cpu.run_program(Box::new([CpuOp::Compute(100), CpuOp::Read(0)].into_iter()));
//! assert!(cpu.busy());
//! cpu.tick();
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::cast_possible_truncation))]

use memnet_common::config::CpuConfig;
use memnet_common::{AccessKind, Agent, CpuId, MemReq, MemResp, ReqId};
use memnet_gpu::cache::Cache;
use memnet_obs::json::{Fields, JsonValue, Snap};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One step of a host program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOp {
    /// Pure computation for the given core cycles.
    Compute(u64),
    /// A 64 B load from a virtual address.
    Read(u64),
    /// A 64 B store to a virtual address (posted).
    Write(u64),
}

/// A host program: a lazily generated op stream.
pub type CpuStream = Box<dyn Iterator<Item = CpuOp> + Send>;

memnet_obs::snap_struct! {
    /// Statistics for the host core.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct CpuStats {
        /// Ops executed.
        pub ops: u64,
        /// Loads that missed both cache levels (went to memory).
        pub mem_reads: u64,
        /// Cycles executed while a program was resident.
        pub busy_cycles: u64,
    }
}

/// The out-of-order host core.
pub struct CpuCore {
    id: CpuId,
    l1: Cache,
    l2: Cache,
    l2_latency: u64,
    max_mlp: u32,
    issue_width: u32,
    stream: Option<CpuStream>,
    outstanding: u32,
    /// Cycle at which queued compute work finishes.
    compute_until: u64,
    /// Internally satisfied accesses completing at (cycle).
    local_completions: BinaryHeap<Reverse<u64>>,
    mem_out: VecDeque<MemReq>,
    mem_out_cap: usize,
    next_req: u64,
    cycle: u64,
    stats: CpuStats,
}

impl std::fmt::Debug for CpuCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuCore")
            .field("id", &self.id)
            .field("cycle", &self.cycle)
            .field("outstanding", &self.outstanding)
            .finish()
    }
}

impl CpuCore {
    /// Creates a core per the Table I CPU configuration.
    pub fn new(id: CpuId, cfg: &CpuConfig) -> Self {
        CpuCore {
            id,
            l1: Cache::new(&cfg.l1),
            l2: Cache::new(&cfg.l2),
            l2_latency: cfg.l2.latency_cycles as u64,
            max_mlp: (cfg.rob_size / 8).max(1),
            issue_width: cfg.issue_width,
            stream: None,
            outstanding: 0,
            compute_until: 0,
            local_completions: BinaryHeap::new(),
            mem_out: VecDeque::new(),
            mem_out_cap: 32,
            next_req: 0,
            cycle: 0,
            stats: CpuStats::default(),
        }
    }

    /// Starts a host program; any previous program must have drained.
    ///
    /// # Panics
    ///
    /// Panics if the core is still busy.
    pub fn run_program(&mut self, s: CpuStream) {
        assert!(!self.busy(), "previous host program still running");
        self.stream = Some(s);
    }

    /// True while the program has unexecuted ops or outstanding accesses.
    pub fn busy(&self) -> bool {
        self.stream.is_some()
            || self.outstanding > 0
            || self.compute_until > self.cycle
            || !self.local_completions.is_empty()
    }

    /// True when a tick would be a no-op (idle signal for the
    /// event-driven engine). The core's internal cycle counter is purely
    /// relative — compute deadlines are re-based against it on issue — so
    /// no catch-up is needed after an idle stretch.
    #[inline]
    pub fn is_idle(&self) -> bool {
        !self.busy()
    }

    /// True while issued requests await network injection.
    #[inline]
    pub fn has_mem_request(&self) -> bool {
        !self.mem_out.is_empty()
    }

    /// Current core cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Loads currently in flight (MLP occupancy gauge).
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// One 4 GHz core cycle.
    pub fn tick(&mut self) {
        let now = self.cycle;
        if self.busy() {
            self.stats.busy_cycles += 1;
        }
        while self
            .local_completions
            .peek()
            .is_some_and(|&Reverse(c)| c <= now)
        {
            self.local_completions.pop();
            self.outstanding -= 1;
        }
        for _ in 0..self.issue_width {
            if self.outstanding >= self.max_mlp {
                break;
            }
            // Don't run further ahead than the compute backlog allows.
            if self.compute_until > now + 4 {
                break;
            }
            if self.mem_out.len() >= self.mem_out_cap {
                break;
            }
            let Some(stream) = self.stream.as_mut() else {
                break;
            };
            match stream.next() {
                None => {
                    self.stream = None;
                    break;
                }
                Some(op) => {
                    self.stats.ops += 1;
                    match op {
                        CpuOp::Compute(c) => {
                            self.compute_until = self.compute_until.max(now) + c;
                        }
                        CpuOp::Read(addr) => {
                            if self.l1.read(addr) {
                                // L1 hit folded into the pipeline.
                            } else if self.l2.read(addr) {
                                self.l1.fill(self.l1.line_addr(addr));
                                self.outstanding += 1;
                                self.local_completions.push(Reverse(now + self.l2_latency));
                            } else {
                                self.stats.mem_reads += 1;
                                self.outstanding += 1;
                                let id = self.alloc_req();
                                self.mem_out.push_back(MemReq {
                                    id,
                                    addr: self.l2.line_addr(addr),
                                    bytes: 64,
                                    kind: AccessKind::Read,
                                    src: Agent::Cpu(self.id),
                                });
                            }
                        }
                        CpuOp::Write(addr) => {
                            // Write-through approximation of the paper's
                            // MOESI hierarchy: data goes to memory, posted.
                            self.l1.write(addr);
                            self.l2.write(addr);
                            let id = self.alloc_req();
                            self.mem_out.push_back(MemReq {
                                id,
                                addr: self.l2.line_addr(addr),
                                bytes: 64,
                                kind: AccessKind::Write,
                                src: Agent::Cpu(self.id),
                            });
                        }
                    }
                }
            }
        }
        self.cycle += 1;
    }

    fn alloc_req(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId((1u64 << 63) | ((self.id.0 as u64) << 48) | self.next_req)
    }

    /// Takes one off-chip request (virtual address).
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.mem_out.pop_front()
    }

    /// Delivers a memory response.
    pub fn push_mem_response(&mut self, resp: MemResp) {
        if resp.kind == AccessKind::Read {
            self.l2.fill(self.l2.line_addr(resp.addr));
            self.l1.fill(self.l1.line_addr(resp.addr));
            debug_assert!(self.outstanding > 0, "response without outstanding load");
            self.outstanding = self.outstanding.saturating_sub(1);
        }
    }

    /// The snapshot record. Only valid while the core is idle: no
    /// program, no outstanding accesses, no queued requests. Cache
    /// contents (tags, LRU, counters) are recorded so a restored run's
    /// later host phases see the same warm hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the core still holds in-flight work.
    pub fn snapshot(&self) -> JsonValue {
        assert!(
            !self.busy() && self.mem_out.is_empty(),
            "CPU snapshot requires a quiescent phase boundary"
        );
        let mut members = vec![
            ("cycle", self.cycle.snap()),
            ("compute_until", self.compute_until.snap()),
            ("next_req", self.next_req.snap()),
        ];
        members.extend(self.stats.members());
        members.extend([("l1", self.l1.snapshot()), ("l2", self.l2.snapshot())]);
        JsonValue::object(members)
    }

    /// Reads back a [`CpuCore::snapshot`] record taken on an identically
    /// configured core.
    ///
    /// # Errors
    ///
    /// Refuses a mistyped field, a compute backlog past `cycle` (the
    /// recorded core is idle), a request sequence past
    /// [`ReqId::MAX_SEQ`], and a cache level its cache refuses.
    pub fn restore(&mut self, f: &Fields) -> Result<(), String> {
        let cycle = f.get("cycle")?;
        let until = f.req("compute_until")?;
        let compute_until = until.uint_str()?;
        if compute_until > cycle {
            let path = until.path();
            return Err(format!("field '{path}' is past 'cycle' on an idle core"));
        }
        let next_req = f.req("next_req")?.uint_str_to(ReqId::MAX_SEQ)?;
        let stats = CpuStats::read(f)?;
        f.req("l1")?.record(|c| self.l1.restore(c))?;
        f.req("l2")?.record(|c| self.l2.restore(c))?;
        self.cycle = cycle;
        self.compute_until = compute_until;
        self.next_req = next_req;
        self.stats = stats;
        Ok(())
    }
}

/// A `memcpy` job for the DMA engine.
#[derive(Debug, Clone, Copy)]
struct CopyJob {
    src: u64,
    dst: u64,
    bytes: u64,
    next_off: u64,
    reads_outstanding: u32,
}

/// The host DMA engine: streams `memcpy` traffic as line-sized reads from
/// the source followed by writes to the destination.
#[derive(Debug)]
pub struct DmaEngine {
    id: CpuId,
    line: u64,
    window: u32,
    jobs: VecDeque<CopyJob>,
    mem_out: VecDeque<MemReq>,
    mem_out_cap: usize,
    next_req: u64,
    bytes_copied: u64,
}

impl DmaEngine {
    /// Creates a DMA engine with a `window`-deep outstanding-read window.
    pub fn new(id: CpuId, window: u32) -> Self {
        DmaEngine {
            id,
            line: 128,
            window,
            jobs: VecDeque::new(),
            mem_out: VecDeque::new(),
            mem_out_cap: 32,
            next_req: 0,
            bytes_copied: 0,
        }
    }

    /// Queues a copy of `bytes` from virtual `src` to virtual `dst`.
    /// Jobs execute in order.
    pub fn start_copy(&mut self, src: u64, dst: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.jobs.push_back(CopyJob {
            src,
            dst,
            bytes,
            next_off: 0,
            reads_outstanding: 0,
        });
    }

    /// True while any copy is unfinished.
    pub fn busy(&self) -> bool {
        !self.jobs.is_empty() || !self.mem_out.is_empty()
    }

    /// True when a tick would issue a read: the active job has bytes left
    /// to read, a free slot in its window and room in the request queue.
    /// Everything that can turn this true again — a read response, a
    /// drained request, a retired job, [`start_copy`](Self::start_copy) —
    /// happens outside the DMA's own tick, so while it is false the
    /// event-driven engine may skip the tick. The DMA engine keeps no
    /// clock of its own, so skipped ticks need no catch-up.
    #[inline]
    pub fn can_issue(&self) -> bool {
        self.jobs.front().is_some_and(|job| {
            job.next_off < job.bytes
                && job.reads_outstanding < self.window
                && self.mem_out.len() < self.mem_out_cap
        })
    }

    /// True while issued requests await network injection.
    #[inline]
    pub fn has_mem_request(&self) -> bool {
        !self.mem_out.is_empty()
    }

    /// Total bytes whose writes have been issued.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Line reads issued for the active job but not yet answered (gauge).
    pub fn reads_inflight(&self) -> u32 {
        self.jobs.front().map_or(0, |j| j.reads_outstanding)
    }

    /// Issues read requests for the current job while
    /// [`can_issue`](Self::can_issue) holds, so a tick the event-driven
    /// engine skips is one that would have issued nothing.
    pub fn tick(&mut self) {
        while self.can_issue() {
            let Some(job) = self.jobs.front_mut() else {
                return;
            };
            self.next_req += 1;
            let id = ReqId((1u64 << 62) | ((self.id.0 as u64) << 48) | self.next_req);
            #[allow(clippy::cast_possible_truncation, reason = "at most one cache line")]
            let bytes = self.line.min(job.bytes - job.next_off) as u32;
            self.mem_out.push_back(MemReq {
                id,
                addr: job.src + job.next_off,
                bytes,
                kind: AccessKind::Read,
                src: Agent::Dma(self.id),
            });
            job.next_off += bytes as u64;
            job.reads_outstanding += 1;
        }
    }

    /// Takes one request for the memory system.
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.mem_out.pop_front()
    }

    /// The snapshot record. Only valid while the engine is idle (no jobs,
    /// no queued requests).
    ///
    /// # Panics
    ///
    /// Panics if a copy is still in flight.
    pub fn snapshot(&self) -> JsonValue {
        assert!(!self.busy(), "DMA snapshot requires a quiescent boundary");
        JsonValue::object([
            ("next_req", self.next_req.snap()),
            ("bytes_copied", self.bytes_copied.snap()),
        ])
    }

    /// Reads back a [`DmaEngine::snapshot`] record.
    ///
    /// # Errors
    ///
    /// Refuses a mistyped field and a request sequence past
    /// [`ReqId::MAX_SEQ`].
    pub fn restore(&mut self, f: &Fields) -> Result<(), String> {
        let next_req = f.req("next_req")?.uint_str_to(ReqId::MAX_SEQ)?;
        self.bytes_copied = f.get("bytes_copied")?;
        self.next_req = next_req;
        Ok(())
    }

    /// Delivers a read response: emits the matching write to the
    /// destination and retires the job when everything is written.
    pub fn push_mem_response(&mut self, resp: MemResp) {
        if resp.kind != AccessKind::Read {
            return; // write acks are ignored (posted)
        }
        let Some(job) = self.jobs.front_mut() else {
            debug_assert!(false, "DMA response with no active job");
            return;
        };
        let off = resp.addr - job.src;
        job.reads_outstanding -= 1;
        self.next_req += 1;
        let id = ReqId((1u64 << 62) | ((self.id.0 as u64) << 48) | self.next_req);
        self.mem_out.push_back(MemReq {
            id,
            addr: job.dst + off,
            bytes: resp.bytes,
            kind: AccessKind::Write,
            src: Agent::Dma(self.id),
        });
        self.bytes_copied += resp.bytes as u64;
        if job.next_off >= job.bytes && job.reads_outstanding == 0 {
            self.jobs.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_common::SystemConfig;

    fn cpu() -> CpuCore {
        CpuCore::new(CpuId(0), &SystemConfig::paper().cpu)
    }

    /// Runs the core standalone against flat-latency memory.
    fn run(c: &mut CpuCore, mem_lat: u64, max: u64) -> u64 {
        let mut pending: VecDeque<(u64, MemReq)> = VecDeque::new();
        let mut now = 0;
        while c.busy() && now < max {
            c.tick();
            while let Some(r) = c.pop_mem_request() {
                pending.push_back((now + mem_lat, r));
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, r) = pending.pop_front().expect("nonempty");
                if r.kind == AccessKind::Read {
                    c.push_mem_response(r.response());
                }
            }
            now += 1;
        }
        assert!(!c.busy(), "CPU must drain");
        now
    }

    #[test]
    fn compute_only_program_takes_compute_time() {
        let mut c = cpu();
        c.run_program(Box::new(std::iter::once(CpuOp::Compute(1000))));
        let t = run(&mut c, 10, 100_000);
        assert!((1000..1100).contains(&t), "took {t}");
    }

    #[test]
    fn memory_latency_hurts_dependent_reads() {
        let mk = || -> CpuStream {
            // Reads far apart (every read misses; strided by 4 KB).
            Box::new((0..64u64).map(|i| CpuOp::Read(i * 4096)))
        };
        let mut fast = cpu();
        fast.run_program(mk());
        let t_fast = run(&mut fast, 20, 1_000_000);
        let mut slow = cpu();
        slow.run_program(mk());
        let t_slow = run(&mut slow, 2000, 10_000_000);
        assert!(t_slow > t_fast * 3, "fast {t_fast} slow {t_slow}");
    }

    #[test]
    fn mlp_overlaps_independent_misses() {
        let mut c = cpu();
        let n = 64u64;
        c.run_program(Box::new((0..n).map(|i| CpuOp::Read(i * 4096))));
        let t = run(&mut c, 400, 10_000_000);
        // With 8-deep MLP, 64 misses of 400 cycles ≈ 64/8 × 400 ≈ 3200,
        // far less than serialized 25 600.
        assert!(t < 8_000, "MLP should overlap misses: {t}");
    }

    #[test]
    fn cache_hits_avoid_memory() {
        let mut c = cpu();
        // Two passes over a small range: second pass hits.
        let ops: Vec<CpuOp> = (0..2)
            .flat_map(|_| (0..32u64).map(|i| CpuOp::Read(i * 64)))
            .collect();
        c.run_program(Box::new(ops.into_iter()));
        run(&mut c, 100, 1_000_000);
        assert_eq!(c.stats().mem_reads, 32, "second pass must hit");
    }

    #[test]
    fn writes_are_posted() {
        let mut c = cpu();
        c.run_program(Box::new((0..16u64).map(|i| CpuOp::Write(i * 64))));
        let mut now = 0;
        while c.busy() && now < 10_000 {
            c.tick();
            while c.pop_mem_request().is_some() {}
            now += 1;
        }
        assert!(!c.busy());
    }

    #[test]
    #[should_panic(expected = "still running")]
    fn cannot_start_program_while_busy() {
        let mut c = cpu();
        c.run_program(Box::new(std::iter::once(CpuOp::Compute(100))));
        c.run_program(Box::new(std::iter::once(CpuOp::Compute(100))));
    }

    #[test]
    fn dma_copies_all_bytes() {
        let mut d = DmaEngine::new(CpuId(0), 8);
        d.start_copy(0, 1 << 20, 4096);
        let mut reads = 0;
        let mut writes = 0;
        let mut now = 0;
        let mut pending: VecDeque<(u64, MemReq)> = VecDeque::new();
        while d.busy() && now < 100_000 {
            d.tick();
            while let Some(r) = d.pop_mem_request() {
                match r.kind {
                    AccessKind::Read => {
                        reads += 1;
                        pending.push_back((now + 50, r));
                    }
                    AccessKind::Write => {
                        writes += 1;
                        assert!(r.addr >= 1 << 20, "write goes to destination");
                    }
                    AccessKind::Atomic => panic!("DMA never issues atomics"),
                }
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, r) = pending.pop_front().expect("nonempty");
                d.push_mem_response(r.response());
            }
            now += 1;
        }
        assert!(!d.busy());
        assert_eq!(reads, 32); // 4096 / 128
        assert_eq!(writes, 32);
        assert_eq!(d.bytes_copied(), 4096);
    }

    #[test]
    fn dma_window_limits_outstanding_reads() {
        let mut d = DmaEngine::new(CpuId(0), 4);
        d.start_copy(0, 1 << 20, 1 << 16);
        assert!(d.can_issue());
        d.tick();
        let mut reads = Vec::new();
        while let Some(r) = d.pop_mem_request() {
            reads.push(r);
        }
        assert_eq!(reads.len(), 4, "window must cap outstanding reads");
        assert!(!d.can_issue(), "a full window cannot issue");
        d.tick();
        assert!(d.pop_mem_request().is_none());
        d.push_mem_response(reads[0].response());
        assert!(d.can_issue(), "a response frees a slot");
    }

    #[test]
    fn dma_jobs_run_in_order() {
        let mut d = DmaEngine::new(CpuId(0), 16);
        d.start_copy(0, 1 << 20, 256);
        d.start_copy(1 << 10, 1 << 21, 256);
        let mut first_job_writes = 0;
        let mut second_started = false;
        let mut now = 0;
        let mut pending: VecDeque<(u64, MemReq)> = VecDeque::new();
        while d.busy() && now < 100_000 {
            d.tick();
            while let Some(r) = d.pop_mem_request() {
                match r.kind {
                    AccessKind::Read if r.addr < 1 << 10 => {}
                    AccessKind::Read => {
                        second_started = true;
                        assert_eq!(first_job_writes, 2, "job 2 starts after job 1 retires");
                    }
                    AccessKind::Write if r.addr < 1 << 21 => first_job_writes += 1,
                    _ => {}
                }
                if r.kind == AccessKind::Read {
                    pending.push_back((now + 10, r));
                }
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, r) = pending.pop_front().expect("nonempty");
                d.push_mem_response(r.response());
            }
            now += 1;
        }
        assert!(second_started);
        assert!(!d.busy());
    }

    #[test]
    fn zero_byte_copy_is_a_noop() {
        let mut d = DmaEngine::new(CpuId(0), 4);
        d.start_copy(0, 4096, 0);
        assert!(!d.busy());
    }
}
