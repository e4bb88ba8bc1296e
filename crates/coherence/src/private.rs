//! Per-core private cache controller: an L1D latency filter inclusive in a
//! private L2 that is the coherence unit, plus MSHRs, a writeback buffer,
//! and the stride prefetcher.
//!
//! The controller surfaces two notices the out-of-order core's load queue
//! snoops — `Invalidated` (a remote `GetM` reached us) and `Evicted` (a
//! line left the private hierarchy for capacity reasons). The paper treats
//! both identically when deciding to squash speculative loads (§IV,
//! "Evictions").

use sa_isa::{Addr, CoreId, Cycle, FastMap, Line};

use crate::cache::CacheArray;
use crate::config::MemConfig;
use crate::memsys::{Action, MemReqId, NoticeKind};
use crate::msg::{Msg, NodeId};
use crate::prefetch::StridePrefetcher;

/// Coherence state of a line in the private hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Read-only shared copy.
    S,
    /// Exclusive ownership (MESI E or M; `dirty` distinguishes them).
    X,
}

#[derive(Debug, Clone, Copy)]
struct L2Entry {
    state: PState,
    dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    GetS,
    GetM,
}

#[derive(Debug, Default)]
struct Mshr {
    pending: Option<Pending>,
    load_waiters: Vec<MemReqId>,
    own_waiters: Vec<MemReqId>,
    /// Upgrade to M once the outstanding GetS completes.
    want_own: bool,
    /// Allocated by the prefetcher; no waiters initially.
    prefetch: bool,
}

/// Counters exported by each private controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivStats {
    /// Demand loads observed.
    pub demand_loads: u64,
    /// Demand loads that hit the L1.
    pub l1_hits: u64,
    /// Demand loads that hit the L2.
    pub l2_hits: u64,
    /// Demand loads that missed the private hierarchy.
    pub misses: u64,
    /// Loads that merged into an existing MSHR.
    pub mshr_merges: u64,
    /// Requests rejected because all MSHRs were busy.
    pub mshr_rejects: u64,
    /// Prefetch requests sent.
    pub prefetches: u64,
    /// Invalidations received from the directory.
    pub invs_received: u64,
    /// L2 (coherence-unit) evictions.
    pub evictions: u64,
    /// Dirty writebacks sent.
    pub writebacks: u64,
    /// Ownership (RFO/upgrade) requests issued to the directory.
    pub ownership_reqs: u64,
}

/// The private cache hierarchy of one core.
#[derive(Debug)]
pub struct PrivateCtrl {
    core: CoreId,
    node: NodeId,
    n_banks: usize,
    l1: CacheArray<()>,
    l2: CacheArray<L2Entry>,
    mshrs: FastMap<Line, Mshr>,
    mshr_limit: usize,
    /// Lines evicted dirty, awaiting `PutMAck`. The data logically lives
    /// here so the controller can still answer `FetchS`/`FetchInv`.
    wb: FastMap<Line, ()>,
    prefetcher: StridePrefetcher,
    l1_latency: u64,
    l2_latency: u64,
    /// Version stamp over the answers a rejected issue depends on (see
    /// [`PrivateCtrl::reject_epoch`]).
    reject_epoch: u64,
    /// Public counters.
    pub stats: PrivStats,
}

impl PrivateCtrl {
    /// Creates the controller for `core` using the geometry in `cfg`.
    pub fn new(core: CoreId, cfg: &MemConfig) -> PrivateCtrl {
        PrivateCtrl {
            core,
            node: NodeId::Core(core),
            n_banks: cfg.l3_banks,
            l1: CacheArray::new(cfg.l1_bytes, cfg.l1_assoc),
            l2: CacheArray::new(cfg.l2_bytes, cfg.l2_assoc),
            mshrs: FastMap::default(),
            mshr_limit: cfg.mshrs,
            wb: FastMap::default(),
            prefetcher: StridePrefetcher::new(cfg.prefetch, cfg.prefetch_degree),
            l1_latency: cfg.l1_latency,
            l2_latency: cfg.l2_latency,
            reject_epoch: 0,
            stats: PrivStats::default(),
        }
    }

    fn home(&self, line: Line) -> NodeId {
        NodeId::Bank(line.bank(self.n_banks) as u16)
    }

    fn send(&self, to: NodeId, msg: Msg, at: Cycle, out: &mut Vec<Action>) {
        out.push(Action::Send {
            from: self.node,
            to,
            msg,
            at,
        });
    }

    fn notice(&self, kind: NoticeKind, at: Cycle, out: &mut Vec<Action>) {
        out.push(Action::Notice {
            core: self.core,
            at,
            kind,
        });
    }

    /// `true` when the private hierarchy holds `line` with write
    /// permission.
    pub fn has_ownership(&self, line: Line) -> bool {
        matches!(
            self.l2.peek(line),
            Some(L2Entry {
                state: PState::X,
                ..
            })
        )
    }

    /// This controller's reject stamp. It moves only where a rejected
    /// issue can turn into an accepted one, or a "not owned" answer into
    /// an owned one:
    ///
    /// - [`PrivateCtrl::load`] rejects iff the line is in neither the L2
    ///   nor the MSHRs and every MSHR is busy;
    /// - [`PrivateCtrl::ownership`] rejects iff the line is not owned,
    ///   has no MSHR, and every MSHR is busy;
    /// - a line becomes L2-resident or owned only when its data arrives.
    ///
    /// So the stamp moves when an MSHR is allocated (the line now merges)
    /// and when a fill arrives (an MSHR frees and the line becomes
    /// resident, possibly owned). Hits, invalidations, downgrades,
    /// writeback acks and commit writes leave it alone: they can only
    /// take lines away. Losing ownership raises a notice, so a memoized
    /// "owned" answer is the core's to drop, not the stamp's. While the
    /// stamp is unchanged, a rejection or a "not owned" answer repeats.
    pub fn reject_epoch(&self) -> u64 {
        self.reject_epoch
    }

    /// `true` when an issue for `line` would be MSHR-rejected right now:
    /// an ownership request when `ownership`, a demand load otherwise. A
    /// side-effect-free probe that lets callers check a memoized
    /// rejection against the controller.
    pub fn would_reject(&self, line: Line, ownership: bool) -> bool {
        let held = if ownership {
            self.has_ownership(line)
        } else {
            self.l2.contains(line)
        };
        !held && !self.mshrs.contains_key(&line) && self.mshrs.len() >= self.mshr_limit
    }

    /// Allocates the MSHR for `line`. A new MSHR lets a rejected issue
    /// for `line` merge, so the reject stamp moves.
    fn alloc_mshr(&mut self, line: Line, m: Mshr) {
        self.mshrs.insert(line, m);
        self.reject_epoch += 1;
    }

    /// Books `n` MSHR rejections without the probes: the memoized
    /// equivalent of the reject branches of [`PrivateCtrl::load`] and
    /// [`PrivateCtrl::ownership`], whose only controller-side effect is
    /// this counter.
    pub(crate) fn note_mshr_rejects(&mut self, n: u64) {
        self.stats.mshr_rejects += n;
    }

    /// Marks an owned line dirty (the store-commit L1 write).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident; debug-asserts ownership.
    pub fn mark_dirty(&mut self, line: Line) {
        let e = self.l2.peek_mut(line).expect("mark_dirty on absent line");
        debug_assert_eq!(e.state, PState::X, "mark_dirty on non-owned line");
        e.dirty = true;
        self.l2.touch(line);
        // The write allocates into L1.
        if !self.l1.touch(line) {
            let _ = self.l1.insert(line, ());
        }
    }

    /// A demand load of `line` (instruction at `pc`, byte address `addr`
    /// for the prefetcher). Returns `None` when no MSHR is available —
    /// the core retries next cycle.
    pub fn load(
        &mut self,
        req: MemReqId,
        line: Line,
        pc: u64,
        addr: Addr,
        now: Cycle,
    ) -> Option<Vec<Action>> {
        let mut out = Vec::new();
        if self.l2.contains(line) {
            self.stats.demand_loads += 1;
            self.l2.touch(line);
            if self.l1.touch(line) {
                self.stats.l1_hits += 1;
                self.notice(
                    NoticeKind::LoadDone { id: req },
                    now + self.l1_latency,
                    &mut out,
                );
            } else {
                self.stats.l2_hits += 1;
                let _ = self.l1.insert(line, ()); // L1 victims stay in L2
                self.notice(
                    NoticeKind::LoadDone { id: req },
                    now + self.l2_latency,
                    &mut out,
                );
            }
        } else if let Some(m) = self.mshrs.get_mut(&line) {
            self.stats.demand_loads += 1;
            self.stats.mshr_merges += 1;
            m.load_waiters.push(req);
            m.prefetch = false;
        } else if self.mshrs.len() >= self.mshr_limit {
            self.stats.mshr_rejects += 1;
            return None;
        } else {
            self.stats.demand_loads += 1;
            self.stats.misses += 1;
            self.alloc_mshr(
                line,
                Mshr {
                    pending: Some(Pending::GetS),
                    load_waiters: vec![req],
                    ..Mshr::default()
                },
            );
            self.send(
                self.home(line),
                Msg::GetS {
                    line,
                    req: self.core,
                },
                now + self.l2_latency,
                &mut out,
            );
        }
        self.train_prefetcher(pc, addr, now, &mut out);
        Some(out)
    }

    fn train_prefetcher(&mut self, pc: u64, addr: Addr, now: Cycle, out: &mut Vec<Action>) {
        let proposals = self.prefetcher.train(pc, addr);
        for line in proposals {
            // Keep two MSHRs in reserve for demand traffic.
            if self.l2.contains(line)
                || self.mshrs.contains_key(&line)
                || self.mshrs.len() + 2 >= self.mshr_limit
            {
                continue;
            }
            self.stats.prefetches += 1;
            self.alloc_mshr(
                line,
                Mshr {
                    pending: Some(Pending::GetS),
                    prefetch: true,
                    ..Mshr::default()
                },
            );
            self.send(
                self.home(line),
                Msg::GetS {
                    line,
                    req: self.core,
                },
                now,
                out,
            );
        }
    }

    /// An ownership request (store RFO / upgrade) for `line`. Returns
    /// `None` when no MSHR is available.
    pub fn ownership(&mut self, req: MemReqId, line: Line, now: Cycle) -> Option<Vec<Action>> {
        let mut out = Vec::new();
        if self.has_ownership(line) {
            self.notice(NoticeKind::OwnershipDone { id: req }, now + 1, &mut out);
            return Some(out);
        }
        if let Some(m) = self.mshrs.get_mut(&line) {
            m.own_waiters.push(req);
            m.prefetch = false;
            if m.pending == Some(Pending::GetS) {
                m.want_own = true;
            }
            return Some(out);
        }
        if self.mshrs.len() >= self.mshr_limit {
            self.stats.mshr_rejects += 1;
            return None;
        }
        self.stats.ownership_reqs += 1;
        self.alloc_mshr(
            line,
            Mshr {
                pending: Some(Pending::GetM),
                own_waiters: vec![req],
                ..Mshr::default()
            },
        );
        self.send(
            self.home(line),
            Msg::GetM {
                line,
                req: self.core,
            },
            now + self.l2_latency,
            &mut out,
        );
        Some(out)
    }

    /// Handles a message from the directory.
    pub fn handle(&mut self, msg: Msg, now: Cycle) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            Msg::DataS { line } => self.on_data(line, PState::S, now, &mut out),
            Msg::DataE { line } | Msg::GrantM { line } => {
                self.on_data(line, PState::X, now, &mut out)
            }
            Msg::Inv { line, by } => {
                self.stats.invs_received += 1;
                if self.l2.contains(line) {
                    debug_assert!(!self.has_ownership(line), "directory invalidated an owner");
                    self.l1.remove(line);
                    self.l2.remove(line);
                    self.notice(NoticeKind::Invalidated { line, by }, now, &mut out);
                }
                self.send(
                    self.home(line),
                    Msg::InvAck {
                        line,
                        from: self.core,
                    },
                    now,
                    &mut out,
                );
            }
            Msg::FetchS { line } => {
                if let Some(e) = self.l2.peek_mut(line) {
                    debug_assert_eq!(e.state, PState::X);
                    let dirty = e.dirty;
                    e.state = PState::S;
                    e.dirty = false;
                    self.notice(NoticeKind::Downgraded { line }, now, &mut out);
                    self.send(
                        self.home(line),
                        Msg::AckData {
                            line,
                            from: self.core,
                            dirty,
                            retained: true,
                        },
                        now,
                        &mut out,
                    );
                } else {
                    // Concurrently evicted: answer from the writeback buffer.
                    debug_assert!(self.wb.contains_key(&line), "FetchS for unknown line");
                    self.send(
                        self.home(line),
                        Msg::AckData {
                            line,
                            from: self.core,
                            dirty: true,
                            retained: false,
                        },
                        now,
                        &mut out,
                    );
                }
            }
            Msg::FetchInv { line, by } => {
                if let Some(e) = self.l2.remove(line) {
                    debug_assert_eq!(e.state, PState::X);
                    self.l1.remove(line);
                    self.stats.invs_received += 1;
                    self.notice(NoticeKind::Invalidated { line, by }, now, &mut out);
                    self.send(
                        self.home(line),
                        Msg::AckData {
                            line,
                            from: self.core,
                            dirty: e.dirty,
                            retained: false,
                        },
                        now,
                        &mut out,
                    );
                } else {
                    debug_assert!(self.wb.contains_key(&line), "FetchInv for unknown line");
                    self.send(
                        self.home(line),
                        Msg::AckData {
                            line,
                            from: self.core,
                            dirty: true,
                            retained: false,
                        },
                        now,
                        &mut out,
                    );
                }
            }
            Msg::PutMAck { line, .. } => {
                self.wb.remove(&line);
            }
            other => unreachable!("private controller received {other:?}"),
        }
        out
    }

    fn on_data(&mut self, line: Line, state: PState, now: Cycle, out: &mut Vec<Action>) {
        // The line becomes resident (maybe owned) and its MSHR frees.
        self.reject_epoch += 1;
        self.fill(line, state, now, out);
        let Some(mut m) = self.mshrs.remove(&line) else {
            debug_assert!(false, "data response without MSHR");
            return;
        };
        for w in m.load_waiters.drain(..) {
            self.notice(NoticeKind::LoadDone { id: w }, now, out);
        }
        match state {
            PState::X => {
                for w in m.own_waiters.drain(..) {
                    self.notice(NoticeKind::OwnershipDone { id: w }, now, out);
                }
            }
            PState::S if m.want_own => {
                // Shared data arrived but a store wants ownership: upgrade.
                m.pending = Some(Pending::GetM);
                m.want_own = false;
                self.send(
                    self.home(line),
                    Msg::GetM {
                        line,
                        req: self.core,
                    },
                    now,
                    out,
                );
                self.alloc_mshr(line, m);
            }
            PState::S => {
                debug_assert!(m.own_waiters.is_empty(), "own waiters without want_own");
            }
        }
    }

    fn fill(&mut self, line: Line, state: PState, now: Cycle, out: &mut Vec<Action>) {
        // Upgrades of a resident S line keep the entry (no eviction).
        if let Some(e) = self.l2.peek_mut(line) {
            e.state = state;
            self.l2.touch(line);
        } else if let Some((vline, ventry)) = self.l2.insert(
            line,
            L2Entry {
                state,
                dirty: false,
            },
        ) {
            self.evict(vline, ventry, now, out);
        }
        if !self.l1.touch(line) {
            let _ = self.l1.insert(line, ()); // L1 victim remains in L2
        }
    }

    fn evict(&mut self, line: Line, entry: L2Entry, now: Cycle, out: &mut Vec<Action>) {
        self.stats.evictions += 1;
        self.l1.remove(line);
        self.notice(NoticeKind::Evicted { line }, now, out);
        if entry.state == PState::X {
            // Owners never drop silently: write back and hold the data
            // until the directory acknowledges.
            self.stats.writebacks += 1;
            self.wb.insert(line, ());
            self.send(
                self.home(line),
                Msg::PutM {
                    line,
                    from: self.core,
                },
                now,
                out,
            );
        }
        // Shared lines drop silently; the directory may send a spurious
        // invalidation later, which `handle` acknowledges gracefully.
    }

    /// Number of MSHRs currently allocated (tests/stats).
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// `true` when `line` is resident in the private hierarchy.
    pub fn contains(&self, line: Line) -> bool {
        self.l2.contains(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig {
            prefetch: false,
            ..MemConfig::with_cores(2)
        }
    }

    fn ctrl() -> PrivateCtrl {
        PrivateCtrl::new(CoreId(0), &cfg())
    }

    fn ln(i: u64) -> Line {
        Line::from_raw(i)
    }

    fn req(i: u64) -> MemReqId {
        MemReqId(i)
    }

    fn notice_kinds(actions: &[Action]) -> Vec<(NoticeKind, Cycle)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Notice { kind, at, .. } => Some((*kind, *at)),
                _ => None,
            })
            .collect()
    }

    fn sent_msgs(actions: &[Action]) -> Vec<Msg> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cold_load_misses_then_hits_l1() {
        let mut c = ctrl();
        let a = c.load(req(1), ln(5), 0x400, 5 * 64, 100).unwrap();
        assert!(matches!(sent_msgs(&a)[0], Msg::GetS { .. }));
        assert_eq!(c.mshrs_in_use(), 1);
        // Data arrives.
        let a = c.handle(Msg::DataE { line: ln(5) }, 200);
        assert_eq!(
            notice_kinds(&a),
            vec![(NoticeKind::LoadDone { id: req(1) }, 200)]
        );
        assert_eq!(c.mshrs_in_use(), 0);
        // Second load: L1 hit at +4.
        let a = c.load(req(2), ln(5), 0x404, 5 * 64, 300).unwrap();
        assert_eq!(
            notice_kinds(&a),
            vec![(NoticeKind::LoadDone { id: req(2) }, 304)]
        );
        assert_eq!(c.stats.l1_hits, 1);
    }

    #[test]
    fn loads_merge_into_pending_mshr() {
        let mut c = ctrl();
        c.load(req(1), ln(5), 0, 5 * 64, 0).unwrap();
        let a = c.load(req(2), ln(5), 0, 5 * 64, 1).unwrap();
        assert!(sent_msgs(&a).is_empty(), "merged, no new request");
        let a = c.handle(Msg::DataS { line: ln(5) }, 50);
        let done: Vec<_> = notice_kinds(&a);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats.mshr_merges, 1);
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut c = PrivateCtrl::new(
            CoreId(0),
            &MemConfig {
                mshrs: 1,
                prefetch: false,
                ..cfg()
            },
        );
        assert!(c.load(req(1), ln(1), 0, 64, 0).is_some());
        assert!(c.load(req(2), ln(2), 0, 128, 0).is_none());
        assert_eq!(c.stats.mshr_rejects, 1);
    }

    /// The reject stamp moves on MSHR allocation and on a fill, and on
    /// nothing that can only take lines away or touch LRU state.
    #[test]
    fn reject_stamp_moves_on_allocation_and_fill_only() {
        // A one-line L1 so a resident line can also hit in the L2 alone.
        let mut c = PrivateCtrl::new(
            CoreId(0),
            &MemConfig {
                l1_bytes: 64,
                l1_assoc: 1,
                ..cfg()
            },
        );
        let e0 = c.reject_epoch();
        c.load(req(1), ln(5), 0, 5 * 64, 0).unwrap();
        let e1 = c.reject_epoch();
        assert!(e1 > e0, "load miss allocates an MSHR");
        c.load(req(2), ln(5), 0, 5 * 64, 1).unwrap();
        assert_eq!(c.reject_epoch(), e1, "merge into the MSHR");
        c.handle(Msg::DataS { line: ln(5) }, 50);
        let e2 = c.reject_epoch();
        assert!(e2 > e1, "fill");
        c.load(req(3), ln(5), 0, 5 * 64, 60).unwrap();
        assert_eq!((c.stats.l1_hits, c.reject_epoch()), (1, e2), "L1 hit");
        c.ownership(req(4), ln(6), 70).unwrap();
        let e3 = c.reject_epoch();
        assert!(e3 > e2, "RFO allocates an MSHR");
        c.handle(Msg::GrantM { line: ln(6) }, 90);
        let e4 = c.reject_epoch();
        assert!(e4 > e3, "grant");
        c.load(req(5), ln(5), 0, 5 * 64, 100).unwrap();
        assert_eq!((c.stats.l2_hits, c.reject_epoch()), (1, e4), "L2 hit");
        c.mark_dirty(ln(6));
        assert_eq!(c.reject_epoch(), e4, "commit write");
        c.handle(
            Msg::Inv {
                line: ln(5),
                by: CoreId(1),
            },
            110,
        );
        assert_eq!(c.reject_epoch(), e4, "invalidation");
        c.handle(
            Msg::PutMAck {
                line: ln(6),
                stale: false,
            },
            120,
        );
        assert_eq!(c.reject_epoch(), e4, "writeback ack");
    }

    /// `would_reject` agrees with the issue paths, and a rejection
    /// leaves the stamp where it was.
    #[test]
    fn would_reject_matches_issue_outcome() {
        let mut c = PrivateCtrl::new(CoreId(0), &MemConfig { mshrs: 1, ..cfg() });
        c.load(req(1), ln(1), 0, 64, 0).unwrap();
        assert!(!c.would_reject(ln(1), false), "merges");
        assert!(!c.would_reject(ln(1), true), "merges");
        assert!(c.would_reject(ln(2), false));
        assert!(c.would_reject(ln(2), true));
        let e = c.reject_epoch();
        assert!(c.load(req(2), ln(2), 0, 128, 1).is_none());
        assert!(c.ownership(req(3), ln(2), 1).is_none());
        assert_eq!(c.reject_epoch(), e, "rejections do not move the stamp");
        c.handle(Msg::DataS { line: ln(1) }, 50);
        assert!(!c.would_reject(ln(2), false), "the fill freed the MSHR");
        assert!(!c.would_reject(ln(1), false), "resident");
    }

    #[test]
    fn ownership_upgrade_after_shared_data() {
        let mut c = ctrl();
        c.load(req(1), ln(5), 0, 5 * 64, 0).unwrap();
        // A store wants the same line while the GetS is in flight.
        let a = c.ownership(req(2), ln(5), 1).unwrap();
        assert!(sent_msgs(&a).is_empty());
        // Shared data arrives: the load completes and an upgrade GetM goes out.
        let a = c.handle(Msg::DataS { line: ln(5) }, 50);
        assert!(notice_kinds(&a)
            .iter()
            .any(|(k, _)| matches!(k, NoticeKind::LoadDone { .. })));
        assert!(matches!(sent_msgs(&a)[0], Msg::GetM { .. }));
        assert!(!c.has_ownership(ln(5)));
        // Grant arrives: ownership completes.
        let a = c.handle(Msg::GrantM { line: ln(5) }, 90);
        assert!(notice_kinds(&a)
            .iter()
            .any(|(k, _)| matches!(k, NoticeKind::OwnershipDone { .. })));
        assert!(c.has_ownership(ln(5)));
    }

    #[test]
    fn ownership_fast_path_when_owned() {
        let mut c = ctrl();
        c.ownership(req(1), ln(5), 0).unwrap();
        c.handle(Msg::GrantM { line: ln(5) }, 40);
        let a = c.ownership(req(2), ln(5), 100).unwrap();
        assert_eq!(
            notice_kinds(&a),
            vec![(NoticeKind::OwnershipDone { id: req(2) }, 101)]
        );
    }

    #[test]
    fn invalidation_notifies_and_acks() {
        let mut c = ctrl();
        c.load(req(1), ln(5), 0, 5 * 64, 0).unwrap();
        c.handle(Msg::DataS { line: ln(5) }, 50);
        let a = c.handle(
            Msg::Inv {
                line: ln(5),
                by: CoreId(1),
            },
            60,
        );
        assert!(notice_kinds(&a)
            .iter()
            .any(|(k, _)| matches!(k, NoticeKind::Invalidated { .. })));
        assert!(matches!(sent_msgs(&a)[0], Msg::InvAck { .. }));
        assert!(!c.contains(ln(5)));
        // Spurious invalidation for an absent line: ack only, no notice.
        let a = c.handle(
            Msg::Inv {
                line: ln(5),
                by: CoreId(1),
            },
            70,
        );
        assert!(notice_kinds(&a).is_empty());
        assert!(matches!(sent_msgs(&a)[0], Msg::InvAck { .. }));
    }

    #[test]
    fn fetch_inv_surrenders_dirty_line() {
        let mut c = ctrl();
        c.ownership(req(1), ln(5), 0).unwrap();
        c.handle(Msg::GrantM { line: ln(5) }, 40);
        c.mark_dirty(ln(5));
        let a = c.handle(
            Msg::FetchInv {
                line: ln(5),
                by: CoreId(1),
            },
            60,
        );
        let msgs = sent_msgs(&a);
        assert!(
            matches!(
                msgs[0],
                Msg::AckData {
                    dirty: true,
                    retained: false,
                    ..
                }
            ),
            "dirty data returned: {msgs:?}"
        );
        assert!(!c.has_ownership(ln(5)));
        assert!(notice_kinds(&a)
            .iter()
            .any(|(k, _)| matches!(k, NoticeKind::Invalidated { .. })));
    }

    #[test]
    fn fetch_s_downgrades_keeping_copy() {
        let mut c = ctrl();
        c.ownership(req(1), ln(5), 0).unwrap();
        c.handle(Msg::GrantM { line: ln(5) }, 40);
        c.mark_dirty(ln(5));
        let a = c.handle(Msg::FetchS { line: ln(5) }, 60);
        assert!(matches!(
            sent_msgs(&a)[0],
            Msg::AckData {
                dirty: true,
                retained: true,
                ..
            }
        ));
        assert!(c.contains(ln(5)));
        assert!(!c.has_ownership(ln(5)));
    }

    #[test]
    fn capacity_eviction_notifies_and_writes_back() {
        // Tiny L2: 1 set x 2 ways => 2 lines; L1 matching.
        let cfg = MemConfig {
            l1_bytes: 2 * 64,
            l1_assoc: 2,
            l2_bytes: 2 * 64,
            l2_assoc: 2,
            prefetch: false,
            ..MemConfig::with_cores(2)
        };
        let mut c = PrivateCtrl::new(CoreId(0), &cfg);
        c.ownership(req(1), ln(0), 0).unwrap();
        c.handle(Msg::GrantM { line: ln(0) }, 10);
        c.mark_dirty(ln(0));
        c.load(req(2), ln(2), 0, 2 * 64, 20).unwrap();
        c.handle(Msg::DataS { line: ln(2) }, 40);
        // Third line in the same set evicts the dirty LRU line 0.
        c.load(req(3), ln(4), 0, 4 * 64, 50).unwrap();
        let a = c.handle(Msg::DataS { line: ln(4) }, 80);
        assert!(notice_kinds(&a)
            .iter()
            .any(|(k, _)| matches!(k, NoticeKind::Evicted { .. })));
        assert!(sent_msgs(&a).iter().any(|m| matches!(m, Msg::PutM { .. })));
        // The writeback buffer answers a racing FetchInv.
        let a = c.handle(
            Msg::FetchInv {
                line: ln(0),
                by: CoreId(1),
            },
            90,
        );
        assert!(matches!(
            sent_msgs(&a)[0],
            Msg::AckData {
                dirty: true,
                retained: false,
                ..
            }
        ));
        // PutMAck clears the buffer.
        c.handle(
            Msg::PutMAck {
                line: ln(0),
                stale: true,
            },
            100,
        );
        assert_eq!(c.stats.writebacks, 1);
    }
}
