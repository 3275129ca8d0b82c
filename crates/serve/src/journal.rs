//! Crash-recoverable sessions: write-ahead journal, snapshots, replay.
//!
//! The serving tier's state — per-tenant managers with their learned
//! knowledge, the design-point cache, the circuit breakers — lives in
//! memory. A service crash would lose every tenant's online learning.
//! This module models the persistent side of the story:
//!
//! * every state mutation the service performs goes through one
//!   transition function (`ServingState::apply`) and is appended to a
//!   **write-ahead [`Journal`]** as a [`JournalEntry`] delta, sharded
//!   by tenant (cache deltas by key) with a global sequence number so
//!   replay has a total order;
//! * on a Daly-informed cadence (from
//!   [`antarex_rtrm::checkpoint::daly_interval_s`]) the service takes a
//!   [`Snapshot`] — full clones of sessions, cache entries, breaker
//!   states — and compacts the journal up to it;
//! * after a crash, recovery restores the last snapshot and commits the
//!   journal suffix through the very path the live service commits
//!   through. Because every mutating call (`select`/`observe`/`adapt`,
//!   breaker transitions, cache fills) is deterministic and the journal
//!   preserves program order, the recovered state is **bit-identical**
//!   to the pre-crash state — the property the `r2` chaos experiment
//!   checks end to end — and the recovered journal again holds the
//!   whole suffix, so a second crash loses nothing either.
//!
//! The journal lives in memory here (the simulator has no disk), but
//! the contract is exactly a WAL's: entries are durable the moment
//! they are appended, snapshots are atomic, and recovery = snapshot +
//! ordered suffix.

use crate::admission::{AdmissionController, AdmissionTier, TenantAdmission};
use crate::autoscale::{Autoscaler, AutoscalerState};
use crate::breaker::{BreakerBank, CircuitBreaker};
use crate::cache::{DesignKey, DesignPointCache, Metrics};
use crate::error::ServeError;
use crate::lock_or_recover;
use crate::store::{mix64, Session, SessionStore, TenantClass, TenantId};
use antarex_tuner::manager::AppManager;
use antarex_tuner::Configuration;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One durable state delta of the serving tier.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// A tenant registered with its workload features. The manager is
    /// not journaled: registration-time managers are reproducible from
    /// the tenant id (the `make_manager` factory handed to
    /// [`TuningService::recover`](crate::TuningService::recover)).
    Register {
        /// The new tenant.
        tenant: TenantId,
        /// Its workload features.
        features: Vec<f64>,
        /// Its workload class (scheduler policy + metric bucket).
        class: TenantClass,
    },
    /// The tenant's manager ran one `select()` during request
    /// admission (deploys/updates its current configuration).
    Select {
        /// The selecting tenant.
        tenant: TenantId,
    },
    /// The tenant's breaker admitted a request at the time (replayed so
    /// open → half-open transitions happen at identical instants).
    BreakerAllow {
        /// The admitted tenant.
        tenant: TenantId,
        /// Virtual admission time, seconds.
        time_s: f64,
    },
    /// A request was answered: session bookkeeping plus one
    /// `observe()` per metric, and breaker success feedback.
    Learn {
        /// The answered tenant.
        tenant: TenantId,
        /// Virtual arrival time of the request, seconds.
        time_s: f64,
        /// The configuration that answered it.
        config: Configuration,
        /// The measured (or cached) metrics fed to the monitors.
        metrics: Metrics,
    },
    /// A request failed for a known tenant: rejection bookkeeping, and
    /// breaker failure feedback when the error was a worker fault.
    Reject {
        /// The rejected tenant.
        tenant: TenantId,
        /// Virtual arrival time of the request, seconds.
        time_s: f64,
        /// Whether the failure counts against the tenant's breaker
        /// (worker crash / deadline — not shed, not contract errors).
        breaker_feedback: bool,
    },
    /// The tenant ran one adaptation round at the batch end.
    Adapt {
        /// The adapting tenant.
        tenant: TenantId,
        /// Virtual adaptation time, seconds.
        now_s: f64,
    },
    /// A verified design point landed in the cache.
    CacheInsert {
        /// The design point.
        key: DesignKey,
        /// Its metrics.
        metrics: Metrics,
    },
    /// A design point was quarantined (failed or corrupted evaluation).
    Quarantine {
        /// The evicted design point.
        key: DesignKey,
    },
    /// One admission-controller feedback window for a tenant: the
    /// batch's SLO check/violation tally at the batch end time. Replay
    /// calls the exact `update` the live path called, so EWMA burns
    /// and tier transitions recover bit-identically.
    AdmissionUpdate {
        /// The tenant whose burn was updated.
        tenant: TenantId,
        /// Virtual batch end time of the window, seconds.
        time_s: f64,
        /// SLO checks the window produced for this tenant.
        checked: u64,
        /// How many of them violated (or were degraded probe demand).
        violations: u64,
    },
    /// The autoscaler resized the pool's virtual capacity.
    Scale {
        /// Virtual decision time, seconds.
        time_s: f64,
        /// The new virtual worker capacity.
        workers: usize,
    },
}

impl JournalEntry {
    /// The 64-bit routing hash that picks this entry's journal shard.
    fn route(&self) -> u64 {
        match self {
            JournalEntry::Register { tenant, .. }
            | JournalEntry::Select { tenant }
            | JournalEntry::BreakerAllow { tenant, .. }
            | JournalEntry::Learn { tenant, .. }
            | JournalEntry::Reject { tenant, .. }
            | JournalEntry::Adapt { tenant, .. }
            | JournalEntry::AdmissionUpdate { tenant, .. } => mix64(*tenant),
            JournalEntry::CacheInsert { key, .. } | JournalEntry::Quarantine { key } => key.seed(),
            // capacity is global state: all scale decisions share one
            // shard (ordering still comes from the global sequence)
            JournalEntry::Scale { .. } => mix64(u64::MAX),
        }
    }
}

/// The sharded write-ahead journal. Entries append to the shard of
/// their tenant (or cache key) under that shard's lock; a global atomic
/// sequence number gives replay a total order across shards.
#[derive(Debug)]
pub struct Journal {
    shards: Vec<Mutex<Vec<(u64, JournalEntry)>>>,
    seq: AtomicU64,
}

impl Journal {
    /// An empty journal with the given shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "journal needs at least one shard");
        Journal {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            seq: AtomicU64::new(0),
        }
    }

    /// Appends one delta; returns its sequence number.
    pub fn append(&self, entry: JournalEntry) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = (entry.route() % self.shards.len() as u64) as usize;
        lock_or_recover(&self.shards[shard]).push((seq, entry));
        seq
    }

    /// The sequence number the *next* append will get — the compaction
    /// watermark a snapshot records.
    pub fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Entries currently held (post-compaction).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_or_recover(s).len()).sum()
    }

    /// Returns `true` when no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All pending entries merged back into append order.
    pub fn entries_in_order(&self) -> Vec<JournalEntry> {
        let mut all: Vec<(u64, JournalEntry)> = Vec::new();
        for shard in &self.shards {
            all.extend(lock_or_recover(shard).iter().cloned());
        }
        all.sort_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, entry)| entry).collect()
    }

    /// Drops every entry with a sequence number below `through_seq` —
    /// they are covered by a snapshot now.
    pub fn compact(&self, through_seq: u64) {
        for shard in &self.shards {
            lock_or_recover(shard).retain(|(seq, _)| *seq >= through_seq);
        }
    }
}

/// One atomic checkpoint of the full serving state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Virtual time the snapshot was taken, seconds.
    pub at_s: f64,
    /// Journal watermark: entries with `seq < through_seq` are covered.
    pub through_seq: u64,
    /// Every tenant session, sorted by tenant id.
    pub sessions: Vec<(TenantId, Session)>,
    /// Every cached design point, sorted by key.
    pub cache: Vec<(DesignKey, Metrics)>,
    /// Every tenant's circuit breaker, sorted by tenant id.
    pub breakers: Vec<(TenantId, CircuitBreaker)>,
    /// Every tenant's admission state, sorted by tenant id (empty
    /// when the service runs without a front door).
    pub admission: Vec<(TenantId, TenantAdmission)>,
    /// The autoscaler's state (`None` without a front door).
    pub autoscaler: Option<AutoscalerState>,
}

/// The live front-door controllers of one service instance.
#[derive(Debug)]
pub(crate) struct FrontDoor {
    pub(crate) admission: AdmissionController,
    pub(crate) autoscaler: Autoscaler,
}

/// What applying one entry reports back to the caller that built it.
#[derive(Debug)]
pub(crate) enum Applied {
    /// The entry changed state.
    Done,
    /// The entry changed nothing: an open breaker denied the request,
    /// or a rejection named an unknown tenant.
    Unchanged,
    /// `Select`: the configuration to deploy plus the workload
    /// features and class its probe runs with, or why there is none.
    Selected(Result<(Configuration, Vec<f64>, TenantClass), ServeError>),
    /// `AdmissionUpdate`: the tier transition it caused, if any.
    Transition(Option<AdmissionTier>),
}

impl Applied {
    /// Whether the entry changed serving state; only such entries are
    /// journaled.
    pub(crate) fn changed(&self) -> bool {
        match self {
            Applied::Done | Applied::Transition(_) => true,
            Applied::Unchanged => false,
            // `select()` mutates the manager whenever it ran, even when
            // it found the SLA infeasible
            Applied::Selected(result) => matches!(result, Ok(_) | Err(ServeError::Infeasible(_))),
        }
    }
}

/// The serving state every journal entry transitions — sessions,
/// design-point cache, breakers, front-door controllers — together
/// with its durable side: the write-ahead journal and the snapshot
/// cadence.
///
/// Apart from registration and snapshot restore,
/// [`apply`](ServingState::apply) is the only place the first four
/// change. The live path and crash recovery both go
/// through [`commit`](ServingState::commit), so recovery cannot drift
/// from serving, and the recovered service's journal again holds
/// everything since its snapshot.
#[derive(Debug)]
pub(crate) struct ServingState {
    pub(crate) store: SessionStore,
    pub(crate) cache: DesignPointCache,
    pub(crate) breakers: BreakerBank,
    pub(crate) front_door: Option<FrontDoor>,
    journal: Option<Journal>,
    snapshot: Mutex<Option<Snapshot>>,
    /// Virtual time the next snapshot is due.
    next_snapshot_s: Mutex<f64>,
    snapshot_interval_s: f64,
}

/// The first snapshot due time after `at_s`, advancing `due` by whole
/// intervals. Live snapshots and recovery both start from the first
/// interval and add the same steps, so a recovered service stays on
/// the exact cadence grid of the one that crashed.
fn due_after(mut due: f64, at_s: f64, interval_s: f64) -> f64 {
    while due <= at_s {
        due += interval_s;
    }
    due
}

impl ServingState {
    /// Fresh state around the given stores; journaled when `journal`
    /// is set, snapshotting every `snapshot_interval_s` of virtual time.
    pub(crate) fn new(
        store: SessionStore,
        cache: DesignPointCache,
        breakers: BreakerBank,
        journal: Option<Journal>,
        snapshot_interval_s: f64,
    ) -> Self {
        ServingState {
            store,
            cache,
            breakers,
            front_door: None,
            journal,
            snapshot: Mutex::new(None),
            next_snapshot_s: Mutex::new(snapshot_interval_s),
            snapshot_interval_s,
        }
    }

    /// The transition function: applies one entry to the state. Every
    /// step is deterministic, so applying the journal suffix on top of
    /// the last snapshot reproduces the crashed state bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on [`JournalEntry::Register`]: a registration carries a
    /// session the journal cannot hold, so it goes through
    /// [`register`](ServingState::register).
    pub(crate) fn apply(&self, entry: &JournalEntry) -> Applied {
        match entry {
            JournalEntry::Register { .. } => {
                unreachable!("registrations carry a caller-built session: use `register`")
            }
            JournalEntry::Select { tenant } => Applied::Selected(
                self.store
                    .with(*tenant, |session| {
                        if session.manager.knowledge().is_empty() {
                            return Err(ServeError::EmptyKnowledge(*tenant));
                        }
                        match session.manager.select() {
                            Some(config) => {
                                Ok((config.clone(), session.features.clone(), session.class))
                            }
                            None => Err(ServeError::Infeasible(*tenant)),
                        }
                    })
                    .and_then(|selected| selected),
            ),
            JournalEntry::BreakerAllow { tenant, time_s } => {
                // a denied request leaves the open breaker untouched
                if self.breakers.with(*tenant, |b| b.allow(*time_s)) {
                    Applied::Done
                } else {
                    Applied::Unchanged
                }
            }
            JournalEntry::Learn {
                tenant,
                time_s,
                config,
                metrics,
            } => {
                let _ = self.store.with(*tenant, |session| {
                    session.requests += 1;
                    session.last_config = Some(config.clone());
                    session.power_demand_w = metrics.get("power").copied().unwrap_or(0.0);
                    for (metric, value) in metrics {
                        session.manager.observe(*time_s, metric, *value);
                    }
                });
                // feeding a disabled bank would materialize breakers
                // that never act
                if self.breakers.config().failure_threshold > 0 {
                    self.breakers.with(*tenant, |b| b.on_success(*time_s));
                }
                Applied::Done
            }
            JournalEntry::Reject {
                tenant,
                time_s,
                breaker_feedback,
            } => {
                if *breaker_feedback {
                    self.breakers.with(*tenant, |b| b.on_failure(*time_s));
                }
                match self.store.with(*tenant, |session| session.rejected += 1) {
                    Ok(()) => Applied::Done,
                    Err(_) => Applied::Unchanged,
                }
            }
            JournalEntry::Adapt { tenant, now_s } => {
                let _ = self
                    .store
                    .with(*tenant, |session| session.manager.adapt(*now_s));
                Applied::Done
            }
            JournalEntry::CacheInsert { key, metrics } => {
                self.cache.insert(key.clone(), metrics.clone());
                Applied::Done
            }
            JournalEntry::Quarantine { key } => {
                self.cache.quarantine(key);
                Applied::Done
            }
            JournalEntry::AdmissionUpdate {
                tenant,
                time_s,
                checked,
                violations,
            } => Applied::Transition(
                self.front_door
                    .as_ref()
                    .and_then(|fd| fd.admission.update(*tenant, *time_s, *checked, *violations)),
            ),
            JournalEntry::Scale { time_s, workers } => {
                if let Some(fd) = &self.front_door {
                    fd.autoscaler.force(*time_s, *workers);
                }
                Applied::Done
            }
        }
    }

    /// The commit path: applies `entry` and, when it changed state,
    /// appends it to the journal (if the state is journaled).
    pub(crate) fn commit(&self, entry: JournalEntry) -> Applied {
        let applied = self.apply(&entry);
        if applied.changed() {
            self.append(entry);
        }
        applied
    }

    fn append(&self, entry: JournalEntry) {
        if let Some(journal) = &self.journal {
            journal.append(entry);
        }
    }

    /// Registers a tenant with a caller-built session and journals the
    /// registration (features and class; replay rebuilds the manager).
    pub(crate) fn register(&self, tenant: TenantId, session: Session) -> Result<(), ServeError> {
        let entry = JournalEntry::Register {
            tenant,
            features: session.features.clone(),
            class: session.class,
        };
        self.store.insert(tenant, session)?;
        self.append(entry);
        Ok(())
    }

    /// Rebuilds crashed state: restores `snapshot` (if any) into this
    /// fresh state, then commits the journal suffix in append order.
    /// `make_manager` rebuilds the registration-time manager of tenants
    /// registered after the snapshot; it must be the deterministic
    /// factory the original registrations used.
    pub(crate) fn recover<F>(
        &mut self,
        snapshot: Option<Snapshot>,
        entries: &[JournalEntry],
        make_manager: &F,
    ) where
        F: Fn(TenantId) -> AppManager,
    {
        if let Some(snap) = snapshot {
            self.store = SessionStore::recover(self.store.shard_count(), snap.sessions.clone());
            for (key, metrics) in &snap.cache {
                self.cache.insert(key.clone(), metrics.clone());
            }
            self.breakers.restore(&snap.breakers);
            if let Some(fd) = &self.front_door {
                fd.admission.restore(&snap.admission);
                if let Some(state) = snap.autoscaler {
                    fd.autoscaler.restore(state);
                }
            }
            let interval_s = self.snapshot_interval_s;
            *lock_or_recover(&self.next_snapshot_s) = due_after(interval_s, snap.at_s, interval_s);
            *lock_or_recover(&self.snapshot) = Some(snap);
        }
        for entry in entries {
            match entry {
                JournalEntry::Register {
                    tenant,
                    features,
                    class,
                } => {
                    let session = Session::classed(make_manager(*tenant), features.clone(), *class);
                    let _ = self.register(*tenant, session);
                }
                entry => {
                    self.commit(entry.clone());
                }
            }
        }
    }

    /// Cuts a snapshot at virtual time `now_s` and compacts the journal
    /// up to it, when the state is journaled and the Daly cadence says
    /// one is due.
    pub(crate) fn checkpoint(&self, now_s: f64) {
        let Some(journal) = &self.journal else {
            return;
        };
        let mut due = lock_or_recover(&self.next_snapshot_s);
        if now_s < *due {
            return;
        }
        let front_door = self.front_door.as_ref();
        let snap = Snapshot {
            at_s: now_s,
            through_seq: journal.next_seq(),
            sessions: self.store.dump(),
            cache: self.cache.entries(),
            breakers: self.breakers.snapshot(),
            admission: front_door.map_or_else(Vec::new, |fd| fd.admission.snapshot()),
            autoscaler: front_door.map(|fd| fd.autoscaler.snapshot()),
        };
        journal.compact(snap.through_seq);
        *lock_or_recover(&self.snapshot) = Some(snap);
        *due = due_after(*due, now_s, self.snapshot_interval_s);
    }

    /// What a crash leaves on stable storage: the last snapshot and the
    /// journal suffix since it, in append order.
    pub(crate) fn crash(self) -> (Option<Snapshot>, Vec<JournalEntry>) {
        let snapshot = lock_or_recover(&self.snapshot).take();
        let entries = self.journal.map_or_else(Vec::new, |j| j.entries_in_order());
        (snapshot, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use antarex_tuner::goal::{Constraint, Objective};
    use antarex_tuner::{KnobValue, KnowledgeBase, OperatingPoint};

    fn kb() -> KnowledgeBase {
        (1..=3)
            .map(|l| {
                let mut c = Configuration::new();
                c.set("level", KnobValue::Int(l));
                OperatingPoint::new(
                    c,
                    [
                        ("latency".to_string(), 0.1 * l as f64),
                        ("power".to_string(), 10.0 * l as f64),
                    ],
                )
            })
            .collect()
    }

    fn make_manager(_tenant: TenantId) -> AppManager {
        let mut m = AppManager::new(kb(), Objective::minimize("latency"));
        m.add_constraint(Constraint::at_most("latency", 0.5));
        m
    }

    fn level(l: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("level", KnobValue::Int(l));
        c
    }

    fn metrics(latency: f64) -> Metrics {
        [
            ("latency".to_string(), latency),
            ("power".to_string(), 11.0),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn entries_merge_back_in_append_order() {
        let journal = Journal::new(4);
        let script = vec![
            JournalEntry::Register {
                tenant: 3,
                features: vec![1.0],
                class: TenantClass::Generic,
            },
            JournalEntry::Select { tenant: 3 },
            JournalEntry::CacheInsert {
                key: DesignKey::new(&level(1), &[1.0]),
                metrics: metrics(0.1),
            },
            JournalEntry::Learn {
                tenant: 3,
                time_s: 2.0,
                config: level(1),
                metrics: metrics(0.1),
            },
            JournalEntry::Adapt {
                tenant: 3,
                now_s: 2.0,
            },
        ];
        for entry in &script {
            journal.append(entry.clone());
        }
        assert_eq!(journal.entries_in_order(), script);
        assert_eq!(journal.len(), script.len());
    }

    #[test]
    fn compaction_drops_only_covered_entries() {
        let journal = Journal::new(2);
        journal.append(JournalEntry::Select { tenant: 1 });
        journal.append(JournalEntry::Select { tenant: 2 });
        let watermark = journal.next_seq();
        journal.append(JournalEntry::Select { tenant: 3 });
        journal.compact(watermark);
        assert_eq!(
            journal.entries_in_order(),
            vec![JournalEntry::Select { tenant: 3 }]
        );
    }

    fn state(journaled: bool, breaker: BreakerConfig, snapshot_interval_s: f64) -> ServingState {
        ServingState::new(
            SessionStore::new(4),
            DesignPointCache::new(4),
            BreakerBank::new(breaker),
            journaled.then(|| Journal::new(4)),
            snapshot_interval_s,
        )
    }

    fn register(state: &ServingState, tenant: TenantId) {
        let session = Session::classed(make_manager(tenant), vec![2.0], TenantClass::Docking);
        state.register(tenant, session).unwrap();
    }

    fn fingerprint(state: &ServingState) -> String {
        let sessions = state.store.fold(String::new(), |mut acc, t, s| {
            acc.push_str(&format!(
                "{t}:{}:{}:{:.6}:{:?};",
                s.requests, s.rejected, s.power_demand_w, s.manager
            ));
            acc
        });
        let banks: Vec<String> = state
            .breakers
            .snapshot()
            .iter()
            .map(|(t, b)| format!("{t}:{}", b.state_label()))
            .collect();
        format!("{sessions}|{:?}|{}", state.cache.entries(), banks.join(","))
    }

    #[test]
    fn recovery_commits_through_the_live_path() {
        // execute a small script through the commit path...
        let live = state(true, BreakerConfig::hardened(), f64::INFINITY);
        register(&live, 7);
        let script = [
            JournalEntry::Select { tenant: 7 },
            JournalEntry::Learn {
                tenant: 7,
                time_s: 1.5,
                config: level(1),
                metrics: metrics(0.12),
            },
            JournalEntry::Reject {
                tenant: 7,
                time_s: 2.0,
                breaker_feedback: true,
            },
            JournalEntry::Adapt {
                tenant: 7,
                now_s: 2.5,
            },
        ];
        for entry in script {
            assert!(live.commit(entry).changed());
        }
        // a rejection for an unknown tenant changes nothing and is not
        // journaled
        let unknown = live.commit(JournalEntry::Reject {
            tenant: 99,
            time_s: 3.0,
            breaker_feedback: false,
        });
        assert!(!unknown.changed());
        let expected = fingerprint(&live);
        let (snapshot, entries) = live.crash();
        assert!(snapshot.is_none());
        assert_eq!(entries.len(), 5, "register + four changes");

        // ...then recover from the journal alone
        let mut recovered = state(true, BreakerConfig::hardened(), f64::INFINITY);
        recovered.recover(None, &entries, &make_manager);
        assert_eq!(fingerprint(&recovered), expected, "bit-identical");
        // and the recovered journal holds the suffix again
        assert_eq!(recovered.crash().1, entries);
    }

    #[test]
    fn snapshot_plus_suffix_recovers_cache_and_breakers() {
        let live = state(true, BreakerConfig::hardened(), 5.0);
        live.commit(JournalEntry::CacheInsert {
            key: DesignKey::new(&level(1), &[1.0]),
            metrics: metrics(0.1),
        });
        live.checkpoint(4.0);
        assert!(!live.journal.as_ref().unwrap().is_empty(), "not due yet");
        live.checkpoint(10.0);
        assert!(live.journal.as_ref().unwrap().is_empty(), "compacted");
        live.commit(JournalEntry::CacheInsert {
            key: DesignKey::new(&level(2), &[1.0]),
            metrics: metrics(0.2),
        });
        let expected = fingerprint(&live);

        let (snapshot, entries) = live.crash();
        assert_eq!(snapshot.as_ref().map(|s| s.at_s), Some(10.0));
        assert_eq!(entries.len(), 1);
        let mut recovered = state(true, BreakerConfig::hardened(), 5.0);
        recovered.recover(snapshot, &entries, &make_manager);
        assert_eq!(fingerprint(&recovered), expected);
    }

    #[test]
    fn snapshot_cadence_survives_recovery() {
        let live = state(true, BreakerConfig::disabled(), 4.0);
        live.checkpoint(9.0);
        let (snapshot, entries) = live.crash();
        let mut recovered = state(true, BreakerConfig::disabled(), 4.0);
        recovered.recover(snapshot, &entries, &make_manager);
        // the live service was next due at 12 s, not at 9 + 4 = 13 s
        recovered.checkpoint(12.0);
        assert_eq!(recovered.crash().0.map(|s| s.at_s), Some(12.0));
    }

    #[test]
    fn quarantine_replays_as_eviction() {
        let key = DesignKey::new(&level(1), &[3.0]);
        let mut recovered = state(false, BreakerConfig::disabled(), f64::INFINITY);
        recovered.recover(
            None,
            &[
                JournalEntry::CacheInsert {
                    key: key.clone(),
                    metrics: metrics(0.3),
                },
                JournalEntry::Quarantine { key: key.clone() },
            ],
            &make_manager,
        );
        assert!(recovered.cache.is_empty());
        assert_eq!(recovered.cache.quarantined(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Journal::new(0);
    }
}
