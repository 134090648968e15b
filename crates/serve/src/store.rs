//! The persistent, checkpoint-backed model store.
//!
//! A [`ModelStore`] caches fitted [`NgpModel`]s keyed by **scene name +
//! fit-config fingerprint** behind two layers:
//!
//! * an **in-memory layer** of `Arc<NgpModel>` entries with LRU capacity
//!   eviction — eviction only drops the map entry, outstanding `Arc`s held
//!   by renders stay alive;
//! * an optional **on-disk layer**: a directory of VERSION-2 checkpoints
//!   ([`asdr_nerf::io`]), so fits survive across processes. A checkpoint is
//!   only trusted if its embedded scene name and grid configuration match
//!   the request; anything corrupt, truncated, or stale degrades to a refit,
//!   never a panic.
//!
//! Concurrent requests for the same un-fitted key are **single-flighted**:
//! exactly one caller fits (or loads) while the rest block on a condvar and
//! receive the published `Arc`. An in-flight entry is never evicted and is
//! unwound if the fitter panics, so waiters cannot deadlock.
//!
//! When a checkpoint directory is configured, cold fits are also
//! single-flighted **across processes** through an advisory lock file next
//! to each checkpoint (`<ckpt>.lock`, created with `O_EXCL`): the winner
//! re-checks the disk under the lock, fits, publishes the checkpoint, and
//! unlocks; losers poll for the checkpoint to appear instead of running a
//! duplicate fit. A lock left behind by a dead process goes stale after
//! [`ModelStore::LOCK_STALE_AFTER`] and is broken by the next
//! waiter, which then refits — serving degrades to a duplicate fit, never
//! a deadlock.
//!
//! Keying by *name* means two registries could alias one name to different
//! scene definitions; like the bench harness, the store compares
//! [`SceneHandle::shares_def`] on every memory hit and refits on a
//! mismatch instead of aliasing. Such alias refits stay memory-only —
//! they neither read nor overwrite the named scene's checkpoint — because
//! the disk layer cannot see definitions and must trust registry names to
//! be stable across processes.

use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::io::{self, LoadError};
use asdr_nerf::NgpModel;
use asdr_scenes::SceneHandle;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Cache key: scene name plus the fit-configuration fingerprint, so one
/// store can hold the same scene at several scales without collision.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Registry scene name.
    pub scene: String,
    /// Fit-config fingerprint (see [`fingerprint`]).
    pub fingerprint: String,
}

impl StoreKey {
    /// Builds the key for a scene fitted under `grid`.
    pub fn new(scene: &str, grid: &GridConfig) -> Self {
        StoreKey { scene: scene.to_string(), fingerprint: fingerprint(grid) }
    }
}

/// The fit-config fingerprint: every [`GridConfig`] field, so two configs
/// fingerprint equal iff they fit identical models.
pub fn fingerprint(grid: &GridConfig) -> String {
    format!(
        "ngp-L{}-R{}x{}-T{}-F{}",
        grid.levels, grid.base_res, grid.max_res, grid.table_size, grid.feat_dim
    )
}

/// One resident entry.
#[derive(Debug)]
struct Slot {
    state: SlotState,
    /// The exact def this entry was computed from (alias detection).
    handle: SceneHandle,
    /// LRU tick of the last hit or publish.
    last_used: u64,
}

#[derive(Debug)]
enum SlotState {
    /// A fitter is working; waiters block on the store condvar.
    InFlight,
    /// Published and servable.
    Ready(Arc<NgpModel>),
}

#[derive(Debug, Default)]
struct Inner {
    slots: HashMap<StoreKey, Slot>,
    tick: u64,
}

impl Inner {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn ready_count(&self) -> usize {
        self.slots.values().filter(|s| matches!(s.state, SlotState::Ready(_))).count()
    }
}

/// Monotonic counters; snapshot with [`ModelStore::stats`]. Each is a
/// plain relaxed atomic add (`obs_counter_inc` in
/// `crates/bench/benches/obs.rs`, ≈ 7 ns); DESIGN.md §7 "Counters" has the
/// arithmetic that keeps them inside the ≤ 1 % budget.
#[derive(Debug, Default)]
struct Counters {
    memory_hits: asdr_obs::Counter,
    disk_hits: asdr_obs::Counter,
    fits: asdr_obs::Counter,
    evictions: asdr_obs::Counter,
    disk_errors: asdr_obs::Counter,
    single_flight_waits: asdr_obs::Counter,
    lock_waits: asdr_obs::Counter,
    lock_steals: asdr_obs::Counter,
}

/// A point-in-time snapshot of store activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from the in-memory layer.
    pub memory_hits: u64,
    /// Lookups served by loading a checkpoint from disk.
    pub disk_hits: u64,
    /// Lookups that ran a fresh fit (cold misses, alias refits, corrupt
    /// checkpoints).
    pub fits: u64,
    /// Ready entries dropped by LRU capacity eviction.
    pub evictions: u64,
    /// Checkpoint files that failed to load or save (corruption, stale
    /// metadata, I/O errors). Missing files are ordinary misses, not errors.
    pub disk_errors: u64,
    /// Callers that blocked on another caller's in-flight fit.
    pub single_flight_waits: u64,
    /// Cold fits that waited on another **process's** lock file instead of
    /// duplicating the fit (each either loaded the published checkpoint or,
    /// if the lock went stale, refitted).
    pub lock_waits: u64,
    /// Stale lock files broken (the owning process died mid-fit).
    pub lock_steals: u64,
    /// Ready entries currently resident in memory.
    pub resident: usize,
}

impl StoreStats {
    /// Total lookups (every lookup is exactly one hit, disk hit, or fit).
    pub fn lookups(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.fits
    }

    /// Fraction of lookups served without a fresh fit.
    pub fn hit_rate(&self) -> f64 {
        let l = self.lookups();
        if l == 0 {
            return 0.0;
        }
        (self.memory_hits + self.disk_hits) as f64 / l as f64
    }
}

/// Configures and builds a [`ModelStore`]: a given [`dir`](Self::dir)
/// persists fits there, no directory keeps them in memory only.
#[derive(Debug, Clone)]
pub struct ModelStoreBuilder {
    capacity: usize,
    dir: Option<PathBuf>,
}

impl Default for ModelStoreBuilder {
    fn default() -> Self {
        ModelStoreBuilder { capacity: ModelStore::DEFAULT_CAPACITY, dir: None }
    }
}

impl ModelStoreBuilder {
    /// Maximum resident Ready entries before LRU eviction (clamped to >= 1;
    /// in-flight fits never count against capacity).
    #[must_use]
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = n.max(1);
        self
    }

    /// Persists checkpoints under `dir` (created on first write).
    #[must_use]
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Builds the store.
    pub fn build(self) -> ModelStore {
        ModelStore {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            capacity: self.capacity,
            dir: self.dir,
            counters: Counters::default(),
        }
    }
}

/// The persistent, versioned, checkpoint-backed model cache (see the module
/// docs for the full semantics).
#[derive(Debug)]
pub struct ModelStore {
    inner: Mutex<Inner>,
    cond: Condvar,
    capacity: usize,
    dir: Option<PathBuf>,
    counters: Counters,
}

/// What [`ModelStore::claim`] decided for a lookup.
enum Claim {
    /// Served from memory.
    Hit(Arc<NgpModel>),
    /// This caller now owns the in-flight marker and must publish or unwind.
    Fit {
        /// The key held a same-name entry from a *different* def; skip the
        /// disk layer (its checkpoint belongs to the other def).
        alias: bool,
    },
}

impl ModelStore {
    /// Default in-memory capacity (entries).
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Age past which another process's cold-fit lock file is presumed
    /// abandoned (its owner died mid-fit) and broken by a waiter, which then
    /// refits: generous next to any real fit, small next to a wedged
    /// deployment.
    pub const LOCK_STALE_AFTER: Duration = Duration::from_secs(120);

    /// How often a waiter blocked on another process's lock re-checks the
    /// disk for the published checkpoint.
    const LOCK_POLL: Duration = Duration::from_millis(15);

    /// Starts a builder.
    pub fn builder() -> ModelStoreBuilder {
        ModelStoreBuilder::default()
    }

    /// The checkpoint directory, if persistence is active.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Maximum resident entries before LRU eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The fitted model for `scene` under `grid`: memory, then disk, then a
    /// fresh [`fit_ngp`] — fitted at most once per key across all threads.
    pub fn get_or_fit(&self, scene: &SceneHandle, grid: &GridConfig) -> Arc<NgpModel> {
        self.get_or_fit_with(scene, grid, || fit_ngp(scene.build().as_ref(), grid))
    }

    /// Like [`ModelStore::get_or_fit`] with an injected fit function — the
    /// seam the concurrency tests use to observe and stall fits.
    pub fn get_or_fit_with(
        &self,
        scene: &SceneHandle,
        grid: &GridConfig,
        fit: impl FnOnce() -> NgpModel,
    ) -> Arc<NgpModel> {
        let key = StoreKey::new(scene.name(), grid);
        match self.claim(&key, scene) {
            Claim::Hit(m) => m,
            Claim::Fit { alias } => {
                // we own the in-flight marker; the guard unwinds it if the
                // fit panics so waiters retry instead of deadlocking
                let mut guard = InFlightGuard { store: self, key: &key, published: false };
                // an alias refit must not touch disk either way: a
                // checkpoint it wrote would be served as the *real* scene by
                // later processes (the name is the key)
                let model = if !alias && self.dir.is_some() {
                    match self.load_disk(&key, scene, grid, true) {
                        Some(m) => {
                            self.counters.disk_hits.inc();
                            m
                        }
                        None => self.fit_under_lock(&key, scene, grid, fit),
                    }
                } else {
                    self.counters.fits.inc();
                    Arc::new(fit())
                };
                self.publish(&key, scene, model.clone());
                guard.published = true;
                model
            }
        }
    }

    /// Runs a cold fit under the key's cross-process advisory lock file:
    /// acquire (or wait out) `<ckpt>.lock`, re-check the disk, fit, publish
    /// the checkpoint, unlock. A waiter that sees the checkpoint appear
    /// loads it instead of fitting; a stale lock (owner died) is broken and
    /// the waiter refits. Only called with a configured directory.
    fn fit_under_lock(
        &self,
        key: &StoreKey,
        scene: &SceneHandle,
        grid: &GridConfig,
        fit: impl FnOnce() -> NgpModel,
    ) -> Arc<NgpModel> {
        let lock = self
            .ckpt_path(key)
            .map(|p| p.with_extension("ckpt.lock"))
            .expect("caller checked dir.is_some()");
        let mut fit = Some(fit);
        let mut counted_wait = false;
        // local staleness clock: mtime can lie (clock skew across the
        // machines sharing the directory puts it in the future, where
        // elapsed() fails), so staleness also accrues from how long *we*
        // have watched this lock without a checkpoint appearing — the
        // degrade-to-refit guarantee must not depend on any remote clock
        let mut watching_since = std::time::Instant::now();
        loop {
            match try_lock(&lock) {
                TryLock::Acquired(_guard) => {
                    // the race window: another process may have published
                    // while we waited for (or raced to) the lock. Quiet
                    // load: the pre-lock attempt already counted any
                    // corruption, and a re-count per waiter poll would
                    // inflate disk_errors without new information.
                    if let Some(m) = self.load_disk(key, scene, grid, false) {
                        self.counters.disk_hits.inc();
                        return m;
                    }
                    self.counters.fits.inc();
                    let m = Arc::new(fit.take().expect("fit consumed at most once")());
                    self.save_disk(key, scene, &m);
                    return m; // _guard drop removes the lock file
                }
                TryLock::Busy { age } => {
                    let stale = age.is_some_and(|a| a > Self::LOCK_STALE_AFTER)
                        || watching_since.elapsed() > Self::LOCK_STALE_AFTER;
                    if stale {
                        // the owner is presumed dead mid-fit; break its lock
                        // and contend for a fresh one (create_new keeps this
                        // atomic). Restart the local clock: the next holder
                        // deserves a full staleness window.
                        let _ = std::fs::remove_file(&lock);
                        self.counters.lock_steals.inc();
                        watching_since = std::time::Instant::now();
                        continue;
                    }
                    if !counted_wait {
                        self.counters.lock_waits.inc();
                        counted_wait = true;
                    }
                    std::thread::sleep(Self::LOCK_POLL);
                    if let Some(m) = self.load_disk(key, scene, grid, false) {
                        self.counters.disk_hits.inc();
                        return m;
                    }
                }
                TryLock::Unavailable => {
                    // the directory refuses lock files (read-only,
                    // permissions): serve without cross-process dedup rather
                    // than not at all
                    self.counters.fits.inc();
                    let m = Arc::new(fit.take().expect("fit consumed at most once")());
                    self.save_disk(key, scene, &m);
                    return m;
                }
            }
        }
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        let resident = self.inner.lock().unwrap().ready_count();
        StoreStats {
            memory_hits: self.counters.memory_hits.get(),
            disk_hits: self.counters.disk_hits.get(),
            fits: self.counters.fits.get(),
            evictions: self.counters.evictions.get(),
            disk_errors: self.counters.disk_errors.get(),
            single_flight_waits: self.counters.single_flight_waits.get(),
            lock_waits: self.counters.lock_waits.get(),
            lock_steals: self.counters.lock_steals.get(),
            resident,
        }
    }

    /// Whether a Ready entry for this key is resident in memory.
    pub fn contains(&self, scene: &str, grid: &GridConfig) -> bool {
        let key = StoreKey::new(scene, grid);
        let inner = self.inner.lock().unwrap();
        matches!(inner.slots.get(&key), Some(Slot { state: SlotState::Ready(_), .. }))
    }

    /// Resolves a lookup to a memory hit or an owned in-flight marker,
    /// blocking while another caller fits the same key.
    fn claim(&self, key: &StoreKey, scene: &SceneHandle) -> Claim {
        let mut inner = self.inner.lock().unwrap();
        let mut waited = false;
        loop {
            let tick = inner.touch();
            enum Found {
                Hit(Arc<NgpModel>),
                InFlight,
                Alias,
                Missing,
            }
            let found = match inner.slots.get_mut(key) {
                Some(slot) => match &slot.state {
                    SlotState::Ready(m) if slot.handle.shares_def(scene) => {
                        slot.last_used = tick;
                        Found::Hit(m.clone())
                    }
                    SlotState::Ready(_) => Found::Alias,
                    SlotState::InFlight => Found::InFlight,
                },
                None => Found::Missing,
            };
            match found {
                Found::Hit(m) => {
                    self.counters.memory_hits.inc();
                    return Claim::Hit(m);
                }
                Found::InFlight => {
                    if !waited {
                        self.counters.single_flight_waits.inc();
                        waited = true;
                    }
                    inner = self.cond.wait(inner).unwrap();
                }
                alias @ (Found::Alias | Found::Missing) => {
                    let alias = matches!(alias, Found::Alias);
                    inner.slots.insert(
                        key.clone(),
                        Slot { state: SlotState::InFlight, handle: scene.clone(), last_used: tick },
                    );
                    return Claim::Fit { alias };
                }
            }
        }
    }

    /// Publishes a fitted model, evicts past capacity, and wakes waiters.
    fn publish(&self, key: &StoreKey, scene: &SceneHandle, model: Arc<NgpModel>) {
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.touch();
        inner.slots.insert(
            key.clone(),
            Slot { state: SlotState::Ready(model), handle: scene.clone(), last_used: tick },
        );
        // LRU eviction over Ready entries only — an in-flight fit must
        // never be dropped out from under its waiters
        while inner.ready_count() > self.capacity {
            let lru = inner
                .slots
                .iter()
                .filter(|(_, s)| matches!(s.state, SlotState::Ready(_)))
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
                .expect("ready_count > capacity >= 1 implies a ready entry");
            inner.slots.remove(&lru);
            self.counters.evictions.inc();
        }
        drop(inner);
        self.cond.notify_all();
    }

    /// The checkpoint path for a key.
    fn ckpt_path(&self, key: &StoreKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(ckpt_file_name(key)))
    }

    /// Tries the disk layer. Missing files are ordinary misses; corrupt,
    /// truncated, or stale checkpoints degrade to a refit and (when
    /// `count_errors`) count as [`StoreStats::disk_errors`] — the re-checks
    /// inside the lock protocol pass `false` so one bad file counts once.
    fn load_disk(
        &self,
        key: &StoreKey,
        scene: &SceneHandle,
        grid: &GridConfig,
        count_errors: bool,
    ) -> Option<Arc<NgpModel>> {
        let path = self.ckpt_path(key)?;
        let error = |counters: &Counters| {
            if count_errors {
                counters.disk_errors.inc();
            }
        };
        match io::load_model_file(&path) {
            Ok(ckpt) => {
                // trust the file only if its embedded metadata matches the
                // request: a renamed or re-scaled scene must refit
                if ckpt.scene.as_deref() == Some(scene.name())
                    && ckpt.model.encoder().config() == grid
                {
                    Some(Arc::new(ckpt.model))
                } else {
                    error(&self.counters);
                    None
                }
            }
            Err(LoadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(_) => {
                error(&self.counters);
                None
            }
        }
    }

    /// Persists a fit (best effort: serving never fails on a full disk).
    ///
    /// Written to a temp file and renamed into place, so a concurrent
    /// process warming from the same directory can never read a torn
    /// checkpoint — it sees either the complete file or none at all.
    fn save_disk(&self, key: &StoreKey, scene: &SceneHandle, model: &NgpModel) {
        let Some(path) = self.ckpt_path(key) else { return };
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let write = || -> std::io::Result<()> {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            io::save_model_file(model, scene.name(), &tmp)?;
            std::fs::rename(&tmp, &path)
        };
        if write().is_err() {
            let _ = std::fs::remove_file(&tmp);
            self.counters.disk_errors.inc();
        }
    }
}

/// One attempt to take a cross-process cold-fit lock.
enum TryLock {
    /// This process created the lock file; the guard removes it on drop
    /// (including on a fit panic, so other processes are not stuck waiting
    /// out the stale timeout).
    Acquired(LockFile),
    /// Another process holds the lock; `age` is the lock file's mtime age
    /// (`None` when the file vanished between create and stat).
    Busy { age: Option<Duration> },
    /// The directory refuses lock files entirely (read-only, permissions).
    Unavailable,
}

/// Atomically attempts to create `path` as this process's lock file.
fn try_lock(path: &Path) -> TryLock {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(mut f) => {
            // contents are diagnostic only; staleness runs on mtime
            let _ = writeln!(f, "pid {}", std::process::id());
            TryLock::Acquired(LockFile { path: path.to_path_buf() })
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
            let age = std::fs::metadata(path)
                .ok()
                .and_then(|m| m.modified().ok())
                .and_then(|t| t.elapsed().ok());
            TryLock::Busy { age }
        }
        Err(_) => TryLock::Unavailable,
    }
}

/// An owned lock file, removed on drop. If another waiter already deemed
/// this lock stale and stole it, the removal may take out the stealer's
/// lock too — the next load-or-fit still converges, it just may duplicate
/// one fit (the documented stale-timeout trade).
struct LockFile {
    path: PathBuf,
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Unwinds an owned in-flight marker if the fit never published (panic in
/// the fit function), so blocked waiters retry instead of hanging forever.
struct InFlightGuard<'a> {
    store: &'a ModelStore,
    key: &'a StoreKey,
    published: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        let mut inner = self.store.inner.lock().unwrap();
        if let Some(slot) = inner.slots.get(self.key) {
            if matches!(slot.state, SlotState::InFlight) {
                inner.slots.remove(self.key);
            }
        }
        drop(inner);
        self.store.cond.notify_all();
    }
}

/// Checkpoint file name: sanitized scene name + fingerprint. Name
/// collisions after sanitization are resolved by the scene-name check at
/// load time (the mismatching entry refits).
fn ckpt_file_name(key: &StoreKey) -> String {
    let safe: String = key
        .scene
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
        .collect();
    format!("{safe}-{}.ckpt", key.fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_configs() {
        assert_ne!(fingerprint(&GridConfig::tiny()), fingerprint(&GridConfig::small()));
        assert_eq!(fingerprint(&GridConfig::tiny()), fingerprint(&GridConfig::tiny()));
        let key_a = StoreKey::new("Mic", &GridConfig::tiny());
        let key_b = StoreKey::new("Mic", &GridConfig::small());
        assert_ne!(key_a, key_b, "same scene at two scales must not collide");
    }

    #[test]
    fn ckpt_names_are_filesystem_safe() {
        let key = StoreKey::new("weird scene/name:v2", &GridConfig::tiny());
        let name = ckpt_file_name(&key);
        assert!(!name.contains('/') && !name.contains(':') && !name.contains(' '), "{name}");
        assert!(name.ends_with(".ckpt"));
    }

    #[test]
    fn builder_clamps_capacity_and_persists_only_to_a_given_dir() {
        let store = ModelStore::builder().capacity(0).build();
        assert_eq!(store.capacity(), 1);
        assert_eq!(store.dir(), None);
        let store = ModelStore::builder().dir("/tmp/asdr-store-test").build();
        assert_eq!(store.dir(), Some(Path::new("/tmp/asdr-store-test")));
    }
}
