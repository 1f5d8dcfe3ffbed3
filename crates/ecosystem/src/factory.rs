//! The universe: any site profile derived purely from `(seed, rank)`.
//!
//! [`SiteFactory`] is the one universe type. Nothing per-site is built up
//! front: [`SiteGen`] is the pure derivation core (a site's RNG stream
//! hangs off `root.derive(rank)`, so any rank is reachable in O(1)), and
//! the factory wires it into a *lazy world* whose router and latency
//! directory synthesize publisher endpoints on demand from the hostname
//! alone. Construction is O(catalog) and total cost O(sites actually
//! visited), which is what lets a shard of a million-rank toplist crawl
//! its slice without paying for the other 999 shards.
//!
//! Derived values are shared through one bounded memo per universe: one
//! entry per rank holds the site profile and, filled on first use, its
//! runtime, ad-server account and page HTML. A full shard evicts one
//! entry by second chance, so the popular head of a zipf workload stays
//! resident while the long tail cycles through.
//!
//! Determinism: every endpoint is a pure function of `(request, rng)`, and
//! the lazily derived profiles, accounts and latency models are
//! byte-identical to registering every site up front (the `world` tests
//! hold the lazy world to such an eager reference), so a visit simulates
//! the same whichever worker derives it first.

use crate::catalog::{self, PartnerSpec};
use crate::config::EcosystemConfig;
use crate::publisher::{self, DeriveCtx, DeriveScratch, SiteProfile};
use crate::world::{self, RuntimeCtx};
use hb_adtech::{AdServerAccount, HostDirectory, Net, PartnerProfile};
use hb_core::PartnerList;
use hb_http::Router;
use hb_simnet::{FaultInjector, FxHashMap, Rng};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Shard count of the derivation memo (power of two; a rank maps to
/// shard `rank & (MEMO_SHARDS - 1)`, so the contiguous rank blocks
/// campaign workers claim land on different shards and readers almost
/// never contend on the same lock).
const MEMO_SHARDS: usize = 16;

/// Resident ranks per shard. The memo is shared by every worker for the
/// life of the universe, so it must stay bounded: adoption sweeps over
/// huge toplists (`campaign/cold_sweep` walks fresh ranks forever) would
/// otherwise grow it without limit. A miss on a full shard evicts one
/// entry by second chance (see [`Shard::insert`]); derivation is pure in
/// `(seed, rank)`, so eviction can never change bytes, only cost a
/// re-derivation. 16 shards × 512 entries keeps the tiny and test
/// universes and the daily-revisit working set of a medium crawl fully
/// resident.
const MEMO_SHARD_CAP: usize = 512;

// The memo caches pure values, and every derivation runs outside its
// locks, so a panic elsewhere can never leave a half-derived value behind
// a lock. The bookkeeping under the write lock keeps every index entry
// pointing at a slot of that rank after each step, so a poisoned lock
// still guards a usable shard: recover it instead of failing every later
// lookup.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One resident rank: its entry and the second-chance bit a hit sets.
struct Slot<T> {
    rank: u32,
    referenced: AtomicBool,
    entry: Arc<T>,
}

/// One memo shard: resident slots in clock order, the rank index into
/// them, and the clock hand. Slots are pushed as ranks arrive, so an
/// unused shard holds nothing.
struct Shard<T> {
    index: FxHashMap<u32, usize>,
    slots: Vec<Slot<T>>,
    hand: usize,
}

impl<T> Default for Shard<T> {
    fn default() -> Shard<T> {
        Shard {
            index: FxHashMap::default(),
            slots: Vec::new(),
            hand: 0,
        }
    }
}

impl<T> Shard<T> {
    /// Publish `fresh` for `rank` unless the rank is already resident
    /// (first insert wins). Returns the resident entry, and the entry the
    /// caller drops once the lock is released: the evicted one, or
    /// `fresh` if it lost the race.
    ///
    /// A full shard evicts by second chance (CLOCK): the hand clears the
    /// referenced bit of each slot it passes until it reaches one that no
    /// hit has marked since the hand last came by, and replaces it. A new
    /// entry starts unreferenced, so a rank seen once is the next victim
    /// unless it is hit again before the hand returns.
    fn insert(&mut self, rank: u32, fresh: Arc<T>) -> (Arc<T>, Option<Arc<T>>) {
        if let Some(&i) = self.index.get(&rank) {
            let slot = &self.slots[i];
            slot.referenced.store(true, Ordering::Relaxed);
            return (Arc::clone(&slot.entry), Some(fresh));
        }
        let slot = Slot {
            rank,
            referenced: AtomicBool::new(false),
            entry: Arc::clone(&fresh),
        };
        if self.slots.len() < MEMO_SHARD_CAP {
            self.slots.push(slot);
            self.index.insert(rank, self.slots.len() - 1);
            return (fresh, None);
        }
        while std::mem::take(self.slots[self.hand].referenced.get_mut()) {
            self.hand = (self.hand + 1) % MEMO_SHARD_CAP;
        }
        let victim = self.hand;
        self.hand = (victim + 1) % MEMO_SHARD_CAP;
        self.index.remove(&self.slots[victim].rank);
        let evicted = std::mem::replace(&mut self.slots[victim], slot);
        self.index.insert(rank, victim);
        (fresh, Some(evicted.entry))
    }
}

/// A sharded concurrent memo keyed by rank, shared by every worker of a
/// universe: one derivation serves all threads, so a cold rank is paid
/// once per campaign instead of once per worker thread.
///
/// A hit runs under the shard read lock and only sets the slot's
/// referenced bit. A miss derives *outside* any lock, then publishes
/// under the shard write lock with first-insert-wins: every caller gets
/// the resident entry, so concurrent derivations of the same rank always
/// resolve to pointer-equal handles, never torn values.
struct ShardedMemo<T> {
    shards: Vec<RwLock<Shard<T>>>,
}

impl<T> ShardedMemo<T> {
    fn new() -> ShardedMemo<T> {
        ShardedMemo {
            shards: (0..MEMO_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    fn shard(&self, rank: u32) -> &RwLock<Shard<T>> {
        &self.shards[rank as usize & (MEMO_SHARDS - 1)]
    }

    /// Run `hit` on `rank`'s resident entry under the shard read lock,
    /// marking the entry referenced; `None` if `rank` is not resident.
    fn peek<R>(&self, rank: u32, hit: impl FnOnce(&Arc<T>) -> R) -> Option<R> {
        let shard = read(self.shard(rank));
        let slot = &shard.slots[*shard.index.get(&rank)?];
        // A hot rank's bit is already set: skipping the store keeps its
        // cache line shared between the readers.
        if !slot.referenced.load(Ordering::Relaxed) {
            slot.referenced.store(true, Ordering::Relaxed);
        }
        Some(hit(&slot.entry))
    }

    /// Publish `value` for `rank` (see [`Shard::insert`]) and return the
    /// resident entry. Whatever leaves the memo is dropped after the
    /// write lock is released.
    fn publish(&self, rank: u32, value: T) -> Arc<T> {
        let fresh = Arc::new(value);
        let (resident, dropped) = write(self.shard(rank)).insert(rank, fresh);
        drop(dropped);
        resident
    }

    /// Empty every shard, dropping its entries after its write lock is
    /// released.
    fn clear(&self) {
        for shard in &self.shards {
            let dropped = std::mem::take(&mut *write(shard));
            drop(dropped);
        }
    }
}

/// Everything the memo keeps for one rank: the derived profile, and the
/// values derived from it, each filled on first use.
struct MemoEntry {
    site: Arc<SiteProfile>,
    account: OnceLock<Arc<AdServerAccount>>,
    runtime: OnceLock<Arc<hb_adtech::SiteRuntime>>,
    /// Rendered page HTML, stored as `HStr` (`Arc<str>` at this length):
    /// serving the page is a pointer clone. By far the most expensive
    /// derivation to repeat per visit.
    page_html: OnceLock<hb_http::HStr>,
}

impl MemoEntry {
    fn new(site: SiteProfile) -> MemoEntry {
        MemoEntry {
            site: Arc::new(site),
            account: OnceLock::new(),
            runtime: OnceLock::new(),
            page_html: OnceLock::new(),
        }
    }
}

/// `cell`'s value, derived on first use. `derive` runs outside every
/// lock and the first value set wins, so concurrent callers share one
/// handle.
fn get_or_derive<T: Clone>(cell: &OnceLock<T>, derive: impl FnOnce() -> T) -> T {
    if let Some(value) = cell.get() {
        return value.clone();
    }
    let value = derive();
    cell.get_or_init(|| value).clone()
}

thread_local! {
    /// Per-worker derivation buffers (weight working copies, the rendered-
    /// page buffer). A memo miss draws its transient storage from here, so
    /// cold derivation — the adoption-sweep hot path, where every rank is
    /// seen for the first time — stops paying per-site allocation churn.
    /// These are transient buffers (nothing derived is kept here), so they
    /// stay thread-local while the memo itself is shared.
    static DERIVE_SCRATCH: RefCell<DeriveScratch> = RefCell::new(DeriveScratch::new());
}

/// The pure site-derivation core: everything needed to compute the profile
/// of any rank, with no per-site state.
pub struct SiteGen {
    /// Generation knobs (seed, toplist size, adoption bands, …).
    pub config: EcosystemConfig,
    /// Partner calibration specs (index = partner id).
    pub specs: Vec<PartnerSpec>,
    /// Partner runtime profiles (index = partner id).
    pub profiles: Vec<PartnerProfile>,
    /// `Arc`-shared profile table: derived ad-server accounts reference
    /// these instead of deep-cloning the s2s pool per account.
    profiles_shared: Vec<Arc<PartnerProfile>>,
    providers: Vec<(usize, f64)>,
    s2s_pool: Vec<usize>,
    // Weight templates + runtime tables, pure in the catalog: built once
    // so per-site derivation copies instead of recomputing-and-allocating.
    wf_weights: Vec<f64>,
    provider_weights: Vec<f64>,
    s2s_weights: Vec<f64>,
    runtime_ctx: RuntimeCtx,
    root: Rng,
    /// The universe's shared derivation memo: one entry per resident
    /// rank, served to every worker thread. Owned here, so dropping the
    /// factory drops its memo and universes never serve each other's
    /// profiles.
    memo: ShardedMemo<MemoEntry>,
}

impl SiteGen {
    /// Build the derivation core for a configuration.
    pub fn new(config: EcosystemConfig) -> SiteGen {
        let specs = catalog::catalog();
        let profiles = catalog::profiles(&specs);
        let profiles_shared = profiles.iter().cloned().map(Arc::new).collect();
        let providers = catalog::providers(&specs);
        let s2s_pool = catalog::s2s_pool(&specs);
        let wf_weights = publisher::wf_weight_template(&specs);
        let provider_weights = providers.iter().map(|(_, w)| *w).collect();
        let s2s_weights = s2s_pool.iter().map(|&i| specs[i].weight).collect();
        let runtime_ctx = RuntimeCtx::new(&specs, config.scenario.degraded_posture);
        let root = Rng::new(config.seed).derive_str("site-profiles");
        SiteGen {
            config,
            specs,
            profiles,
            profiles_shared,
            providers,
            s2s_pool,
            wf_weights,
            provider_weights,
            s2s_weights,
            runtime_ctx,
            root,
            memo: ShardedMemo::new(),
        }
    }

    /// The precomputed derivation context over this universe's catalog.
    fn derive_ctx(&self) -> DeriveCtx<'_> {
        DeriveCtx {
            cfg: &self.config,
            specs: &self.specs,
            providers: &self.providers,
            s2s_pool: &self.s2s_pool,
            wf_weights: &self.wf_weights,
            provider_weights: &self.provider_weights,
            s2s_weights: &self.s2s_weights,
        }
    }

    /// Answer from `rank`'s memo entry. On a hit `read` runs under the
    /// shard read lock, so no entry handle is cloned; when it cannot
    /// answer, `fill` gets an entry handle outside every lock, and a miss
    /// derives the site and publishes the entry first.
    fn with_entry<R>(
        &self,
        rank: u32,
        read: impl FnOnce(&MemoEntry) -> Option<R>,
        fill: impl FnOnce(&MemoEntry) -> R,
    ) -> R {
        let entry = match self
            .memo
            .peek(rank, |e| read(e).ok_or_else(|| Arc::clone(e)))
        {
            Some(Ok(value)) => return value,
            Some(Err(entry)) => entry,
            None => self.memo.publish(rank, MemoEntry::new(self.site(rank))),
        };
        fill(&entry)
    }

    /// [`SiteGen::site`] through the universe's shared concurrent memo:
    /// repeated lookups of the same rank — in-visit lazy resolution, daily
    /// revisits, *and other workers' visits* — cost one derivation total.
    pub fn site_shared(&self, rank: u32) -> Arc<SiteProfile> {
        self.with_entry(rank, |e| Some(Arc::clone(&e.site)), |e| Arc::clone(&e.site))
    }

    /// The site's ad-server account, through the shared memo. The
    /// scenario's degraded posture (the mediator's s2s deadline and retry)
    /// is stamped on here, so every lazily resolved account carries the
    /// campaign's posture.
    pub fn account_shared(&self, rank: u32) -> Arc<AdServerAccount> {
        self.with_entry(rank, |e| e.account.get().cloned(), |e| self.account_of(e))
    }

    /// The site's ad-server account if `has_account` accepts its profile,
    /// `None` otherwise: the ad servers' account resolvers read both from
    /// one memo lookup.
    pub(crate) fn account_where(
        &self,
        rank: u32,
        has_account: impl Fn(&SiteProfile) -> bool,
    ) -> Option<Arc<AdServerAccount>> {
        self.with_entry(
            rank,
            |e| {
                if has_account(&e.site) {
                    e.account.get().cloned().map(Some)
                } else {
                    Some(None)
                }
            },
            |e| has_account(&e.site).then(|| self.account_of(e)),
        )
    }

    fn account_of(&self, entry: &MemoEntry) -> Arc<AdServerAccount> {
        get_or_derive(&entry.account, || {
            let mut account = world::account_for(&entry.site, &self.profiles_shared);
            account.degraded_posture = self.config.scenario.degraded_posture;
            Arc::new(account)
        })
    }

    /// The shared per-visit runtime for `rank`, through the shared memo.
    /// Flows hold this by `Arc`, so starting a visit never rebuilds ad
    /// units, partner refs or waterfall tiers for a memoized rank; a memo
    /// miss builds it from the precomputed per-universe runtime tables,
    /// once, for every worker.
    pub fn runtime_shared(&self, rank: u32) -> Arc<hb_adtech::SiteRuntime> {
        self.with_entry(
            rank,
            |e| e.runtime.get().cloned(),
            |e| {
                get_or_derive(&e.runtime, || {
                    Arc::new(world::site_runtime_with(&e.site, &self.runtime_ctx))
                })
            },
        )
    }

    /// The site's rendered page HTML, through the shared memo. A miss
    /// renders into the deriving thread's reusable page buffer; only the
    /// final `Arc<str>` the memo retains is allocated.
    pub fn page_html_shared(&self, rank: u32) -> hb_http::HStr {
        self.with_entry(
            rank,
            |e| e.page_html.get().cloned(),
            |e| {
                get_or_derive(&e.page_html, || {
                    DERIVE_SCRATCH.with(|s| {
                        let scratch = &mut *s.borrow_mut();
                        world::render_page_html(&e.site, &self.specs, &mut scratch.page);
                        hb_http::HStr::from(scratch.page.as_str())
                    })
                })
            },
        )
    }

    /// Drop every entry of this universe's shared derivation memo (each
    /// rank's site, account, runtime and page HTML). Allocation tests use
    /// this to measure the true memo-miss (cold) path, and the
    /// determinism suite uses it to prove eviction is behaviour-free;
    /// production code never needs it — a full shard evicts one entry
    /// per miss. Clearing mid-campaign only costs re-derivations (pure in
    /// `(seed, rank)`), never changes bytes.
    pub fn clear_memos(&self) {
        self.memo.clear();
    }

    /// Derive the profile of the site at 1-based `rank`. O(1) in the
    /// toplist size; identical to [`publisher::generate_site`] on the
    /// same `(seed, rank)` stream. Transient buffers come from the thread's
    /// [`DeriveScratch`], so a cold derivation allocates only what escapes
    /// into the profile.
    pub fn site(&self, rank: u32) -> SiteProfile {
        let mut rng = self.root.derive(rank as u64);
        DERIVE_SCRATCH.with(|s| {
            publisher::generate_site_with(&self.derive_ctx(), rank, &mut rng, &mut s.borrow_mut())
        })
    }

    /// Build a (non-memoized) per-visit runtime for a site profile from
    /// the precomputed tables.
    pub fn runtime_for(&self, site: &SiteProfile) -> hb_adtech::SiteRuntime {
        world::site_runtime_with(site, &self.runtime_ctx)
    }

    /// Parse a publisher page host (`pub{rank}.example`) back to its rank;
    /// `None` for hosts outside the configured toplist.
    pub fn rank_of_page_host(&self, host: &str) -> Option<u32> {
        let digits = host.strip_prefix("pub")?.strip_suffix(".example")?;
        if digits.is_empty() || (digits.len() > 1 && digits.starts_with('0')) {
            return None;
        }
        let rank: u32 = digits.parse().ok()?;
        (rank >= 1 && rank <= self.config.n_sites).then_some(rank)
    }

    /// Parse an ad-server account id (`pub-{rank}`) back to its rank.
    pub fn rank_of_account(&self, account_id: &str) -> Option<u32> {
        let digits = account_id.strip_prefix("pub-")?;
        if digits.is_empty() || (digits.len() > 1 && digits.starts_with('0')) {
            return None;
        }
        let rank: u32 = digits.parse().ok()?;
        (rank >= 1 && rank <= self.config.n_sites).then_some(rank)
    }
}

/// The universe, on demand: the derivation core plus the lazy simulated
/// Internet. Everything a crawl shard, a serving plane or a test needs,
/// at O(1) construction cost in the toplist size.
pub struct SiteFactory {
    gen: Arc<SiteGen>,
    router: Arc<Router>,
    latency: Arc<HostDirectory>,
    faults: Arc<FaultInjector>,
    /// Per-day fault injectors (index = sim-day), present only when the
    /// scenario schedules outage windows. Each is the ambient injector
    /// plus the outages active that day, built once up front so
    /// [`SiteFactory::net_for_day`] is a pair of `Arc` clones on the
    /// visit path.
    faults_by_day: Vec<Arc<FaultInjector>>,
    detector_list: Arc<PartnerList>,
}

impl SiteFactory {
    /// Build the factory (registers the 84 partner endpoints, providers
    /// and CDN eagerly — O(catalog), not O(toplist)).
    pub fn new(config: EcosystemConfig) -> SiteFactory {
        let gen = Arc::new(SiteGen::new(config));
        let mut world = world::build_lazy_world(&gen);
        let detector_list = Arc::new(catalog::partner_list(&gen.specs));
        let scenario = &gen.config.scenario;
        // Degraded links override the affected hosts' latency models for
        // the whole campaign (every day, every worker).
        for (host, model) in &scenario.degraded_links {
            world.latency.insert(host.clone(), model.clone());
        }
        let mut faults = FaultInjector::none()
            .with_drop_chance(gen.config.drop_chance)
            .with_slowdown(
                gen.config.slow_chance,
                hb_simnet::Dist::log_normal_median(350.0, 0.7).clamped(50.0, 12_000.0),
            );
        // Ambient per-host loss profiles apply on every day.
        for (host, profile) in &scenario.host_profiles {
            faults.set_host_profile(host.clone(), profile.clone());
        }
        // Scheduled outages vary by day: precompute one injector per
        // sim-day (days are a small constant; sites are not).
        let faults_by_day: Vec<Arc<FaultInjector>> = if scenario.has_outages() {
            (0..=gen.config.crawl_days)
                .map(|day| Arc::new(scenario.injector_for_day(&faults, day)))
                .collect()
        } else {
            Vec::new()
        };
        SiteFactory {
            gen,
            router: Arc::new(world.router),
            latency: Arc::new(world.latency),
            faults: Arc::new(faults),
            faults_by_day,
            detector_list,
        }
    }

    /// The configuration this universe derives from.
    pub fn config(&self) -> &EcosystemConfig {
        &self.gen.config
    }

    /// Partner calibration specs.
    pub fn specs(&self) -> &[PartnerSpec] {
        &self.gen.specs
    }

    /// The shared derivation core.
    pub fn gen(&self) -> &Arc<SiteGen> {
        &self.gen
    }

    /// Clear the universe's shared derivation memo (measurement hook; see
    /// [`SiteGen::clear_memos`]).
    pub fn clear_memos(&self) {
        self.gen.clear_memos();
    }

    /// Derive the profile of the site at 1-based `rank` (O(1)).
    pub fn site(&self, rank: u32) -> SiteProfile {
        self.gen.site(rank)
    }

    /// Every site in the toplist, rank order, each derived afresh through
    /// [`SiteFactory::site`]. Neither reads nor warms the shared memo, so
    /// walking the toplist leaves the cold path cold.
    pub fn sites(&self) -> impl Iterator<Item = SiteProfile> + '_ {
        (1..=self.gen.config.n_sites).map(|rank| self.site(rank))
    }

    /// The sites that actually run HB (ground truth), rank order; see
    /// [`SiteFactory::sites`].
    pub fn hb_sites(&self) -> impl Iterator<Item = SiteProfile> + '_ {
        self.sites().filter(|s| s.facet.is_some())
    }

    /// Derive (or reuse, via the universe's shared memo) the shared
    /// profile of the site at 1-based `rank`. Prefer this on crawl paths:
    /// the lazy world's endpoint and latency lookups for the same rank
    /// then hit the memo instead of re-deriving.
    pub fn site_shared(&self, rank: u32) -> Arc<SiteProfile> {
        self.gen.site_shared(rank)
    }

    /// The network handle visits connect through.
    pub fn net(&self) -> Net {
        Net::new(
            self.router.clone(),
            self.latency.clone(),
            self.faults.clone(),
        )
    }

    /// The network handle for a specific sim-day: identical to
    /// [`SiteFactory::net`] unless the scenario schedules outage windows,
    /// in which case the day's injector carries the outages active that
    /// day. Deterministic in `day` alone, so shards and workers agree.
    pub fn net_for_day(&self, day: u32) -> Net {
        let faults = self
            .faults_by_day
            .get(day as usize)
            .cloned()
            .unwrap_or_else(|| self.faults.clone());
        Net::new(self.router.clone(), self.latency.clone(), faults)
    }

    /// Shared router handle (lazy publisher resolution).
    pub fn router(&self) -> Arc<Router> {
        self.router.clone()
    }

    /// Shared latency directory handle.
    pub fn latency(&self) -> Arc<HostDirectory> {
        self.latency.clone()
    }

    /// Shared fault injector handle.
    pub fn faults(&self) -> Arc<FaultInjector> {
        self.faults.clone()
    }

    /// The detector's partner list (built once, cloning is two atomic ops).
    pub fn partner_list(&self) -> Arc<PartnerList> {
        self.detector_list.clone()
    }

    /// The per-visit runtime for a site profile (precomputed tables; no
    /// hostname re-rendering).
    pub fn runtime_for(&self, site: &SiteProfile) -> hb_adtech::SiteRuntime {
        self.gen.runtime_for(site)
    }

    /// The shared per-visit runtime for `rank` through the universe's
    /// shared concurrent memo — the crawl path's entry point (one
    /// derivation serves every worker).
    pub fn runtime_shared(&self, rank: u32) -> Arc<hb_adtech::SiteRuntime> {
        self.gen.runtime_shared(rank)
    }

    /// Derive the deterministic RNG stream for a `(site, day)` visit.
    pub fn visit_rng(&self, rank: u32, day: u32) -> Rng {
        Rng::new(self.gen.config.seed)
            .derive_str("visits")
            .derive(rank as u64)
            .derive(day as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use hb_adtech::HbFacet;

    fn tiny_factory() -> SiteFactory {
        SiteFactory::new(EcosystemConfig::tiny_scale())
    }

    #[test]
    fn any_rank_derivable_in_isolation() {
        let f = tiny_factory();
        let s = f.site(137);
        assert_eq!(s.rank, 137);
        assert_eq!(s.domain, "pub137.example");
    }

    #[test]
    fn derivation_is_order_independent() {
        let f = tiny_factory();
        let late_first = (f.site(200), f.site(1));
        let g = tiny_factory();
        let early_first = (g.site(1), g.site(200));
        assert_eq!(late_first.0.domain, early_first.1.domain);
        assert_eq!(late_first.0.facet, early_first.1.facet);
        assert_eq!(
            late_first.1.client_partner_ids,
            early_first.0.client_partner_ids
        );
    }

    #[test]
    fn million_rank_toplist_is_o1_per_site() {
        // The point of laziness: a huge toplist costs nothing until a
        // rank is actually requested.
        let f = SiteFactory::new(EcosystemConfig::paper_scale().with_sites(1_000_000));
        let s = f.site(999_999);
        assert_eq!(s.rank, 999_999);
        assert!(f.net().router.resolve("pub999999.example").is_some());
    }

    #[test]
    fn host_and_account_parsing() {
        let f = tiny_factory();
        let g = f.gen();
        assert_eq!(g.rank_of_page_host("pub7.example"), Some(7));
        assert_eq!(g.rank_of_page_host("pub0.example"), None);
        assert_eq!(
            g.rank_of_page_host("pub201.example"),
            None,
            "beyond toplist"
        );
        assert_eq!(g.rank_of_page_host("pub07.example"), None, "leading zero");
        assert_eq!(g.rank_of_page_host("pub7x.example"), None);
        assert_eq!(g.rank_of_page_host("ads.pub7.example"), None);
        assert_eq!(g.rank_of_account("pub-7"), Some(7));
        assert_eq!(g.rank_of_account("pub-"), None);
        assert_eq!(g.rank_of_account("ghost"), None);
    }

    #[test]
    fn lazy_net_serves_publisher_hosts_on_demand() {
        let f = tiny_factory();
        let net = f.net();
        assert!(net.router.resolve("pub1.example").is_some());
        assert!(net.router.resolve("appnexus-adnet.example").is_some());
        assert!(net.router.resolve(hb_adtech::CDN_HOST).is_some());
        let mut rng = Rng::new(3);
        let sample = net.latency.lookup("pub1.example").sample(&mut rng);
        assert!(sample.as_micros() > 0);
    }

    #[test]
    fn scenario_posture_reaches_runtime_and_account() {
        // The runtime gets the posture from `RuntimeCtx::new`, the account
        // from `account_of`'s stamp: check both, cold and after a clear,
        // for every facet that talks to an ad server.
        let stressed = ScenarioConfig::healthy()
            .with_outage("appnexus-adnet.example", 1, 2)
            .with_degraded_posture();
        for (scenario, on) in [(ScenarioConfig::healthy(), false), (stressed, true)] {
            let f = SiteFactory::new(EcosystemConfig::tiny_scale().with_scenario(scenario));
            let ranks: Vec<u32> = [HbFacet::ServerSide, HbFacet::Hybrid, HbFacet::ClientSide]
                .into_iter()
                .flat_map(|facet| {
                    f.hb_sites()
                        .filter(move |s| s.facet == Some(facet))
                        .take(2)
                        .map(|s| s.rank)
                })
                .collect();
            assert_eq!(ranks.len(), 6, "two ranks per facet");
            for pass in ["cold", "after clear_memos"] {
                for &r in &ranks {
                    let g = f.gen();
                    assert_eq!(
                        g.runtime_shared(r).degraded_posture,
                        on,
                        "{pass} runtime {r}"
                    );
                    assert_eq!(
                        g.account_shared(r).degraded_posture,
                        on,
                        "{pass} account {r}"
                    );
                }
                f.clear_memos();
            }
        }
    }

    /// A naive second-chance cache of one shard: hits found by a linear
    /// scan, slots in arrival order, one hand.
    struct ClockModel {
        slots: Vec<(u32, bool)>,
        hand: usize,
    }

    impl ClockModel {
        /// Look `rank` up, inserting it on a miss; `true` on a hit.
        fn lookup(&mut self, rank: u32) -> bool {
            if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == rank) {
                slot.1 = true;
                return true;
            }
            if self.slots.len() < MEMO_SHARD_CAP {
                self.slots.push((rank, false));
                return false;
            }
            loop {
                let slot = &mut self.slots[self.hand];
                self.hand = (self.hand + 1) % MEMO_SHARD_CAP;
                if !slot.1 {
                    *slot = (rank, false);
                    return false;
                }
                slot.1 = false;
            }
        }
    }

    /// Look `rank` up the way `SiteGen` does: peek, publish on a miss.
    /// `true` on a hit.
    fn lookup(memo: &ShardedMemo<u32>, rank: u32) -> bool {
        if let Some(value) = memo.peek(rank, |v| **v) {
            assert_eq!(value, rank);
            return true;
        }
        assert_eq!(*memo.publish(rank, rank), rank);
        false
    }

    #[test]
    fn memo_shard_matches_a_naive_second_chance_model() {
        for seed in 0..6u64 {
            let residue = (seed * 5) as usize % MEMO_SHARDS;
            let memo = ShardedMemo::new();
            let mut model = ClockModel {
                slots: Vec::new(),
                hand: 0,
            };
            let mut rng = Rng::new(seed);
            for step in 0..6_000 {
                // Skewed and uniform draws over three shards' worth of
                // ranks, so hits, misses and evictions all occur.
                let k = match rng.below(2) {
                    0 => rng.zipf(3 * MEMO_SHARD_CAP as u64, 1.0),
                    _ => rng.below(3 * MEMO_SHARD_CAP as u64) + 1,
                };
                let rank = (residue + MEMO_SHARDS * k as usize) as u32;
                let hit = lookup(&memo, rank);
                assert_eq!(hit, model.lookup(rank), "seed {seed} step {step}");
                let shard = read(memo.shard(rank));
                let slots: Vec<(u32, bool)> = shard
                    .slots
                    .iter()
                    .map(|s| (s.rank, s.referenced.load(Ordering::Relaxed)))
                    .collect();
                assert!(slots.len() <= MEMO_SHARD_CAP);
                assert_eq!(slots, model.slots, "seed {seed} step {step}");
                assert_eq!(shard.hand, model.hand, "seed {seed} step {step}");
                assert_eq!(shard.index.len(), slots.len());
                assert!(shard.index.iter().all(|(&r, &i)| slots[i].0 == r));
            }
            for (i, shard) in memo.shards.iter().enumerate() {
                assert_eq!(read(shard).slots.is_empty(), i != residue);
            }
        }
    }

    /// Misses of the policy second chance replaced: a full shard drops
    /// every entry at once.
    fn clear_on_full_misses(trace: &[u32]) -> usize {
        let mut shards = vec![std::collections::HashSet::new(); MEMO_SHARDS];
        let mut misses = 0;
        for &rank in trace {
            let shard = &mut shards[rank as usize & (MEMO_SHARDS - 1)];
            if !shard.contains(&rank) {
                misses += 1;
                if shard.len() >= MEMO_SHARD_CAP {
                    shard.clear();
                }
                shard.insert(rank);
            }
        }
        misses
    }

    #[test]
    fn memo_keeps_a_zipf_head_resident() {
        // serve_zipf's traffic shape: zipf(1.0) over a paper-scale
        // toplist of 35k ranks, four times what the memo holds.
        let mut rng = Rng::new(1);
        let trace: Vec<u32> = (0..200_000).map(|_| rng.zipf(35_000, 1.0) as u32).collect();
        let memo = ShardedMemo::new();
        let misses = trace.iter().filter(|&&rank| !lookup(&memo, rank)).count();
        let clear_on_full = clear_on_full_misses(&trace);
        assert!(
            misses < clear_on_full,
            "second chance missed {misses}, clear-on-full {clear_on_full}"
        );
        assert_eq!(misses, 38_616, "clear-on-full misses {clear_on_full}");
        for shard in &memo.shards {
            assert!(read(shard).slots.len() <= MEMO_SHARD_CAP);
        }
    }
}
