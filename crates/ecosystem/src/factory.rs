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
use std::sync::{Arc, RwLock};

/// Shard count of the concurrent derivation memos (power of two; a rank
/// maps to shard `rank & (MEMO_SHARDS - 1)`, so the contiguous rank
/// blocks campaign workers claim land on different shards and readers
/// almost never contend on the same lock).
const MEMO_SHARDS: usize = 16;

/// Per-shard entry cap. The memo is shared by every worker for the life
/// of the universe, so it must stay bounded: adoption sweeps over huge
/// toplists (`campaign/cold_sweep` walks fresh ranks forever) would
/// otherwise grow it without limit. When a shard fills up it is simply
/// cleared — derivation is pure in `(seed, rank)`, so eviction can never
/// change bytes, only cost a re-derivation. 16 shards × 512 entries keeps
/// the tiny and test universes and the daily-revisit working set of a
/// medium crawl fully resident.
const MEMO_SHARD_CAP: usize = 512;

/// A sharded concurrent memo keyed by rank, shared by every worker of a
/// universe: one derivation serves all threads, so a cold rank is paid
/// once per campaign instead of once per worker thread (the per-thread
/// LRUs this replaces re-derived every hot site N times under N workers).
///
/// Reads take a shard read lock and clone the value (`Arc`/`HStr` —
/// pointer clones). A miss derives *outside* any lock, then publishes
/// under the shard write lock with first-insert-wins: every caller gets a
/// clone of the resident value, so concurrent derivations of the same
/// rank always resolve to pointer-equal handles, never torn values.
struct ShardedMemo<T> {
    shards: Vec<RwLock<FxHashMap<u32, T>>>,
}

impl<T: Clone> ShardedMemo<T> {
    fn new() -> ShardedMemo<T> {
        ShardedMemo {
            shards: (0..MEMO_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, rank: u32) -> &RwLock<FxHashMap<u32, T>> {
        &self.shards[rank as usize & (MEMO_SHARDS - 1)]
    }

    /// Fetch `rank`, deriving and publishing on miss. Whoever publishes
    /// first wins; late derivers drop their value and return the winner's.
    fn get_or_insert_with(&self, rank: u32, derive: impl FnOnce() -> T) -> T {
        let shard = self.shard(rank);
        if let Some(hit) = shard.read().expect("memo shard poisoned").get(&rank) {
            return hit.clone();
        }
        // Derive outside the lock: a slow derivation must not block
        // readers of the other ~511 ranks on this shard.
        let value = derive();
        let mut map = shard.write().expect("memo shard poisoned");
        if map.len() >= MEMO_SHARD_CAP && !map.contains_key(&rank) {
            map.clear();
        }
        map.entry(rank).or_insert(value).clone()
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("memo shard poisoned").clear();
        }
    }
}

/// The four derivation memos of one universe, shared across its workers.
/// Owned by [`SiteGen`], so the `(universe, rank)` keying of the old
/// thread-local memos is implicit — dropping the factory drops its memo,
/// and universes can never serve each other's profiles.
struct DerivationMemo {
    site: ShardedMemo<Arc<SiteProfile>>,
    account: ShardedMemo<Arc<AdServerAccount>>,
    runtime: ShardedMemo<Arc<hb_adtech::SiteRuntime>>,
    /// Rendered page HTML, stored as `HStr` (`Arc<str>` at this length):
    /// serving the page is a pointer clone. By far the most expensive
    /// derivation to repeat per visit.
    page_html: ShardedMemo<hb_http::HStr>,
}

impl DerivationMemo {
    fn new() -> DerivationMemo {
        DerivationMemo {
            site: ShardedMemo::new(),
            account: ShardedMemo::new(),
            runtime: ShardedMemo::new(),
            page_html: ShardedMemo::new(),
        }
    }

    fn clear(&self) {
        self.site.clear();
        self.account.clear();
        self.runtime.clear();
        self.page_html.clear();
    }
}

thread_local! {
    /// Per-worker derivation buffers (weight working copies, the rendered-
    /// page buffer). A memo miss draws its transient storage from here, so
    /// cold derivation — the adoption-sweep hot path, where every rank is
    /// seen for the first time — stops paying per-site allocation churn.
    /// These are transient buffers (nothing derived is kept here), so they
    /// stay thread-local while the memos themselves are shared.
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
    /// The universe's shared derivation memo: one `Arc` per derived
    /// site/account/runtime/page, served to every worker thread.
    memo: DerivationMemo,
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
        let runtime_ctx =
            RuntimeCtx::new(&specs).with_robustness(config.scenario.robustness.clone());
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
            memo: DerivationMemo::new(),
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

    /// [`SiteGen::site`] through the universe's shared concurrent memo:
    /// repeated lookups of the same rank — in-visit lazy resolution, daily
    /// revisits, *and other workers' visits* — cost one derivation total.
    pub fn site_shared(&self, rank: u32) -> Arc<SiteProfile> {
        self.memo
            .site
            .get_or_insert_with(rank, || Arc::new(self.site(rank)))
    }

    /// The site's ad-server account, through the shared memo. The
    /// scenario's mediator robustness (s2s deadline + retry backoff) is
    /// stamped on here, so every lazily resolved account carries the
    /// campaign's policy.
    pub fn account_shared(&self, rank: u32) -> Arc<AdServerAccount> {
        self.memo.account.get_or_insert_with(rank, || {
            let mut account = world::account_for(&self.site_shared(rank), &self.profiles_shared);
            let policy = &self.config.scenario.robustness;
            account.s2s_deadline = policy.s2s_deadline;
            account.s2s_retry_backoff = policy.retry_backoff;
            Arc::new(account)
        })
    }

    /// The shared per-visit runtime for `rank`, through the shared memo.
    /// Flows hold this by `Arc`, so starting a visit never rebuilds ad
    /// units, partner refs or waterfall tiers for a memoized rank; a memo
    /// miss builds it from the precomputed per-universe runtime tables,
    /// once, for every worker.
    pub fn runtime_shared(&self, rank: u32) -> Arc<hb_adtech::SiteRuntime> {
        self.memo.runtime.get_or_insert_with(rank, || {
            Arc::new(world::site_runtime_with(
                &self.site_shared(rank),
                &self.runtime_ctx,
            ))
        })
    }

    /// The site's rendered page HTML, through the shared memo. A miss
    /// renders into the deriving thread's reusable page buffer; only the
    /// final `Arc<str>` the memo retains is allocated.
    pub fn page_html_shared(&self, rank: u32) -> hb_http::HStr {
        self.memo.page_html.get_or_insert_with(rank, || {
            let site = self.site_shared(rank);
            DERIVE_SCRATCH.with(|s| {
                let scratch = &mut *s.borrow_mut();
                world::render_page_html(&site, &self.specs, &mut scratch.page);
                hb_http::HStr::from(scratch.page.as_str())
            })
        })
    }

    /// Drop every entry of this universe's shared derivation memo (site,
    /// account, runtime, page HTML). Allocation tests use this to measure
    /// the true memo-miss (cold) path, and the determinism suite uses it
    /// to prove eviction is behaviour-free;
    /// production code never needs it — a full shard simply recycles
    /// itself. Clearing mid-campaign only costs re-derivations (pure in
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
        assert!(net.router.resolve(crate::world::CDN_HOST).is_some());
        let mut rng = Rng::new(3);
        let sample = net.latency.lookup("pub1.example").sample(&mut rng);
        assert!(sample.as_micros() > 0);
    }
}
