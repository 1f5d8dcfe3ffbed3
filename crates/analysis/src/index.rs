//! The columnar analysis index: folded incrementally from a campaign's
//! streamed chunks, read by every figure.
//!
//! ## Why
//!
//! A visit row carries ~20 fields and nested bid/latency/slot vectors;
//! every figure needs two or three columns of it, and several figures
//! share the same derived tables (per-site partner unions, popularity
//! rankings). [`DatasetIndex`] hoists all of that into flat, parallel
//! arrays (struct-of-arrays) plus the shared derived tables, so figure
//! builders become tight scans over contiguous memory.
//!
//! ## One way to build
//!
//! [`DatasetIndexBuilder`] consumes [`VisitChunk`]s as the campaign
//! streams them, re-interning chunk-local symbols into its own table.
//! Chunks are folded and dropped one at a time, so no row dataset is ever
//! resident. Each chunk-local symbol is interned once per chunk, in
//! first-seen order, so the numbering is the same as re-interning every
//! reference. Feed chunks in `(day, shard, seq)` order — what
//! [`run_campaign_streamed`] emits and what the distributed coordinator
//! folds — and the figures are byte-identical for every parallelism and
//! shard layout. [`index_campaign`] runs that fold over an in-process
//! campaign.
//!
//! ## Contract: build once, read many
//!
//! * The index is immutable after [`DatasetIndexBuilder::finish`]; share
//!   it freely (`Sync`, fully owned).
//! * Figure builders take `&DatasetIndex`; everything order-sensitive
//!   (site tables sorted by domain, partner tables sorted by name,
//!   popularity sorted by count desc / name asc) is precomputed here so
//!   figures never depend on symbol numbering.
//!
//! Every column below is consumed by at least one figure builder — when a
//! figure stops needing a column, delete it here too; the fold (timed as
//! `analysis.fold_us` by the `perf/` benchmark) is paid per column. A
//! column that would only feed a count is counted at fold time instead
//! of stored: the index keeps the count table, not the rows.
//!
//! Column groups, all parallel within their group:
//!
//! | group | arrays | one row per |
//! |---|---|---|
//! | HB visits | `v_*` | visit with `hb_detected` |
//! | day-0 visits | `d0_*` | visit with `day == 0` (HB or not) |
//! | bids | `b_*` | detected bid in an HB visit |
//! | ground truth | `t_*` | truth record with a measured latency |
//!
//! Count tables, folded from rows that are not kept:
//!
//! | table | key → count | counted over |
//! |---|---|---|
//! | `slot_sizes` | `(facet, size)` → slots | slot decisions of HB visits with a facet (Fig. 21) |
//! | `partner_late` | partner → `(late, total)` | partner latency observations (Fig. 18) |

use hb_core::{DetectedFacet, Interner, Symbol, VisitView};
use hb_crawler::{run_campaign_streamed, CampaignConfig, TruthRecord, VisitChunk};
use hb_ecosystem::SiteFactory;
use std::collections::HashMap;
use std::sync::Arc;

/// One HB site (distinct domain) with its cross-visit aggregates.
#[derive(Clone, Debug)]
pub struct SiteRow {
    /// Site domain.
    pub domain: Symbol,
    /// Union of partner names over all visits, sorted by resolved name.
    pub partners: Vec<Symbol>,
    /// Every measured per-visit HB latency of this site, in visit order.
    pub latencies: Vec<f64>,
}

/// Columnar view over one campaign. See the module docs for the
/// build-once/read-many contract.
pub struct DatasetIndex {
    /// The interner every symbol column resolves against.
    pub strings: Arc<Interner>,
    /// Number of sites in the crawled universe.
    pub n_sites: u32,
    /// Number of crawl days (excluding the day-0 sweep).
    pub n_days: u32,

    // --- HB-visit columns (one row per hb_detected visit) -----------------
    /// Site rank.
    pub v_rank: Vec<u32>,
    /// Crawl day.
    pub v_day: Vec<u32>,
    /// Facet verdict.
    pub v_facet: Vec<Option<DetectedFacet>>,
    /// Total HB latency ms (`NaN` when unmeasured).
    pub v_latency: Vec<f64>,
    /// Slots auctioned.
    pub v_slots_auctioned: Vec<u32>,
    /// Number of bids.
    pub v_n_bids: Vec<u32>,
    /// Number of late bids.
    pub v_n_late: Vec<u32>,
    /// Bid/ad requests lost to network faults.
    pub v_bids_dropped: Vec<u32>,
    /// Deadline-triggered retries issued.
    pub v_retries: Vec<u32>,
    /// Demand sources given up on after deadline/retry exhaustion.
    pub v_timed_out: Vec<u32>,
    /// Passback / house-ad fill after total demand failure.
    pub v_passback: Vec<bool>,

    // --- day-0 sweep columns (every visit, HB or not) ---------------------
    /// Site rank.
    pub d0_rank: Vec<u32>,
    /// Detector verdict.
    pub d0_hb: Vec<bool>,
    /// Facet of detected sites (`None` otherwise).
    pub d0_facet: Vec<Option<DetectedFacet>>,

    // --- bid columns ------------------------------------------------------
    /// Row index into the HB-visit columns.
    pub b_visit: Vec<u32>,
    /// Bidder code.
    pub b_bidder: Vec<Symbol>,
    /// Partner display name.
    pub b_partner: Vec<Symbol>,
    /// Size string.
    pub b_size: Vec<Symbol>,
    /// CPM price.
    pub b_cpm: Vec<f64>,

    // --- fold-time count tables -------------------------------------------
    /// Slot decisions per `(facet, size)` over HB visits with a facet
    /// verdict, sorted by facet label then size name.
    pub slot_sizes: Vec<(DetectedFacet, Symbol, u64)>,
    /// `(partner, late, total)` partner latency observations per partner,
    /// sorted by partner name (the row order of `partner_latency`).
    pub partner_late: Vec<(Symbol, u32, u32)>,

    // --- ground-truth latency columns (waterfall baseline, X1) ------------
    /// Measured HB latency of every truth record with an HB facet, in
    /// truth order.
    pub t_hb_latency: Vec<f64>,
    /// Measured waterfall fill latency of every facet-less truth record,
    /// in truth order.
    pub t_wf_latency: Vec<f64>,

    // --- derived tables ---------------------------------------------------
    /// Distinct HB sites sorted by domain name.
    pub sites: Vec<SiteRow>,
    /// Partner popularity `(name, distinct sites)`, count desc / name asc.
    pub partner_popularity: Vec<(Symbol, usize)>,
    /// Per-partner latency samples, sorted by partner name; samples keep
    /// visit order.
    pub partner_latency: Vec<(Symbol, Vec<f64>)>,
    /// Lookup from partner symbol to its `partner_latency` row.
    pub partner_latency_by_sym: HashMap<Symbol, u32>,
}

/// Accumulation state of [`DatasetIndexBuilder`], symbol-space agnostic:
/// the builder supplies the chunk-to-index symbol map.
#[derive(Default)]
struct IndexAccum {
    v_rank: Vec<u32>,
    v_day: Vec<u32>,
    v_facet: Vec<Option<DetectedFacet>>,
    v_latency: Vec<f64>,
    v_slots_auctioned: Vec<u32>,
    v_n_bids: Vec<u32>,
    v_n_late: Vec<u32>,
    v_bids_dropped: Vec<u32>,
    v_retries: Vec<u32>,
    v_timed_out: Vec<u32>,
    v_passback: Vec<bool>,
    d0_rank: Vec<u32>,
    d0_hb: Vec<bool>,
    d0_facet: Vec<Option<DetectedFacet>>,
    b_visit: Vec<u32>,
    b_bidder: Vec<Symbol>,
    b_partner: Vec<Symbol>,
    b_size: Vec<Symbol>,
    b_cpm: Vec<f64>,
    t_hb_latency: Vec<f64>,
    t_wf_latency: Vec<f64>,
    slot_sizes: HashMap<(DetectedFacet, Symbol), u64>,
    site_rows: HashMap<Symbol, SiteRow>,
    /// Per partner: latency samples in visit order, and how many were late.
    partner_samples: HashMap<Symbol, (Vec<f64>, u32)>,
}

impl IndexAccum {
    /// Fold one visit; `map` migrates symbols into the index's symbol
    /// space.
    fn push_visit(&mut self, v: VisitView<'_>, map: &mut dyn FnMut(Symbol) -> Symbol) {
        if v.day == 0 {
            self.d0_rank.push(v.rank);
            self.d0_hb.push(v.hb_detected);
            self.d0_facet.push(v.facet);
        }
        if !v.hb_detected {
            return;
        }
        let vrow = self.v_rank.len() as u32;
        self.v_rank.push(v.rank);
        self.v_day.push(v.day);
        self.v_facet.push(v.facet);
        self.v_latency.push(v.hb_latency_ms.unwrap_or(f64::NAN));
        self.v_slots_auctioned.push(v.slots_auctioned);
        self.v_n_bids.push(v.bids.len() as u32);
        self.v_n_late.push(v.late_bids() as u32);
        self.v_bids_dropped.push(v.bids_dropped);
        self.v_retries.push(v.retries);
        self.v_timed_out.push(v.timed_out_partners);
        self.v_passback.push(v.passback_served);

        let domain = map(v.domain);
        let site = self.site_rows.entry(domain).or_insert_with(|| SiteRow {
            domain,
            partners: Vec::new(),
            latencies: Vec::new(),
        });
        for p in v.partners {
            let p = map(*p);
            if !site.partners.contains(&p) {
                site.partners.push(p);
            }
        }
        if let Some(lat) = v.hb_latency_ms {
            site.latencies.push(lat);
        }

        for b in v.bids {
            self.b_visit.push(vrow);
            self.b_bidder.push(map(b.bidder_code));
            self.b_partner.push(map(b.partner_name));
            self.b_size.push(map(b.size));
            self.b_cpm.push(b.cpm);
        }
        for pl in v.partner_latencies {
            let (samples, late) = self
                .partner_samples
                .entry(map(pl.partner_name))
                .or_default();
            samples.push(pl.latency_ms);
            *late += u32::from(pl.late);
        }
        for s in v.slots {
            // Interned even when uncounted: symbol numbering stays
            // first-seen over every column the visit carries.
            let size = map(s.size);
            if let Some(facet) = v.facet {
                *self.slot_sizes.entry((facet, size)).or_insert(0) += 1;
            }
        }
    }

    /// Fold one ground-truth record (only its latency columns are kept).
    fn push_truth(&mut self, t: &TruthRecord) {
        if t.facet != "none" {
            if let Some(ms) = t.hb_latency_ms {
                self.t_hb_latency.push(ms);
            }
        } else if let Some(ms) = t.waterfall_latency_ms {
            self.t_wf_latency.push(ms);
        }
    }

    /// Sort the derived tables and assemble the immutable index.
    fn finish(self, strings: Arc<Interner>, n_sites: u32, n_days: u32) -> DatasetIndex {
        // Sites sorted by domain name; partner sets sorted by name.
        let mut sites: Vec<SiteRow> = self.site_rows.into_values().collect();
        for site in &mut sites {
            site.partners
                .sort_unstable_by(|a, b| strings.resolve(*a).cmp(strings.resolve(*b)));
        }
        sites.sort_unstable_by(|a, b| strings.resolve(a.domain).cmp(strings.resolve(b.domain)));

        // Partner popularity: distinct sites per partner, from the sorted
        // site table; ranked count desc, name asc.
        let mut pop: HashMap<Symbol, usize> = HashMap::new();
        for site in &sites {
            for p in &site.partners {
                *pop.entry(*p).or_insert(0) += 1;
            }
        }
        let mut partner_popularity: Vec<(Symbol, usize)> = pop.into_iter().collect();
        partner_popularity.sort_unstable_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| strings.resolve(a.0).cmp(strings.resolve(b.0)))
        });

        // Per-partner latency samples and late counts sorted by name, with
        // a reverse map.
        let mut partner_rows: Vec<(Symbol, (Vec<f64>, u32))> =
            self.partner_samples.into_iter().collect();
        partner_rows.sort_unstable_by(|a, b| strings.resolve(a.0).cmp(strings.resolve(b.0)));
        let partner_late = partner_rows
            .iter()
            .map(|(sym, (samples, late))| (*sym, *late, samples.len() as u32))
            .collect();
        let partner_latency: Vec<(Symbol, Vec<f64>)> = partner_rows
            .into_iter()
            .map(|(sym, (samples, _))| (sym, samples))
            .collect();
        let partner_latency_by_sym = partner_latency
            .iter()
            .enumerate()
            .map(|(i, (sym, _))| (*sym, i as u32))
            .collect();

        let mut slot_sizes: Vec<(DetectedFacet, Symbol, u64)> = self
            .slot_sizes
            .into_iter()
            .map(|((facet, size), n)| (facet, size, n))
            .collect();
        slot_sizes.sort_unstable_by(|a, b| {
            (a.0.label(), strings.resolve(a.1)).cmp(&(b.0.label(), strings.resolve(b.1)))
        });

        DatasetIndex {
            strings,
            n_sites,
            n_days,
            v_rank: self.v_rank,
            v_day: self.v_day,
            v_facet: self.v_facet,
            v_latency: self.v_latency,
            v_slots_auctioned: self.v_slots_auctioned,
            v_n_bids: self.v_n_bids,
            v_n_late: self.v_n_late,
            v_bids_dropped: self.v_bids_dropped,
            v_retries: self.v_retries,
            v_timed_out: self.v_timed_out,
            v_passback: self.v_passback,
            d0_rank: self.d0_rank,
            d0_hb: self.d0_hb,
            d0_facet: self.d0_facet,
            b_visit: self.b_visit,
            b_bidder: self.b_bidder,
            b_partner: self.b_partner,
            b_size: self.b_size,
            b_cpm: self.b_cpm,
            t_hb_latency: self.t_hb_latency,
            t_wf_latency: self.t_wf_latency,
            slot_sizes,
            partner_late,
            sites,
            partner_popularity,
            partner_latency,
            partner_latency_by_sym,
        }
    }
}

impl DatasetIndex {
    /// Resolve a symbol against the index interner.
    pub fn str(&self, sym: Symbol) -> &str {
        self.strings.resolve(sym)
    }

    /// Number of HB-visit rows.
    pub fn n_hb_visits(&self) -> usize {
        self.v_rank.len()
    }

    /// Number of distinct HB sites.
    pub fn n_hb_sites(&self) -> usize {
        self.sites.len()
    }

    /// Latency samples for one partner, if any were observed.
    pub fn latency_samples_of(&self, partner: Symbol) -> Option<&[f64]> {
        self.partner_latency_by_sym
            .get(&partner)
            .map(|&i| &self.partner_latency[i as usize].1[..])
    }
}

/// Run the campaign in process and fold its chunk stream into an index:
/// `run_campaign_streamed` → [`DatasetIndexBuilder`], the one path from a
/// visit to a figure.
pub fn index_campaign(factory: &SiteFactory, cfg: &CampaignConfig) -> DatasetIndex {
    let config = factory.config();
    let mut builder = DatasetIndexBuilder::new(config.n_sites, config.crawl_days);
    run_campaign_streamed(factory, cfg, &mut |chunk| builder.push_chunk(&chunk));
    builder.finish()
}

/// Incremental index construction from streamed shard chunks.
///
/// Chunks are folded in arrival order and can be dropped immediately —
/// the builder keeps only the columnar state, never the row records, so
/// peak memory for a figures run is the index itself plus one in-flight
/// chunk.
pub struct DatasetIndexBuilder {
    strings: Interner,
    n_sites: u32,
    n_days: u32,
    accum: IndexAccum,
    /// Chunk-local symbol → index symbol, filled on first sight per chunk.
    remap: Vec<Option<Symbol>>,
}

impl DatasetIndexBuilder {
    /// Start a builder for a campaign over `n_sites` × `n_days`.
    pub fn new(n_sites: u32, n_days: u32) -> DatasetIndexBuilder {
        DatasetIndexBuilder {
            strings: Interner::new(),
            n_sites,
            n_days,
            accum: IndexAccum::default(),
            remap: Vec::new(),
        }
    }

    /// Fold one chunk: visits are appended in chunk order with their
    /// symbols re-interned from the chunk-local table into the builder's,
    /// each distinct symbol once, in first-seen order.
    pub fn push_chunk(&mut self, chunk: &VisitChunk) {
        let strings = &mut self.strings;
        let local = &chunk.strings;
        let remap = &mut self.remap;
        remap.clear();
        remap.resize(local.len(), None);
        let mut map = |sym: Symbol| {
            *remap[sym.index()].get_or_insert_with(|| strings.intern(local.resolve(sym)))
        };
        for v in chunk.visits.iter() {
            self.accum.push_visit(v, &mut map);
        }
        for t in &chunk.truths {
            self.accum.push_truth(t);
        }
    }

    /// Number of visits folded so far (HB visits only appear in `v_*`
    /// columns, but day-0 rows count every sweep visit).
    pub fn n_hb_visits(&self) -> usize {
        self.accum.v_rank.len()
    }

    /// Seal the index.
    pub fn finish(self) -> DatasetIndex {
        self.accum
            .finish(Arc::new(self.strings), self.n_sites, self.n_days)
    }
}

#[cfg(test)]
mod tests {
    use crate::test_fixtures::{small_chunks, small_index};
    use hb_core::Symbol;
    use std::collections::BTreeMap;

    #[test]
    fn columns_are_consistent() {
        let ix = small_index();
        let n = ix.n_hb_visits();
        assert!(n > 100);
        assert_eq!(ix.v_latency.len(), n);
        assert_eq!(ix.v_n_bids.len(), n);
        assert_eq!(ix.b_visit.len(), ix.b_cpm.len());
        // Bid rows point at valid visit rows.
        assert!(ix.b_visit.iter().all(|&v| (v as usize) < n));
        // Totals line up with the chunks the index was folded from.
        let total_bids: u32 = ix.v_n_bids.iter().sum();
        assert_eq!(total_bids as usize, ix.b_visit.len());
        let chunk_bids: usize = small_chunks()
            .iter()
            .flat_map(|c| c.visits.iter())
            .filter(|v| v.hb_detected)
            .map(|v| v.bids.len())
            .sum();
        assert_eq!(total_bids as usize, chunk_bids);
    }

    #[test]
    fn sites_sorted_by_domain() {
        let ix = small_index();
        assert!(ix.n_hb_sites() > 10);
        let domains: Vec<&str> = ix.sites.iter().map(|s| ix.str(s.domain)).collect();
        let mut sorted = domains.clone();
        sorted.sort_unstable();
        assert_eq!(domains, sorted);
        let hb_domains: std::collections::BTreeSet<&str> = small_chunks()
            .iter()
            .flat_map(|c| {
                c.visits
                    .iter()
                    .filter(|v| v.hb_detected)
                    .map(|v| c.strings.resolve(v.domain))
            })
            .collect();
        assert_eq!(ix.n_hb_sites(), hb_domains.len());
    }

    #[test]
    fn popularity_ranked_desc() {
        let ix = small_index();
        for w in ix.partner_popularity.windows(2) {
            assert!(w[0].1 >= w[1].1);
            if w[0].1 == w[1].1 {
                assert!(ix.str(w[0].0) < ix.str(w[1].0));
            }
        }
    }

    #[test]
    fn partner_latency_lookup_consistent() {
        let ix = small_index();
        assert!(!ix.partner_latency.is_empty());
        for (sym, samples) in &ix.partner_latency {
            assert_eq!(ix.latency_samples_of(*sym).unwrap(), &samples[..]);
        }
        let late_rows: Vec<Symbol> = ix.partner_late.iter().map(|(p, _, _)| *p).collect();
        let latency_rows: Vec<Symbol> = ix.partner_latency.iter().map(|(p, _)| *p).collect();
        assert_eq!(late_rows, latency_rows);
        for ((_, samples), (_, _, total)) in ix.partner_latency.iter().zip(&ix.partner_late) {
            assert_eq!(samples.len(), *total as usize);
        }
    }

    /// The fold-time count tables against a naive recount over the rows
    /// of the chunks the index was folded from, compared as strings.
    #[test]
    fn count_tables_match_naive_recount() {
        let ix = small_index();
        let mut late: BTreeMap<&str, (u32, u32)> = BTreeMap::new();
        let mut sizes: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for chunk in small_chunks() {
            for v in chunk.visits.iter().filter(|v| v.hb_detected) {
                for pl in v.partner_latencies {
                    let e = late
                        .entry(chunk.strings.resolve(pl.partner_name))
                        .or_default();
                    e.0 += u32::from(pl.late);
                    e.1 += 1;
                }
                let Some(facet) = v.facet else { continue };
                for slot in v.slots {
                    let key = (facet.label(), chunk.strings.resolve(slot.size));
                    *sizes.entry(key).or_default() += 1;
                }
            }
        }
        assert!(late.values().any(|&(l, _)| l > 0));
        assert!(sizes.len() > 3);

        let got_late: Vec<(&str, (u32, u32))> = ix
            .partner_late
            .iter()
            .map(|&(p, l, total)| (ix.str(p), (l, total)))
            .collect();
        assert_eq!(got_late, late.into_iter().collect::<Vec<_>>());
        let got_sizes: Vec<((&str, &str), u64)> = ix
            .slot_sizes
            .iter()
            .map(|&(f, size, n)| ((f.label(), ix.str(size)), n))
            .collect();
        assert_eq!(got_sizes, sizes.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn truth_latency_columns_match_dataset() {
        let ix = small_index();
        let truths = || small_chunks().iter().flat_map(|c| &c.truths);
        let hb: Vec<f64> = truths()
            .filter(|t| t.facet != "none")
            .filter_map(|t| t.hb_latency_ms)
            .collect();
        let wf: Vec<f64> = truths()
            .filter(|t| t.facet == "none")
            .filter_map(|t| t.waterfall_latency_ms)
            .collect();
        assert_eq!(ix.t_hb_latency, hb);
        assert_eq!(ix.t_wf_latency, wf);
    }
}
