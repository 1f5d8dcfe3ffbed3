//! # hb-stats
//!
//! Statistics toolkit for the header bidding reproduction: quantiles,
//! summary statistics and empirical-CDF values ([`Samples`], whose
//! [`Samples::frac_at_or_below`] is the ECDF), five-number whisker
//! summaries matching the paper's box plots ([`Whisker`]), categorical
//! counters ([`Counter`]), log-bucketed mergeable latency histograms for
//! the serving plane ([`LogHistogram`]), grouped samples
//! ([`GroupedSamples`], [`SortedGroups`]), and ASCII/CSV table rendering
//! ([`Table`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod histogram;
pub mod loghist;
pub mod quantile;
pub mod table;
pub mod whisker;

pub use binning::{GroupedSamples, SortedGroups};
pub use histogram::Counter;
pub use loghist::LogHistogram;
pub use quantile::Samples;
pub use table::{csv_escape, fmt_f, fmt_ms, fmt_pct, parse_csv, Align, Table};
pub use whisker::Whisker;
