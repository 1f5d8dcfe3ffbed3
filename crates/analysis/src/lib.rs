//! # hb-analysis
//!
//! The analysis layer regenerating every table and figure of the paper
//! from a [`DatasetIndex`] folded out of a campaign's streamed chunks
//! ([`DatasetIndexBuilder`], or [`index_campaign`] for an in-process
//! run; see [`index`]): dataset summary
//! (Table 1), adoption (§4.1, Fig. 4), facets (§4.6), partners
//! (Figs. 8-11), latency (Figs. 12-16), late bids (Figs. 17-18), ad slots
//! (Figs. 19-21), prices (Figs. 22-24), and the waterfall baseline
//! comparison (abstract claim). Each builder returns a [`FigureReport`]
//! carrying the regenerated table, key scalar metrics, and the paper's
//! stated expectation for side-by-side judgment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adoption;
pub mod faults;
pub mod index;
pub mod late;
pub mod latency;
pub mod partners;
pub mod prices;
pub mod registry;
pub mod report;
pub mod slots;
pub mod summary;
pub mod waterfall_cmp;

#[doc(hidden)]
pub mod test_fixtures;

pub use faults::{fault_reports, FaultSlice};
pub use index::{index_campaign, DatasetIndex, DatasetIndexBuilder};
pub use registry::{history_reports, indexed_reports};
pub use report::FigureReport;
