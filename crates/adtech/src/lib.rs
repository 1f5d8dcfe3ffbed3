//! # hb-adtech
//!
//! The simulated ad-tech ecosystem of the header bidding reproduction:
//! demand partners running internal OpenRTB-lite auctions, a DFP-like ad
//! server with line items/floors/price buckets and an optional
//! server-to-server auction, the prebid-like header bidding wrapper with
//! its DOM event surface, and the waterfall baseline the paper compares
//! against.
//!
//! This crate *produces* the phenomena the detector (hb-core) measures;
//! hb-core never depends on it, mirroring the measurement boundary of the
//! original Chrome-extension tool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adserver;
pub mod partner;
pub mod protocol;
pub mod provider;
pub mod rtb;
pub mod session;
pub mod types;
pub mod waterfall;
pub mod wrapper;

pub use adserver::{AdServerAccount, AdServerEndpoint, DirectOrder, PresentedBid, SlotDecision};
pub use partner::{partner_endpoint, PartnerId, PartnerKind, PartnerProfile};
pub use protocol::{BidPayload, FillChannel, WinnerPayload};
pub use provider::{
    hb_bid_request, hb_bids_from, mediation_request, mediation_winner, rtb_edge_host, tier_fill,
    tier_request,
};
pub use rtb::{first_price_winner, AuctionOutcome, InternalAuction, SeatBid};
pub use session::{send_request, Delivery, HostDirectory, Net, NetOutcome, PageWorld};
pub use types::{AdSize, AdUnit, Cpm, HbFacet, SizeList};
pub use waterfall::{rtb_price_param, start_waterfall, waterfall_endpoint, WaterfallTier};
pub use wrapper::{
    begin_visit, FlowState, PartnerRef, SiteRuntime, VisitGroundTruth, WrapperConfig, CDN_HOST,
};
