//! OpenRTB-lite internal auctions.
//!
//! Every exchange-like demand partner runs its own second-price auction
//! among affiliated seats before answering a header bid request (Figure 1
//! of the paper shows these nested "RTB AUCTION (2nd best price)" boxes).
//! The same engine powers the waterfall tiers and the server-side
//! provider's remote auction.

use crate::types::Cpm;
use hb_simnet::{Dist, Rng};

/// One seat's sealed bid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeatBid {
    /// Seat index within the partner.
    pub seat: u32,
    /// Offered price.
    pub price: Cpm,
}

/// Outcome of a sealed-bid auction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuctionOutcome {
    /// The winning seat.
    pub winner: SeatBid,
    /// The price actually charged (second price, or the winner's bid when
    /// it stood alone).
    pub clearing_price: Cpm,
    /// Number of seats that submitted bids.
    pub n_bids: usize,
}

/// A second-price sealed auction among `seats` participants drawing from a
/// shared price distribution.
#[derive(Clone, Debug)]
pub struct InternalAuction<'a> {
    seats: u32,
    price: &'a Dist,
    /// Per-seat participation probability.
    pub participation: f64,
}

impl<'a> InternalAuction<'a> {
    /// Create an auction; every seat participates with probability 0.7.
    pub fn new(seats: u32, price: &'a Dist) -> InternalAuction<'a> {
        InternalAuction {
            seats,
            price,
            participation: 0.7,
        }
    }

    /// Collect seat bids.
    pub fn collect_bids(&self, rng: &mut Rng) -> Vec<SeatBid> {
        let mut bids = Vec::new();
        for seat in 0..self.seats {
            if !rng.chance(self.participation) {
                continue;
            }
            let p = self.price.sample(rng);
            if p > 0.0 {
                bids.push(SeatBid {
                    seat,
                    price: Cpm(p),
                });
            }
        }
        bids
    }

    /// Run the full auction, returning the second-price outcome.
    pub fn run_detailed(&self, rng: &mut Rng) -> Option<AuctionOutcome> {
        let mut bids = self.collect_bids(rng);
        if bids.is_empty() {
            return None;
        }
        bids.sort_by(|a, b| b.price.partial_cmp(&a.price).unwrap());
        let winner = bids[0];
        let clearing_price = if bids.len() >= 2 {
            bids[1].price
        } else {
            winner.price
        };
        Some(AuctionOutcome {
            winner,
            clearing_price,
            n_bids: bids.len(),
        })
    }

    /// Run and return just the clearing price (what leaves the partner as
    /// its outgoing header bid).
    pub fn run(&self, rng: &mut Rng) -> Option<Cpm> {
        self.run_detailed(rng).map(|o| o.clearing_price)
    }
}

/// Pick the highest-price winner among candidate `(label, price)` pairs —
/// first-price selection used by the ad server when comparing channels.
/// Deterministic tie-break: earliest candidate wins.
pub fn first_price_winner<T: Clone>(candidates: &[(T, Cpm)]) -> Option<(T, Cpm)> {
    let mut best: Option<(T, Cpm)> = None;
    for (label, price) in candidates {
        match &best {
            Some((_, b)) if b.0 >= price.0 => {}
            _ => best = Some((label.clone(), *price)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_price_charged() {
        let price = Dist::Const(0.0); // unused below
        let _ = price;
        // Deterministic: force two known bids via a custom run.
        let d = Dist::Uniform { lo: 0.1, hi: 2.0 };
        let a = InternalAuction {
            seats: 8,
            price: &d,
            participation: 1.0,
        };
        let mut rng = Rng::new(3);
        let out = a.run_detailed(&mut rng).unwrap();
        assert!(out.n_bids == 8);
        assert!(out.clearing_price.0 <= out.winner.price.0);
    }

    #[test]
    fn single_bid_pays_own_price() {
        let d = Dist::Const(0.8);
        let a = InternalAuction {
            seats: 1,
            price: &d,
            participation: 1.0,
        };
        let mut rng = Rng::new(4);
        let out = a.run_detailed(&mut rng).unwrap();
        assert_eq!(out.clearing_price, Cpm(0.8));
        assert_eq!(out.n_bids, 1);
    }

    #[test]
    fn no_participation_no_outcome() {
        let d = Dist::Const(1.0);
        let a = InternalAuction {
            seats: 5,
            price: &d,
            participation: 0.0,
        };
        let mut rng = Rng::new(5);
        assert!(a.run(&mut rng).is_none());
    }

    #[test]
    fn zero_prices_filtered() {
        let d = Dist::Const(0.0);
        let a = InternalAuction {
            seats: 5,
            price: &d,
            participation: 1.0,
        };
        let mut rng = Rng::new(6);
        assert!(a.run(&mut rng).is_none());
    }

    #[test]
    fn second_price_never_exceeds_first() {
        let d = Dist::LogNormal {
            mu: -1.5,
            sigma: 1.0,
        };
        let a = InternalAuction {
            seats: 6,
            price: &d,
            participation: 0.8,
        };
        let mut rng = Rng::new(7);
        for _ in 0..500 {
            if let Some(out) = a.run_detailed(&mut rng) {
                assert!(out.clearing_price.0 <= out.winner.price.0 + 1e-12);
            }
        }
    }

    #[test]
    fn first_price_winner_selection() {
        let c = vec![("a", Cpm(0.3)), ("b", Cpm(0.9)), ("c", Cpm(0.9))];
        let (label, price) = first_price_winner(&c).unwrap();
        assert_eq!(label, "b", "earliest among ties");
        assert_eq!(price, Cpm(0.9));
        assert!(first_price_winner::<&str>(&[]).is_none());
    }
}
