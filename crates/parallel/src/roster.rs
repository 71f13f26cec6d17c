//! Rank bookkeeping shared by the flat and the hierarchical supervisor:
//! each rank's liveness, its outstanding exchange, and the counters that
//! let a supervisor ask "who can take work?" and "is anything still out?"
//! without walking the ranks.
//!
//! A rank is *idle* when it is alive and has no exchange outstanding. The
//! idle set is a bitmap kept current by the only methods that change
//! either fact, so finding the next idle rank costs one word scan and an
//! event that hands out no work never touches a rank.

use crate::comm::NodeReport;
use gmip_tree::NodeId;
use std::ops::Range;

/// One outstanding supervisor → worker exchange.
#[derive(Debug)]
pub(crate) struct InFlight {
    /// Exchange id; guards against stale Deliver/AckTimeout events.
    pub dispatch: u64,
    /// The node being evaluated.
    pub node: NodeId,
    /// The evaluated report (None when the assignment was dropped on the
    /// wire and the worker never saw it).
    pub report: Option<NodeReport>,
}

/// Liveness bookkeeping for one rank.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankState {
    /// Currently able to accept work.
    alive: bool,
    /// A respawn event is scheduled for this rank.
    respawn_pending: bool,
    /// Permanently removed after exhausting its respawn budget.
    retired: bool,
    /// Respawns consumed so far.
    pub respawns: usize,
    /// When the current outage began (valid while down).
    pub down_since: f64,
}

impl RankState {
    pub fn alive(&self) -> bool {
        self.alive
    }

    pub fn retired(&self) -> bool {
        self.retired
    }
}

/// Every rank's [`RankState`] and outstanding exchange.
#[derive(Debug)]
pub(crate) struct Roster {
    ranks: Vec<RankState>,
    in_flight: Vec<Option<InFlight>>,
    /// Bit `w` is set iff rank `w` is alive with nothing outstanding.
    idle: Vec<u64>,
    /// Exchanges outstanding across all ranks.
    outstanding: usize,
    /// Ranks that are alive or have a respawn scheduled.
    viable: usize,
    /// Ranks retired for good, in retirement order.
    retired: Vec<usize>,
}

impl Roster {
    /// `n` fresh ranks: alive, idle, never respawned.
    pub fn new(n: usize) -> Self {
        let mut roster = Self {
            ranks: vec![RankState::default(); n],
            in_flight: (0..n).map(|_| None).collect(),
            idle: vec![0; n.div_ceil(64)],
            outstanding: 0,
            viable: n,
            retired: Vec::new(),
        };
        for w in 0..n {
            roster.ranks[w].alive = true;
            roster.refresh_idle(w);
        }
        roster
    }

    fn refresh_idle(&mut self, w: usize) {
        let bit = 1u64 << (w % 64);
        if self.ranks[w].alive && self.in_flight[w].is_none() {
            self.idle[w / 64] |= bit;
        } else {
            self.idle[w / 64] &= !bit;
        }
    }

    /// The lowest idle rank at or after `from`.
    pub fn next_idle(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.idle.get(word)? & (!0u64 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.idle.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// The idle ranks of `ranks`, ascending.
    pub fn idle_in(&self, ranks: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_idle(ranks.start), |&w| self.next_idle(w + 1))
            .take_while(move |&w| w < ranks.end)
    }

    /// Parks an exchange on idle rank `w`.
    pub fn park(&mut self, w: usize, exchange: InFlight) {
        debug_assert!(self.in_flight[w].is_none());
        self.in_flight[w] = Some(exchange);
        self.outstanding += 1;
        self.refresh_idle(w);
    }

    /// Takes whatever exchange rank `w` has outstanding.
    pub fn take(&mut self, w: usize) -> Option<InFlight> {
        let exchange = self.in_flight[w].take()?;
        self.outstanding -= 1;
        self.refresh_idle(w);
        Some(exchange)
    }

    /// Takes rank `w`'s exchange only if it is exchange `dispatch`: a stale
    /// Deliver or AckTimeout of a written-off exchange finds nothing.
    pub fn take_exchange(&mut self, w: usize, dispatch: u64) -> Option<InFlight> {
        if self.in_flight[w].as_ref()?.dispatch != dispatch {
            return None;
        }
        self.take(w)
    }

    /// Exchanges outstanding across all ranks.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Exchanges outstanding among `ranks`.
    pub fn outstanding_in(&self, ranks: Range<usize>) -> usize {
        self.in_flight[ranks].iter().flatten().count()
    }

    /// The rank dies: it stops taking work until it respawns.
    pub fn crash(&mut self, w: usize, now: f64) {
        debug_assert!(self.ranks[w].alive);
        self.ranks[w].alive = false;
        self.ranks[w].down_since = now;
        self.viable -= 1;
        self.refresh_idle(w);
    }

    /// A respawn is now scheduled for dead rank `w`.
    pub fn await_respawn(&mut self, w: usize) {
        debug_assert!(!self.ranks[w].alive && !self.ranks[w].respawn_pending);
        self.ranks[w].respawn_pending = true;
        self.viable += 1;
    }

    /// The scheduled replacement of rank `w` comes up.
    pub fn respawn(&mut self, w: usize) {
        debug_assert!(self.ranks[w].respawn_pending);
        self.ranks[w].respawn_pending = false;
        self.ranks[w].alive = true;
        self.ranks[w].respawns += 1;
        self.refresh_idle(w);
    }

    /// Dead rank `w` has exhausted its respawn budget: it never comes back.
    pub fn retire(&mut self, w: usize) {
        debug_assert!(!self.ranks[w].alive && !self.ranks[w].retired);
        self.ranks[w].retired = true;
        self.retired.push(w);
    }

    /// The ranks retired so far.
    pub fn retired(&self) -> &[usize] {
        &self.retired
    }

    /// Whether any rank other than `w` is alive or about to respawn.
    pub fn others_viable(&self, w: usize) -> bool {
        let own = self.ranks[w].alive || self.ranks[w].respawn_pending;
        self.viable > usize::from(own)
    }
}

impl std::ops::Index<usize> for Roster {
    type Output = RankState;

    fn index(&self, w: usize) -> &RankState {
        &self.ranks[w]
    }
}

impl std::ops::IndexMut<usize> for Roster {
    fn index_mut(&mut self, w: usize) -> &mut RankState {
        &mut self.ranks[w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(dispatch: u64) -> InFlight {
        InFlight {
            dispatch,
            node: 0,
            report: None,
        }
    }

    #[test]
    fn idle_set_follows_exchanges_and_liveness() {
        let mut r = Roster::new(130);
        assert_eq!(r.idle_in(0..130).count(), 130);
        assert_eq!(r.next_idle(130), None);
        r.park(0, exchange(1));
        r.park(64, exchange(2));
        r.crash(129, 5.0);
        assert_eq!(r.next_idle(0), Some(1));
        assert_eq!(r.next_idle(64), Some(65));
        assert_eq!(r.idle_in(127..130).collect::<Vec<_>>(), vec![127, 128]);
        assert_eq!((r.outstanding(), r.outstanding_in(64..130)), (2, 1));
        // A stale exchange id finds nothing; the live one frees the rank.
        assert!(r.take_exchange(64, 9).is_none());
        assert_eq!(r.take_exchange(64, 2).map(|f| f.dispatch), Some(2));
        assert_eq!(r.next_idle(64), Some(64));
        // An exchange written off while its rank is down leaves it busy.
        r.park(3, exchange(3));
        r.crash(3, 6.0);
        assert!(r.take(3).is_some());
        assert_eq!(r.next_idle(2), Some(2));
        assert_eq!(r.next_idle(3), Some(4));
        r.await_respawn(3);
        r.respawn(3);
        assert_eq!(r.next_idle(3), Some(3));
        assert_eq!((r[3].respawns, r[3].down_since), (1, 6.0));
    }

    #[test]
    fn last_viable_rank_is_noticed() {
        let mut r = Roster::new(2);
        r.crash(0, 1.0);
        assert!(r.others_viable(0));
        assert!(!r.others_viable(1));
        r.crash(1, 2.0);
        assert!(!r.others_viable(0));
        r.retire(0);
        assert!(r[0].retired() && !r[1].retired());
        assert_eq!(r.retired(), &[0]);
        r.await_respawn(1);
        assert!(r.others_viable(0));
        assert!(!r.others_viable(1));
    }
}
