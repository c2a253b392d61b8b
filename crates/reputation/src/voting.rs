//! Vote aggregation over manager replies.
//!
//! When a node queries the `M` managers of a peer for its score, the replies
//! are aggregated with a **minimum** (Section 5.1): colluding managers can
//! only *raise* a stored score, and a lost reply cannot make a node look
//! better than its worst copy.

/// Minimum vote (the paper's choice). `None` for an empty slice.
pub fn aggregate_min(replies: &[f64]) -> Option<f64> {
    replies.iter().copied().fold(None, |acc: Option<f64>, v| {
        Some(acc.map_or(v, |a| a.min(v)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_vote_resists_inflated_copies() {
        // Two colluding managers report an inflated score; min ignores them.
        let replies = [-12.0, 40.0, 40.0, -11.5];
        assert_eq!(aggregate_min(&replies), Some(-12.0));
    }

    #[test]
    fn empty_replies_yield_none() {
        assert_eq!(aggregate_min(&[]), None);
    }

    #[test]
    fn single_reply_is_returned_verbatim() {
        assert_eq!(aggregate_min(&[-3.5]), Some(-3.5));
    }
}
