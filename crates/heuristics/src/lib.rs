//! # gridsec-heuristics
//!
//! The security-driven scheduling heuristics of the paper's §2, plus the
//! immediate-mode MCT baseline the daemon serves.
//!
//! Batch-mode mapping heuristics (two-phase greedy over the whole batch):
//!
//! * [`MinMin`] — repeatedly assign the job whose *best* completion time is
//!   smallest (paper's primary heuristic).
//! * [`Sufferage`] — repeatedly assign the job that would *suffer* most if
//!   denied its best site (second-best CT − best CT).
//! * [`MaxMin`] — the Min-Min dual (assign the job whose best CT is
//!   largest); a classical Braun et al. baseline.
//!
//! Immediate mode (assign jobs one by one in batch order):
//!
//! * [`Mct`] — minimum completion time.
//!
//! Every heuristic takes a [`gridsec_core::RiskMode`] and filters
//! sites through the security model (§2's *secure*/*risky*/*f-risky*
//! modes). Jobs flagged `secure_only` (already failed once) are always
//! scheduled as if in secure mode, per the paper's fail-stop rule.
//!
//! The low-level mapping functions in [`mapping`] operate on an explicit
//! [`EtcMatrix`](gridsec_core::EtcMatrix), so they can be unit-tested
//! against arbitrary (including inconsistent) ETC matrices such as the
//! paper's Fig. 2 example.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod common;
pub mod immediate;
pub mod mapping;
pub mod maxmin;
pub mod minmin;
pub mod sufferage;

pub use common::Fallback;
pub use immediate::Mct;
pub use maxmin::MaxMin;
pub use minmin::MinMin;
pub use sufferage::Sufferage;

use gridsec_core::RiskMode;
use gridsec_sim::BatchScheduler;

/// The six security-driven heuristics evaluated by the paper (Fig. 8):
/// {Min-Min, Sufferage} × {Secure, f-Risky(0.5), Risky}, in the paper's
/// presentation order.
pub fn paper_heuristics() -> Vec<Box<dyn BatchScheduler>> {
    vec![
        Box::new(MinMin::new(RiskMode::Secure)),
        Box::new(MinMin::new(RiskMode::FRisky(RiskMode::PAPER_F))),
        Box::new(MinMin::new(RiskMode::Risky)),
        Box::new(Sufferage::new(RiskMode::Secure)),
        Box::new(Sufferage::new(RiskMode::FRisky(RiskMode::PAPER_F))),
        Box::new(Sufferage::new(RiskMode::Risky)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_six_members_in_order() {
        let hs = paper_heuristics();
        let names: Vec<String> = hs.iter().map(|h| h.name()).collect();
        assert_eq!(
            names,
            vec![
                "Min-Min Secure",
                "Min-Min 0.5-Risky",
                "Min-Min Risky",
                "Sufferage Secure",
                "Sufferage 0.5-Risky",
                "Sufferage Risky",
            ]
        );
    }
}
