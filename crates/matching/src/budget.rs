//! Search budget: bounds the number of node expansions.
//!
//! The paper keeps only "the queries whose true count can be computed in 2
//! hours" (§6.1). At laptop scale we replace wall-clock with a deterministic
//! node-expansion budget, which filters the same way while keeping workloads
//! reproducible across machines.

use std::sync::atomic::{AtomicU64, Ordering};

/// The search exceeded its expansion budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded;

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exact-count expansion budget exceeded")
    }
}

impl std::error::Error for BudgetExceeded {}

/// A shared, thread-safe expansion budget.
///
/// Each backtracking expansion charges one unit. The counter is atomic, so
/// a budget is `Sync` and may be charged from several threads at once.
#[derive(Debug)]
pub struct Budget {
    remaining: AtomicU64,
    unlimited: bool,
}

impl Budget {
    /// A budget of `n` expansions.
    pub fn new(n: u64) -> Self {
        Budget {
            remaining: AtomicU64::new(n),
            unlimited: false,
        }
    }

    /// No limit (use for small graphs and tests only).
    pub fn unlimited() -> Self {
        Budget {
            remaining: AtomicU64::new(u64::MAX),
            unlimited: true,
        }
    }

    /// Charge `n` expansions; `Err` when exhausted.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), BudgetExceeded> {
        if self.unlimited {
            return Ok(());
        }
        // fetch_sub wraps; detect underflow by comparing.
        let prev = self.remaining.fetch_sub(n, Ordering::Relaxed);
        if prev < n {
            // restore to avoid repeated wrap-around weirdness
            self.remaining.store(0, Ordering::Relaxed);
            Err(BudgetExceeded)
        } else {
            Ok(())
        }
    }

    /// Remaining units (diagnostic).
    pub fn remaining(&self) -> u64 {
        if self.unlimited {
            u64::MAX
        } else {
            self.remaining.load(Ordering::Relaxed)
        }
    }
}

impl Default for Budget {
    /// A generous default suitable for the synthetic workloads
    /// (10^8 expansions ≈ a few seconds).
    fn default() -> Self {
        Budget::new(100_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_until_exhausted() {
        let b = Budget::new(3);
        assert!(b.charge(1).is_ok());
        assert!(b.charge(2).is_ok());
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.charge(1), Err(BudgetExceeded));
        // stays exhausted
        assert_eq!(b.charge(1), Err(BudgetExceeded));
    }

    #[test]
    fn unlimited_never_fails() {
        let b = Budget::unlimited();
        for _ in 0..1000 {
            assert!(b.charge(u64::MAX / 2).is_ok());
        }
    }

    #[test]
    fn bulk_overcharge_fails_cleanly() {
        let b = Budget::new(10);
        assert_eq!(b.charge(11), Err(BudgetExceeded));
        assert_eq!(b.remaining(), 0);
    }
}
