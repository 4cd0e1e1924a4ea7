//! Cooperative hard-watchdog deadline token.
//!
//! PR 3's `--watchdog` was a *soft* budget: the runner recorded
//! `watchdog_exceeded` after a cell finished, but a runaway simulation
//! still ran to completion (or to the two-billion-cycle limit). This
//! module upgrades it to a *hard* cooperative deadline: the driver arms
//! a wall-clock [`Instant`] for the current thread, and the simulator's
//! run loop polls it every few thousand steps, cancelling the run with
//! a structured [`SimError::Timeout`](crate::SimError) the moment the
//! deadline passes.
//!
//! The deadline is a thread-local token rather than a
//! [`ProcessorConfig`](crate::ProcessorConfig) field on purpose:
//! configurations are hashed and compared as cache keys (the in-process
//! and on-disk result stores key simulations on the configuration's
//! canonical form), and a wall-clock deadline must never change a key
//! or make two otherwise-identical runs distinct. A simulation runs on
//! the thread that armed its deadline.
//!
//! Arming uses an RAII guard so a panicking or early-returning cell
//! can never leak its deadline into the next cell scheduled on the
//! same pool thread.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The deadline armed for the current thread, if any. The simulator
/// reads this once per run and polls it cooperatively.
#[must_use]
pub fn deadline() -> Option<Instant> {
    DEADLINE.with(Cell::get)
}

/// Arms `deadline` for the current thread until the returned guard is
/// dropped (restoring whatever was armed before — guards nest).
#[must_use]
pub fn arm(deadline: Option<Instant>) -> WatchdogGuard {
    let previous = DEADLINE.with(|d| d.replace(deadline));
    WatchdogGuard { previous }
}

/// Arms a deadline `budget` from now for the current thread.
#[must_use]
pub fn arm_for(budget: Duration) -> WatchdogGuard {
    arm(Some(Instant::now() + budget))
}

/// Restores the previously-armed deadline on drop (see [`arm`]).
pub struct WatchdogGuard {
    previous: Option<Instant>,
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_restores_the_previous_deadline() {
        assert_eq!(deadline(), None);
        let outer = Instant::now() + Duration::from_secs(60);
        let g1 = arm(Some(outer));
        assert_eq!(deadline(), Some(outer));
        {
            let inner = Instant::now() + Duration::from_secs(1);
            let _g2 = arm(Some(inner));
            assert_eq!(deadline(), Some(inner));
        }
        assert_eq!(deadline(), Some(outer));
        drop(g1);
        assert_eq!(deadline(), None);
    }

    #[test]
    fn arm_for_sets_a_future_deadline() {
        let _g = arm_for(Duration::from_secs(3600));
        let d = deadline().expect("armed");
        assert!(d > Instant::now());
    }
}
