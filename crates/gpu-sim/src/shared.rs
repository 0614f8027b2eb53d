//! The cooperative stop flag shared between a run and its caller.

use std::sync::atomic::{AtomicBool, Ordering};

/// Cooperative termination flag checked by a solver unit between batches.
#[derive(Debug, Default)]
pub struct StopFlag {
    flag: AtomicBool,
}

impl StopFlag {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request termination.
    #[inline]
    pub fn stop(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has termination been requested?
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_flag_transitions_once() {
        let f = StopFlag::new();
        assert!(!f.is_stopped());
        f.stop();
        assert!(f.is_stopped());
        f.stop(); // idempotent
        assert!(f.is_stopped());
    }
}
