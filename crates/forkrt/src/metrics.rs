//! Execution statistics reported by the runtime.

/// Per-run statistics collected by [`crate::run_live`].
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Number of workers used.
    pub workers: usize,
    /// Number of successful steals (each corresponds to one trace split in
    /// SP-hybrid; Theorem 10 bounds the expectation by O(P·T∞)).
    pub steals: u64,
    /// Number of failed steal attempts (empty or lost races).
    pub failed_steal_attempts: u64,
    /// Threads (leaves) executed by each worker.
    pub threads_per_worker: Vec<u64>,
    /// Wall-clock duration of the walk.
    pub elapsed: std::time::Duration,
    /// Token returned by the root of the walk.
    pub final_token: u64,
}

impl RunStats {
    /// Total number of threads executed.
    pub fn total_threads(&self) -> u64 {
        self.threads_per_worker.iter().sum()
    }

    /// Largest / smallest per-worker thread count ratio (a crude load-balance
    /// indicator; 1.0 is perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.threads_per_worker.iter().copied().max().unwrap_or(0);
        let min = self.threads_per_worker.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}
