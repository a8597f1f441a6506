//! The analytical cost model (the paper's \[Yur97] companion analysis,
//! reconstructed): closed-form predictions for message counts, sweep
//! latency, interference, and Nested SWEEP batch sizes, validated against
//! the simulator in the `analytic_model` experiment binary.
//!
//! Model assumptions (matching the simulator defaults it is checked
//! against): `n` sources, constant one-way link latency `L`, updates
//! arriving as a Poisson process with rate `λ` *per source*, update source
//! chosen uniformly.

/// Messages per update for SWEEP: one query + one answer per other source.
pub fn sweep_messages(n: usize) -> u64 {
    2 * (n as u64 - 1)
}

/// Sequential sweep duration for an update at chain position `i`
/// (0-based): every one of the `n−1` queries is a full round-trip `2L`.
pub fn sweep_duration_seq(n: usize, latency_us: u64) -> u64 {
    (n as u64 - 1) * 2 * latency_us
}

/// Offered load of the SWEEP server: updates arrive at aggregate rate
/// `n·λ` and each occupies the (serial) warehouse for a full sweep.
pub fn sweep_utilization(n: usize, lambda_per_us: f64, latency_us: u64) -> f64 {
    n as f64 * lambda_per_us * sweep_duration_seq(n, latency_us) as f64
}

/// Mean queue wait of the SWEEP server (M/D/1: Poisson arrivals,
/// deterministic service `T = 2L(n−1)`): `W_q = ρT / 2(1−ρ)`; infinite at
/// or beyond saturation.
pub fn sweep_queue_wait(n: usize, lambda_per_us: f64, latency_us: u64) -> f64 {
    let t = sweep_duration_seq(n, latency_us) as f64;
    let rho = sweep_utilization(n, lambda_per_us, latency_us);
    if rho >= 1.0 {
        f64::INFINITY
    } else {
        rho * t / (2.0 * (1.0 - rho))
    }
}

/// Refined compensation prediction including queueing: the interference
/// window for the `s`-th queried source spans the update's queue wait plus
/// `s` round-trips (any update from that source delivered since this
/// update entered the queue is compensated):
/// `E[comp] = Σ_{s=1}^{n−1} (1 − e^{−λ(W_q + s·2L)})` — saturating to
/// `n−1` beyond ρ = 1.
pub fn sweep_compensations_per_update_queued(n: usize, lambda_per_us: f64, latency_us: u64) -> f64 {
    let wq = sweep_queue_wait(n, lambda_per_us, latency_us);
    if !wq.is_finite() {
        return n as f64 - 1.0;
    }
    (1..n)
        .map(|s| 1.0 - (-lambda_per_us * (wq + (s as f64) * 2.0 * latency_us as f64)).exp())
        .sum()
}

/// Expected updates folded into one Nested SWEEP install (first order).
///
/// A composite sweep of batch size `B` lasts roughly the base sweep `T`
/// plus one recursion segment (average length `n/2` hops) per absorbed
/// update; the batch absorbs everything arriving while it runs, so `B`
/// solves `B = 1 + Λ·(T + (B−1)·(n/2)·2L)` — the busy-period fixed point.
/// Diverges (run-length-bounded) when `Λ·(n/2)·2L ≥ 1`.
pub fn nested_batch_size(n: usize, lambda_per_us: f64, latency_us: u64) -> f64 {
    let total_rate = n as f64 * lambda_per_us;
    let t = sweep_duration_seq(n, latency_us) as f64;
    let seg = (n as f64 / 2.0) * 2.0 * latency_us as f64;
    let denom = 1.0 - total_rate * seg;
    if denom <= 0.0 {
        return f64::INFINITY;
    }
    (1.0 + total_rate * (t - seg)) / denom
}

/// Predicted Nested SWEEP messages per update: the composite sweep costs
/// one base SWEEP (`2(n−1)` messages) plus one recursion segment per
/// absorbed update (average `n/2` hops = `n` messages), amortized over the
/// batch: `(2(n−1) + (B−1)·n) / B`. As `B → ∞` this tends to `n` — the
/// amortization floor set by the recursion work itself.
pub fn nested_messages_per_update(n: usize, lambda_per_us: f64, latency_us: u64) -> f64 {
    let b = nested_batch_size(n, lambda_per_us, latency_us);
    if !b.is_finite() {
        return n as f64; // asymptotic floor
    }
    (sweep_messages(n) as f64 + (b - 1.0) * n as f64) / b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_messages_formula() {
        assert_eq!(sweep_messages(2), 2);
        assert_eq!(sweep_messages(5), 8);
        assert_eq!(sweep_messages(16), 30);
    }

    #[test]
    fn durations() {
        assert_eq!(sweep_duration_seq(4, 1_000), 6_000);
    }

    #[test]
    fn batch_size_grows_with_load() {
        let low = nested_batch_size(3, 1e-7, 1_000);
        let high = nested_batch_size(3, 5e-5, 1_000);
        assert!(low < high);
        assert!((low - 1.0).abs() < 0.01, "near-idle batches are single");
        assert!(nested_batch_size(3, 1.0, 1_000).is_infinite());
    }

    #[test]
    fn queue_wait_behaviour() {
        assert!(sweep_queue_wait(4, 1e-9, 2_000) < 1.0);
        let mid = sweep_queue_wait(4, 2e-5, 2_000); // ρ ≈ 0.96
        assert!(mid.is_finite() && mid > 10_000.0);
        assert!(sweep_queue_wait(4, 1e-4, 2_000).is_infinite());
    }

    #[test]
    fn queued_compensations_saturate_at_n_minus_1() {
        let sat = sweep_compensations_per_update_queued(4, 1e-3, 2_000);
        assert_eq!(sat, 3.0);
        let low = sweep_compensations_per_update_queued(4, 1e-7, 2_000);
        assert!(low < 0.01);
        let mid = sweep_compensations_per_update_queued(4, 1e-5, 2_000);
        assert!(low < mid && mid < sat);
    }

    #[test]
    fn nested_messages_bounded_by_sweep_and_floor() {
        // Near-idle: equals SWEEP. Saturated: tends to the n-message floor.
        let idle = nested_messages_per_update(4, 1e-9, 2_000);
        assert!((idle - sweep_messages(4) as f64).abs() < 0.01);
        let sat = nested_messages_per_update(4, 1e-3, 2_000);
        assert_eq!(sat, 4.0);
        let mid = nested_messages_per_update(4, 1e-5, 2_000);
        assert!(sat <= mid && mid <= idle);
    }
}
