//! Sharded scenario generation: a base chain whose values are *banded*
//! by a [`ShardMap`], with a tunable fraction of cross-band updates.
//!
//! The sharded scheduler's throughput claim (experiment E18) needs a
//! workload where shard-locality is real: tuples whose values all fall
//! in one band join only within that band, so `S` bands give `S`
//! independent sweep lanes. This generator builds exactly that — every
//! relation holds per-band tuple populations drawn from disjoint value
//! ranges, updates pick a *home shard* round-robin (balanced lanes), and
//! `cross_shard_frac` of them deliberately straddle two bands to
//! exercise the escalation path.
//!
//! Every generated view runs under [`ViewPolicy::Sweep`]: one install
//! per consumed update. That makes the install fingerprint a pure
//! function of arrival order — the property E18's `conforms` check and
//! the conformance suite compare across the sharded and unsharded
//! engines even when sweeps overlap in time. (Deferred cadences also
//! flush at quiescent points, which concurrency legitimately moves; pinning
//! Sweep keeps the cross-engine comparison exact under bursts.)

use crate::multiview::{MultiViewScenario, ViewPolicy, ViewSpec};
use crate::scenario::ScheduledTxn;
use dw_relational::{
    Bag, KeySpec, RelationalError, Schema, ShardMap, Tuple, Value, ViewDefBuilder,
};
use dw_rng::Rng64;
use dw_simnet::Time;

/// Configuration for banded, shard-local scenarios.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of sources / chain relations (`n ≥ 2`).
    pub n_sources: usize,
    /// Number of shards (value bands), `1 ..= 64`.
    pub shards: usize,
    /// Width of each band: shard `s` owns values `[s·width, (s+1)·width)`.
    pub width: i64,
    /// Distinct join values actually used inside each band (≤ width;
    /// smaller → denser joins).
    pub band_domain: i64,
    /// Initial tuples per relation *per shard*.
    pub initial_per_shard: usize,
    /// Number of scheduled transactions.
    pub updates: usize,
    /// Constant inter-arrival gap (µs). Small gaps create the bursts
    /// that let per-shard lanes overlap.
    pub mean_gap: Time,
    /// Probability an update is a deletion of a live tuple (valid by
    /// construction — it removes something currently present).
    pub delete_ratio: f64,
    /// Fraction of updates whose delta straddles two bands (its lane
    /// claims both).
    pub cross_shard_frac: f64,
    /// How many views to register (full-span, SWEEP cadence).
    pub n_views: usize,
    /// RNG seed — same seed, same scenario.
    pub seed: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            n_sources: 3,
            shards: 2,
            width: 1_000,
            band_domain: 12,
            initial_per_shard: 12,
            updates: 24,
            mean_gap: 400,
            delete_ratio: 0.2,
            cross_shard_frac: 0.0,
            n_views: 2,
            seed: 7,
        }
    }
}

/// A generated sharded scenario: the multi-view scenario plus the
/// partitioner that bands it.
#[derive(Clone, Debug)]
pub struct ShardedScenario {
    /// Base chain, initial contents, txns, and view specs.
    pub scenario: MultiViewScenario,
    /// The partitioner the scheduler (and E18) should use.
    pub map: ShardMap,
}

impl ShardedConfig {
    /// Band-local value: shard `s`, offset drawn below `band_domain`.
    fn band_value(&self, s: usize, r: &mut Rng64) -> i64 {
        s as i64 * self.width + r.u64_below(self.band_domain.max(1) as u64) as i64
    }

    /// One tuple pure in shard `s`.
    fn pure_tuple(&self, s: usize, r: &mut Rng64) -> Tuple {
        Tuple::new(vec![
            Value::Int(self.band_value(s, r)),
            Value::Int(self.band_value(s, r)),
        ])
    }

    /// Generate the banded scenario.
    pub fn generate(&self) -> Result<ShardedScenario, RelationalError> {
        assert!(self.n_sources >= 2, "need a chain to sweep");
        assert!((1..=64).contains(&self.shards), "shards must be in 1..=64");
        assert!(
            self.band_domain <= self.width,
            "band_domain must fit inside the band width"
        );
        let n = self.n_sources;
        let map = ShardMap::range(self.width, self.shards);
        let mut r = Rng64::new(self.seed ^ 0x5AAD_ED00);

        // Base chain R1[A,B] ⋈ … ⋈ Rn[A,B] on R_k.B = R_{k+1}.A.
        let mut b = ViewDefBuilder::new();
        for k in 0..n {
            b = b.relation(Schema::new(format!("R{}", k + 1), ["A", "B"])?);
        }
        let mut prev: Option<String> = None;
        for k in 0..n {
            let name = format!("R{}", k + 1);
            if let Some(p) = prev {
                b = b.join(format!("{p}.B"), format!("{name}.A"));
            }
            prev = Some(name);
        }
        let base = b.build()?;

        // Initial contents: per relation, a pure population per band.
        let mut initial = Vec::with_capacity(n);
        let mut live: Vec<Vec<Vec<Tuple>>> = Vec::with_capacity(n); // [rel][shard]
        for _ in 0..n {
            let mut bag = Bag::new();
            let mut rel_live = vec![Vec::new(); self.shards];
            for (s, shard_live) in rel_live.iter_mut().enumerate() {
                for _ in 0..self.initial_per_shard {
                    let t = self.pure_tuple(s, &mut r);
                    bag.add(t.clone(), 1);
                    shard_live.push(t);
                }
            }
            initial.push(bag);
            live.push(rel_live);
        }

        // Transactions: home shard round-robin, constant gaps, a
        // configurable slice of cross-band escalators.
        let mut txns = Vec::with_capacity(self.updates);
        for k in 0..self.updates {
            let at = (k as Time + 1) * self.mean_gap;
            let source = r.usize_below(n);
            let home = k % self.shards;
            let delta = if self.shards > 1 && r.chance(self.cross_shard_frac) {
                // Straddle home and the next band: one impure tuple.
                let other = (home + 1) % self.shards;
                let t = Tuple::new(vec![
                    Value::Int(self.band_value(home, &mut r)),
                    Value::Int(self.band_value(other, &mut r)),
                ]);
                Bag::from_pairs([(t, 1)])
            } else if r.chance(self.delete_ratio) && !live[source][home].is_empty() {
                let idx = r.usize_below(live[source][home].len());
                let t = live[source][home].swap_remove(idx);
                Bag::from_pairs([(t, -1)])
            } else {
                let t = self.pure_tuple(home, &mut r);
                live[source][home].push(t.clone());
                Bag::from_pairs([(t, 1)])
            };
            txns.push(ScheduledTxn {
                at,
                source,
                delta,
                global: None,
            });
        }

        let views = (0..self.n_views)
            .map(|v| ViewSpec {
                policy: ViewPolicy::Sweep,
                ..ViewSpec::full(format!("V{v}"), n)
            })
            .collect();

        Ok(ShardedScenario {
            scenario: MultiViewScenario {
                base,
                keys: KeySpec::new(vec![Vec::new(); n]),
                initial,
                txns,
                views,
                derived: Vec::new(),
            },
            map,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_local_scenarios_are_fully_pure() {
        let g = ShardedConfig {
            shards: 4,
            updates: 40,
            cross_shard_frac: 0.0,
            seed: 11,
            ..Default::default()
        }
        .generate()
        .unwrap();
        assert_eq!(g.map.shards(), 4);
        for bag in &g.scenario.initial {
            for (t, _) in bag.iter() {
                let bands = g.map.tuple_bands(t);
                assert_eq!(bands.count_ones(), 1, "impure initial tuple");
            }
        }
        let mut seen = vec![0usize; 4];
        for txn in &g.scenario.txns {
            let (bands, impure) = g.map.delta_bands(&txn.delta);
            assert_eq!(bands.count_ones(), 1, "local workload touched {bands:#b}");
            assert!(impure.is_empty());
            seen[bands.trailing_zeros() as usize] += 1;
        }
        // Round-robin homes: every shard carries load.
        assert!(seen.iter().all(|&c| c >= 40 / 4 - 1), "{seen:?}");
    }

    #[test]
    fn cross_shard_fraction_escalates() {
        let g = ShardedConfig {
            shards: 2,
            updates: 60,
            cross_shard_frac: 0.3,
            seed: 13,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let impure = g
            .scenario
            .txns
            .iter()
            .filter(|t| g.map.delta_bands(&t.delta).0.count_ones() > 1)
            .count();
        assert!((6..=30).contains(&impure), "impure={impure}");
    }

    #[test]
    fn deletes_remove_live_tuples_only() {
        let g = ShardedConfig {
            delete_ratio: 0.5,
            updates: 50,
            seed: 17,
            ..Default::default()
        }
        .generate()
        .unwrap();
        // Replay per-relation shadows; no count may go negative.
        let mut shadows = g.scenario.initial.clone();
        let mut any_delete = false;
        for txn in &g.scenario.txns {
            shadows[txn.source].merge(&txn.delta);
            if txn.delta.iter().any(|(_, c)| c < 0) {
                any_delete = true;
            }
            assert!(shadows[txn.source].all_positive(), "negative count");
        }
        assert!(any_delete, "delete_ratio 0.5 produced no deletes");
    }

    #[test]
    fn views_are_sweep_cadence_full_span() {
        let g = ShardedConfig::default().generate().unwrap();
        assert_eq!(g.scenario.views.len(), 2);
        for spec in &g.scenario.views {
            assert_eq!(spec.policy, ViewPolicy::Sweep);
            assert_eq!((spec.lo, spec.hi), (0, g.scenario.base.num_relations() - 1));
            spec.compile(&g.scenario.base).unwrap();
        }
    }
}
