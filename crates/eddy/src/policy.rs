//! Routing policies.
//!
//! The eddy asks its policy, for each routing decision, which of the
//! *candidate* modules (applicable and not yet visited) the current tuple
//! should visit next; after the visit it reports what happened. Policies
//! range from a frozen static plan (the traditional-optimizer baseline) to
//! the ticket-based lottery of Avnur & Hellerstein \[AH00\], which CACQ
//! extended and TelegraphCQ §4.3 proposes to tune further.

use tcq_common::rng::TcqRng;

/// Running per-module observations maintained by the eddy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModuleStats {
    /// Tuples routed to the module.
    pub routed: u64,
    /// Tuples the module kept (passed through).
    pub kept: u64,
    /// New tuples the module produced.
    pub produced: u64,
    /// Total nanoseconds spent inside the module's visits.
    pub nanos: u64,
}

impl ModuleStats {
    /// Fraction of routed tuples that survived (kept or replaced by
    /// outputs). Optimistic 1.0 before any observation.
    pub fn pass_rate(&self) -> f64 {
        if self.routed == 0 {
            1.0
        } else {
            (self.kept + self.produced.min(self.routed)) as f64 / self.routed as f64
        }
    }

    /// Mean cost per routed tuple in nanoseconds (1.0 before observations,
    /// so ratios stay finite).
    pub fn mean_cost(&self) -> f64 {
        if self.routed == 0 {
            1.0
        } else {
            self.nanos as f64 / self.routed as f64
        }
    }
}

/// What one visit did, reported back to the policy.
#[derive(Debug, Clone, Copy)]
pub struct ModuleObservation {
    /// Module index.
    pub module: usize,
    /// Did the module keep the original tuple?
    pub kept: bool,
    /// Number of new tuples produced.
    pub produced: usize,
    /// Time spent in `process`, nanoseconds.
    pub nanos: u64,
}

/// A routing policy: pick the next module for a tuple.
pub trait RoutingPolicy: Send {
    /// Choose one of `candidates` (non-empty, ascending module indexes).
    /// `stats` is indexed by module id.
    fn choose(&mut self, candidates: &[usize], stats: &[ModuleStats], rng: &mut TcqRng) -> usize;

    /// Learn from a completed visit. Default: stateless policy.
    fn observe(&mut self, _obs: ModuleObservation) {}

    /// Policy name for experiment reporting.
    fn name(&self) -> &'static str;
}

/// A frozen static order — the traditional query plan, used as the
/// non-adaptive baseline in the eddy experiments.
pub struct FixedPolicy {
    /// `priority[m]` = rank of module m (lower runs earlier).
    priority: Vec<usize>,
}

impl FixedPolicy {
    /// `order` lists module indexes from first to last.
    pub fn new(order: Vec<usize>) -> Self {
        let n = order.iter().copied().max().map_or(0, |m| m + 1);
        let mut priority = vec![usize::MAX; n];
        for (rank, m) in order.into_iter().enumerate() {
            priority[m] = rank;
        }
        FixedPolicy { priority }
    }
}

impl RoutingPolicy for FixedPolicy {
    fn choose(&mut self, candidates: &[usize], _stats: &[ModuleStats], _rng: &mut TcqRng) -> usize {
        *candidates
            .iter()
            .min_by_key(|&&m| self.priority.get(m).copied().unwrap_or(usize::MAX))
            .expect("candidates non-empty")
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Uniform random choice — the "no information" baseline.
#[derive(Default)]
pub struct RandomPolicy;

impl RoutingPolicy for RandomPolicy {
    fn choose(&mut self, candidates: &[usize], _stats: &[ModuleStats], rng: &mut TcqRng) -> usize {
        candidates[rng.gen_range(0..candidates.len())]
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// The ticket ("lottery") scheme of \[AH00\] §4: a module is credited a
/// ticket each time it receives a tuple and debited one for each tuple it
/// sends back to the eddy, so *selective* modules accumulate tickets and
/// win the lottery more often — tuples visit them earlier, where they drop
/// the most work. Tickets decay by a configurable factor on a fixed period
/// so the policy forgets stale selectivities and re-adapts (§4.3's
/// observation that long-running queries "are susceptible to changes over
/// time").
pub struct LotteryPolicy {
    tickets: Vec<f64>,
    decay: f64,
    decay_every: u64,
    decisions: u64,
    /// Probability of ignoring tickets and exploring uniformly.
    explore: f64,
}

impl LotteryPolicy {
    /// Default AH00-style configuration.
    pub fn new() -> Self {
        LotteryPolicy {
            tickets: Vec::new(),
            decay: 0.5,
            decay_every: 1024,
            decisions: 0,
            explore: 0.05,
        }
    }

    /// Override the decay window (smaller = faster adaptation, more noise).
    pub fn with_decay(mut self, decay: f64, every: u64) -> Self {
        self.decay = decay;
        self.decay_every = every.max(1);
        self
    }

    /// Override the exploration rate.
    pub fn with_explore(mut self, explore: f64) -> Self {
        self.explore = explore.clamp(0.0, 1.0);
        self
    }

    fn ensure(&mut self, m: usize) {
        if m >= self.tickets.len() {
            self.tickets.resize(m + 1, 0.0);
        }
    }
}

impl Default for LotteryPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingPolicy for LotteryPolicy {
    fn choose(&mut self, candidates: &[usize], _stats: &[ModuleStats], rng: &mut TcqRng) -> usize {
        self.decisions += 1;
        if self.decisions.is_multiple_of(self.decay_every) {
            for t in &mut self.tickets {
                *t *= self.decay;
            }
        }
        if let Some(&max) = candidates.iter().max() {
            self.ensure(max);
        }
        if rng.gen_bool(self.explore) {
            return candidates[rng.gen_range(0..candidates.len())];
        }
        // Lottery draw proportional to tickets, floored at 1 so starved
        // modules keep a chance.
        let weights: Vec<f64> = candidates
            .iter()
            .map(|&m| self.tickets[m].max(0.0) + 1.0)
            .collect();
        let total: f64 = weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                return candidates[i];
            }
            draw -= w;
        }
        candidates[candidates.len() - 1]
    }

    fn observe(&mut self, obs: ModuleObservation) {
        self.ensure(obs.module);
        // Credit on receive, debit on return (kept tuple or each output).
        let returned = obs.produced as f64 + if obs.kept { 1.0 } else { 0.0 };
        self.tickets[obs.module] += 1.0 - returned;
    }

    fn name(&self) -> &'static str {
        "lottery"
    }
}

/// A deterministic rank-by-benefit policy: order candidates by
/// `pass_rate`, breaking ties by mean cost — i.e. run the most selective,
/// cheapest module first, re-ranked continuously from live statistics.
/// Explores each module for a warm-up number of tuples before trusting its
/// estimates.
pub struct GreedyPolicy {
    /// Visits below which a module is considered unexplored.
    warmup: u64,
}

impl GreedyPolicy {
    /// Default warm-up of 32 tuples per module.
    pub fn new() -> Self {
        GreedyPolicy { warmup: 32 }
    }

    /// Override warm-up.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }
}

impl Default for GreedyPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingPolicy for GreedyPolicy {
    fn choose(&mut self, candidates: &[usize], stats: &[ModuleStats], rng: &mut TcqRng) -> usize {
        // Unexplored modules first (random among them), then best
        // selectivity-per-cost.
        let unexplored: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&m| stats.get(m).map_or(0, |s| s.routed) < self.warmup)
            .collect();
        if !unexplored.is_empty() {
            return unexplored[rng.gen_range(0..unexplored.len())];
        }
        *candidates
            .iter()
            .min_by(|&&a, &&b| {
                let sa = &stats[a];
                let sb = &stats[b];
                // Rank: drop-probability per unit cost, higher is better;
                // ties (e.g. two access methods that each always produce a
                // match) break toward the cheaper module — this is what
                // makes hybridized joins pick the faster access method.
                let ra = (1.0 - sa.pass_rate()) / sa.mean_cost().max(1.0);
                let rb = (1.0 - sb.pass_rate()) / sb.mean_cost().max(1.0);
                rb.partial_cmp(&ra)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        sa.mean_cost()
                            .partial_cmp(&sb.mean_cost())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
            })
            .expect("candidates non-empty")
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::rng::seeded;

    #[test]
    fn fixed_policy_respects_order() {
        let mut p = FixedPolicy::new(vec![2, 0, 1]);
        let stats = vec![ModuleStats::default(); 3];
        let mut rng = seeded(1);
        assert_eq!(p.choose(&[0, 1, 2], &stats, &mut rng), 2);
        assert_eq!(p.choose(&[0, 1], &stats, &mut rng), 0);
        assert_eq!(p.choose(&[1], &stats, &mut rng), 1);
    }

    #[test]
    fn lottery_favours_selective_module() {
        let mut p = LotteryPolicy::new().with_explore(0.0);
        let stats = vec![ModuleStats::default(); 2];
        let mut rng = seeded(7);
        // Module 0 drops everything (selective), module 1 passes everything.
        for _ in 0..200 {
            p.observe(ModuleObservation {
                module: 0,
                kept: false,
                produced: 0,
                nanos: 10,
            });
            p.observe(ModuleObservation {
                module: 1,
                kept: true,
                produced: 0,
                nanos: 10,
            });
        }
        let mut wins0 = 0;
        for _ in 0..1000 {
            if p.choose(&[0, 1], &stats, &mut rng) == 0 {
                wins0 += 1;
            }
        }
        assert!(
            wins0 > 900,
            "selective module should dominate the lottery, got {wins0}/1000"
        );
    }

    #[test]
    fn lottery_decay_enables_readaptation() {
        let mut p = LotteryPolicy::new().with_decay(0.5, 10).with_explore(0.0);
        for _ in 0..100 {
            p.observe(ModuleObservation {
                module: 0,
                kept: false,
                produced: 0,
                nanos: 1,
            });
        }
        let before = p.tickets[0];
        let stats = vec![ModuleStats::default(); 1];
        let mut rng = seeded(3);
        for _ in 0..100 {
            p.choose(&[0], &stats, &mut rng);
        }
        assert!(p.tickets[0] < before * 0.01, "tickets must decay");
    }

    #[test]
    fn greedy_ranks_by_selectivity_then_cost() {
        let mut p = GreedyPolicy::new().with_warmup(0);
        let mut rng = seeded(5);
        let mut stats = vec![ModuleStats::default(); 2];
        stats[0] = ModuleStats {
            routed: 100,
            kept: 90,
            produced: 0,
            nanos: 100,
        };
        stats[1] = ModuleStats {
            routed: 100,
            kept: 10,
            produced: 0,
            nanos: 100,
        };
        assert_eq!(p.choose(&[0, 1], &stats, &mut rng), 1);
        // Equal selectivity, module 0 cheaper.
        stats[0] = ModuleStats {
            routed: 100,
            kept: 50,
            produced: 0,
            nanos: 100,
        };
        stats[1] = ModuleStats {
            routed: 100,
            kept: 50,
            produced: 0,
            nanos: 100_000,
        };
        assert_eq!(p.choose(&[0, 1], &stats, &mut rng), 0);
    }

    #[test]
    fn greedy_explores_unvisited_modules_first() {
        let mut p = GreedyPolicy::new().with_warmup(5);
        let mut rng = seeded(5);
        let mut stats = vec![ModuleStats::default(); 2];
        stats[0] = ModuleStats {
            routed: 100,
            kept: 0,
            produced: 0,
            nanos: 1,
        };
        // module 1 unexplored -> chosen despite module 0 being perfect
        assert_eq!(p.choose(&[0, 1], &stats, &mut rng), 1);
    }

    #[test]
    fn random_policy_covers_candidates() {
        let mut p = RandomPolicy;
        let stats = vec![ModuleStats::default(); 3];
        let mut rng = seeded(11);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[p.choose(&[0, 1, 2], &stats, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pass_rate_and_cost_defaults() {
        let s = ModuleStats::default();
        assert_eq!(s.pass_rate(), 1.0);
        assert_eq!(s.mean_cost(), 1.0);
        let s = ModuleStats {
            routed: 10,
            kept: 3,
            produced: 0,
            nanos: 1000,
        };
        assert!((s.pass_rate() - 0.3).abs() < 1e-9);
        assert!((s.mean_cost() - 100.0).abs() < 1e-9);
    }
}
