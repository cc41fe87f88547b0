//! Max-min fair rate allocation (progressive filling / water-filling).
//!
//! Given a set of flows, each using a set of links, and per-link capacities,
//! the allocator computes the unique max-min fair rate vector: rates are
//! raised uniformly until a link saturates, flows through that link are
//! frozen at their share, and the process repeats. This is the standard
//! flow-level model of bandwidth sharing (as used by e.g. SimGrid) and is
//! how we model PCIe-bus contention, SSD reader contention and network
//! sharing without packet-level simulation.

/// One flow's demand: the links it traverses (indices into the capacity
/// slice). An empty route means the flow is not bandwidth-constrained and
/// receives [`f64::INFINITY`].
pub type Route<'a> = &'a [usize];

/// Reusable working memory for the water-filling solver.
///
/// The event-driven simulator re-solves rates at every topology change;
/// keeping the per-flow and per-link working vectors in a scratch object
/// (owned by the caller, typically a `FlowNet`) makes each solve
/// allocation-free. The solver itself is the same progressive-filling
/// arithmetic as [`max_min_rates`], so results are bit-identical.
#[derive(Debug, Default, Clone)]
pub struct MaxMinScratch {
    rate: Vec<f64>,
    remaining_cap: Vec<f64>,
    frozen: Vec<bool>,
    users: Vec<usize>,
    /// Freeze rounds of the most recent solve.
    last_rounds: u64,
}

impl MaxMinScratch {
    /// Fresh scratch space (buffers grow on first use).
    #[must_use]
    pub fn new() -> MaxMinScratch {
        MaxMinScratch::default()
    }

    /// Computes max-min fair rates over routes that are already
    /// duplicate-free (each link appears at most once per route).
    ///
    /// Returns one rate per flow, in bytes/sec, borrowed from the scratch
    /// buffer — copy it out before the next solve.
    ///
    /// # Panics
    ///
    /// Panics if a route references a link index out of bounds.
    pub fn solve_dedup(&mut self, capacities: &[f64], routes: &[&[usize]]) -> &[f64] {
        self.solve_with(capacities, routes.len(), |f| routes[f])
    }

    /// Same solve as [`Self::solve_dedup`] over flat-packed routes: flow
    /// `f`'s (duplicate-free) route is `flat[spans[f].0 as usize..spans[f].1
    /// as usize]`. This lets callers keep all routes in one pooled buffer —
    /// no per-solve `Vec<&[usize]>` — while running the exact same
    /// progressive-filling arithmetic, so results are bit-identical to
    /// [`Self::solve_dedup`].
    ///
    /// # Panics
    ///
    /// Panics if a span or link index is out of bounds.
    pub fn solve_flat(
        &mut self,
        capacities: &[f64],
        flat: &[usize],
        spans: &[(u32, u32)],
    ) -> &[f64] {
        self.solve_with(capacities, spans.len(), |f| {
            let (lo, hi) = spans[f];
            &flat[lo as usize..hi as usize]
        })
    }

    /// Water-filling freeze rounds the most recent solve took.
    #[must_use]
    pub fn last_rounds(&self) -> u64 {
        self.last_rounds
    }

    fn solve_with<'r>(
        &mut self,
        capacities: &[f64],
        n_flows: usize,
        route_of: impl Fn(usize) -> &'r [usize],
    ) -> &[f64] {
        let n_links = capacities.len();
        self.rate.clear();
        self.rate.resize(n_flows, 0.0);
        if n_flows == 0 {
            self.last_rounds = 0;
            return &self.rate;
        }
        for f in 0..n_flows {
            for &l in route_of(f) {
                assert!(l < n_links, "route references unknown link {l}");
            }
        }

        self.remaining_cap.clear();
        self.remaining_cap.extend_from_slice(capacities);
        self.frozen.clear();
        self.frozen.resize(n_flows, false);
        // Flows with empty routes are unconstrained.
        for f in 0..n_flows {
            if route_of(f).is_empty() {
                self.rate[f] = f64::INFINITY;
                self.frozen[f] = true;
            }
        }
        self.users.clear();
        self.users.resize(n_links, 0);

        let mut rounds = 0u64;
        loop {
            rounds += 1;
            // users[l] = number of unfrozen flows crossing link l.
            self.users.iter_mut().for_each(|u| *u = 0);
            for f in 0..n_flows {
                if self.frozen[f] {
                    continue;
                }
                for &l in route_of(f) {
                    self.users[l] += 1;
                }
            }
            // Find the tightest link: min over links of remaining/users.
            let mut best: Option<(f64, usize)> = None;
            for l in 0..n_links {
                if self.users[l] == 0 {
                    continue;
                }
                let fair = self.remaining_cap[l] / self.users[l] as f64;
                match best {
                    Some((b, _)) if fair >= b => {}
                    _ => best = Some((fair, l)),
                }
            }
            let Some((fair_share, bottleneck)) = best else {
                break; // no unfrozen flows remain
            };
            // Freeze every unfrozen flow crossing the bottleneck at
            // fair_share.
            let mut froze_any = false;
            for f in 0..n_flows {
                let r = route_of(f);
                if self.frozen[f] || !r.contains(&bottleneck) {
                    continue;
                }
                self.rate[f] = fair_share;
                self.frozen[f] = true;
                froze_any = true;
                for &l in r {
                    self.remaining_cap[l] = (self.remaining_cap[l] - fair_share).max(0.0);
                }
            }
            debug_assert!(froze_any, "water-filling made no progress");
            if !froze_any {
                break;
            }
        }
        self.last_rounds = rounds;
        &self.rate
    }
}

/// Computes max-min fair rates.
///
/// * `capacities[l]` — capacity of link `l` in bytes/sec;
/// * `routes[f]` — links used by flow `f` (duplicates are ignored).
///
/// Returns one rate per flow, in bytes/sec.
///
/// Each route is deduplicated once up front (the solver's freeze rounds
/// then walk the cleaned routes directly, instead of re-sorting every
/// route on every round).
///
/// # Panics
///
/// Panics if a route references a link index out of bounds.
#[must_use]
pub fn max_min_rates(capacities: &[f64], routes: &[Vec<usize>]) -> Vec<f64> {
    let deduped: Vec<Vec<usize>> = routes
        .iter()
        .map(|r| {
            let mut seen = r.clone();
            seen.sort_unstable();
            seen.dedup();
            seen
        })
        .collect();
    let refs: Vec<&[usize]> = deduped.iter().map(Vec::as_slice).collect();
    MaxMinScratch::new().solve_dedup(capacities, &refs).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_gets_full_link() {
        let rates = max_min_rates(&[100.0], &[vec![0]]);
        assert!(approx(rates[0], 100.0));
    }

    #[test]
    fn equal_flows_split_evenly() {
        let rates = max_min_rates(&[90.0], &[vec![0], vec![0], vec![0]]);
        for r in rates {
            assert!(approx(r, 30.0));
        }
    }

    #[test]
    fn bottleneck_frees_capacity_elsewhere() {
        // Flow A uses links 0+1, flow B uses link 0 only.
        // Link 0: 100, link 1: 20. A is capped at 20 by link 1, so B gets 80.
        let rates = max_min_rates(&[100.0, 20.0], &[vec![0, 1], vec![0]]);
        assert!(approx(rates[0], 20.0), "A={}", rates[0]);
        assert!(approx(rates[1], 80.0), "B={}", rates[1]);
    }

    #[test]
    fn classic_parking_lot() {
        // 3 links of cap 10; long flow crosses all, one short flow per link.
        let routes = vec![vec![0, 1, 2], vec![0], vec![1], vec![2]];
        let rates = max_min_rates(&[10.0, 10.0, 10.0], &routes);
        assert!(approx(rates[0], 5.0));
        for r in &rates[1..] {
            assert!(approx(*r, 5.0));
        }
    }

    #[test]
    fn empty_route_is_unconstrained() {
        let rates = max_min_rates(&[10.0], &[vec![], vec![0]]);
        assert!(rates[0].is_infinite());
        assert!(approx(rates[1], 10.0));
    }

    #[test]
    fn duplicate_links_in_route_counted_once() {
        let rates = max_min_rates(&[10.0], &[vec![0, 0], vec![0]]);
        assert!(approx(rates[0], 5.0));
        assert!(approx(rates[1], 5.0));
    }

    #[test]
    fn no_flows_is_empty() {
        assert!(max_min_rates(&[10.0], &[]).is_empty());
    }

    #[test]
    fn flat_solve_matches_sliced_solve_bitwise() {
        let caps = [50.0, 30.0, 70.0, 10.0];
        let routes: Vec<Vec<usize>> = vec![vec![0, 1], vec![1, 2], vec![0, 2, 3], vec![], vec![2]];
        let refs: Vec<&[usize]> = routes.iter().map(Vec::as_slice).collect();
        let mut flat = Vec::new();
        let mut spans = Vec::new();
        for r in &routes {
            let lo = flat.len() as u32;
            flat.extend_from_slice(r);
            spans.push((lo, flat.len() as u32));
        }
        let sliced = MaxMinScratch::new().solve_dedup(&caps, &refs).to_vec();
        let flat_rates = MaxMinScratch::new()
            .solve_flat(&caps, &flat, &spans)
            .to_vec();
        for (a, b) in sliced.iter().zip(&flat_rates) {
            assert_eq!(a.to_bits(), b.to_bits(), "flat solve drifted: {a} vs {b}");
        }
    }

    #[test]
    fn capacities_never_exceeded() {
        // Random-ish fixed topology, verify feasibility.
        let caps = [50.0, 30.0, 70.0, 10.0];
        let routes = vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 2, 3],
            vec![3],
            vec![2],
            vec![0],
        ];
        let rates = max_min_rates(&caps, &routes);
        for (l, &cap) in caps.iter().enumerate() {
            let load: f64 = routes
                .iter()
                .zip(&rates)
                .filter(|(r, _)| r.contains(&l))
                .map(|(_, rate)| *rate)
                .sum();
            assert!(
                load <= cap * (1.0 + 1e-9),
                "link {l} overloaded: {load} > {cap}"
            );
        }
        // Every flow is bottlenecked somewhere: its rate equals the fair
        // share of at least one saturated link it crosses (max-min property
        // checked loosely: rate > 0).
        for r in &rates {
            assert!(*r > 0.0);
        }
    }
}
