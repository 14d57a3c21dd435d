//! The design-space description: per-axis candidate values with pruning.

use tilelink::{CommMapping, OverlapConfig, TileOrder, TileShape, TransferMode};

use crate::CostOracle;

/// A named cross-axis validity constraint (see [`SearchSpace::with_constraint`]).
///
/// The predicate is a plain `fn` pointer so spaces stay `Clone`/`PartialEq`
/// and searches stay deterministic. Equality compares the *name* only
/// (function-pointer comparison is not meaningful), so give distinct
/// constraints distinct names.
#[derive(Debug, Clone, Copy)]
pub struct AxisConstraint {
    /// Human-readable name, e.g. `"ring-requires-push"`.
    pub name: &'static str,
    /// Returns `true` if the configuration satisfies the constraint.
    pub pred: fn(&OverlapConfig) -> bool,
}

impl PartialEq for AxisConstraint {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

/// Built-in constraint: [`TileOrder::Ring`] only combines with
/// [`TransferMode::Push`] (ring schedules forward partial results to a
/// neighbour, which is inherently a push; a pull-mode ring would deadlock on
/// real hardware and only "works" in the simulator by accident).
pub const RING_REQUIRES_PUSH: AxisConstraint = AxisConstraint {
    name: "ring-requires-push",
    pred: |cfg| cfg.order != TileOrder::Ring || cfg.mode == TransferMode::Push,
};

/// A builder over the seven axes of the overlap design space.
///
/// Every axis starts from the corresponding [`OverlapConfig::default`] value;
/// builder methods replace one axis with a list of candidates. The full space
/// is the cartesian product of the axes, enumerated in a fixed nested-loop
/// order (so searches are deterministic). Both search strategies admit a
/// combination through one check (see [`SearchSpace::candidates`]):
/// [`OverlapConfig::validate`], then the space's own cross-axis constraints
/// ([`SearchSpace::with_constraint`]), then the oracle's
/// [`CostOracle::is_supported`][crate::CostOracle::is_supported] predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    comm_tiles: Vec<TileShape>,
    compute_tiles: Vec<TileShape>,
    orders: Vec<TileOrder>,
    modes: Vec<TransferMode>,
    mappings: Vec<CommMapping>,
    channels: Vec<usize>,
    stages: Vec<usize>,
    constraints: Vec<AxisConstraint>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        let d = OverlapConfig::default();
        Self {
            comm_tiles: vec![d.comm_tile],
            compute_tiles: vec![d.compute_tile],
            orders: vec![d.order],
            modes: vec![d.mode],
            mappings: vec![d.comm_mapping],
            channels: vec![d.channels_per_rank],
            stages: vec![d.num_stages],
            constraints: Vec::new(),
        }
    }
}

impl SearchSpace {
    /// A space holding only the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard space used by the `tuned_*` workload constructors: the
    /// tile shapes, orders, transfer modes and resource mappings the paper
    /// sweeps in its evaluation (Sections 3.1 and 7), 648 combinations before
    /// pruning. Carries [`RING_REQUIRES_PUSH`], so the pull-mode ring
    /// combinations (which would deadlock on real hardware) are excluded
    /// up front instead of wasting simulation budget.
    pub fn standard() -> Self {
        Self::new()
            .with_comm_tiles([
                TileShape::new(64, 64),
                TileShape::new(128, 128),
                TileShape::new(256, 128),
            ])
            .with_compute_tiles([
                TileShape::new(64, 128),
                TileShape::new(128, 128),
                TileShape::new(128, 256),
            ])
            .with_orders([TileOrder::AllToAll, TileOrder::Ring])
            .with_modes([TransferMode::Pull, TransferMode::Push])
            .with_mappings([
                CommMapping::CopyEngine,
                CommMapping::Sm { sms: 8 },
                CommMapping::Sm { sms: 20 },
                CommMapping::Sm { sms: 40 },
                CommMapping::Hybrid { sms: 8 },
                CommMapping::Hybrid { sms: 20 },
            ])
            .with_channels([4])
            .with_stages([2, 3, 4])
            .with_constraint(RING_REQUIRES_PUSH)
    }

    /// Replaces the communication-tile axis.
    pub fn with_comm_tiles(mut self, tiles: impl IntoIterator<Item = TileShape>) -> Self {
        self.comm_tiles = tiles.into_iter().collect();
        self
    }

    /// Replaces the computation-tile axis.
    pub fn with_compute_tiles(mut self, tiles: impl IntoIterator<Item = TileShape>) -> Self {
        self.compute_tiles = tiles.into_iter().collect();
        self
    }

    /// Replaces the tile-order axis.
    pub fn with_orders(mut self, orders: impl IntoIterator<Item = TileOrder>) -> Self {
        self.orders = orders.into_iter().collect();
        self
    }

    /// Replaces the transfer-mode axis.
    pub fn with_modes(mut self, modes: impl IntoIterator<Item = TransferMode>) -> Self {
        self.modes = modes.into_iter().collect();
        self
    }

    /// Replaces the resource-mapping axis.
    pub fn with_mappings(mut self, mappings: impl IntoIterator<Item = CommMapping>) -> Self {
        self.mappings = mappings.into_iter().collect();
        self
    }

    /// Replaces the channels-per-rank axis.
    pub fn with_channels(mut self, channels: impl IntoIterator<Item = usize>) -> Self {
        self.channels = channels.into_iter().collect();
        self
    }

    /// Replaces the pipeline-stage axis.
    pub fn with_stages(mut self, stages: impl IntoIterator<Item = usize>) -> Self {
        self.stages = stages.into_iter().collect();
        self
    }

    /// Adds a cross-axis validity constraint; configurations violating it are
    /// pruned at enumeration time, before any compile or simulation attempt.
    ///
    /// Use this for axis pairs that can never combine (e.g.
    /// [`RING_REQUIRES_PUSH`]): pruning up front keeps them out of oracle
    /// calls entirely, instead of relying on per-candidate compile failures.
    ///
    /// ```
    /// use tilelink_tune::{SearchSpace, RING_REQUIRES_PUSH};
    /// use tilelink::{OverlapConfig, TileOrder};
    ///
    /// let space = SearchSpace::new().with_constraint(RING_REQUIRES_PUSH);
    /// let ring_pull = OverlapConfig::default().with_order(TileOrder::Ring);
    /// assert!(!space.allows(&ring_pull));
    /// ```
    pub fn with_constraint(mut self, constraint: AxisConstraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// The cross-axis constraints of this space.
    pub fn constraints(&self) -> &[AxisConstraint] {
        &self.constraints
    }

    /// Returns `true` if `cfg` satisfies every cross-axis constraint.
    pub fn allows(&self, cfg: &OverlapConfig) -> bool {
        self.constraints.iter().all(|c| (c.pred)(cfg))
    }

    /// Number of combinations before pruning.
    pub fn len_unpruned(&self) -> usize {
        self.comm_tiles.len()
            * self.compute_tiles.len()
            * self.orders.len()
            * self.modes.len()
            * self.mappings.len()
            * self.channels.len()
            * self.stages.len()
    }

    /// Candidate values of one axis applied to a base config, in axis order.
    ///
    /// This is what the beam strategy sweeps: axis index `i` (0..7) yields one
    /// variant per candidate value of that axis, all other axes held at
    /// `base`'s values.
    pub(crate) fn axis_variants(&self, axis: usize, base: &OverlapConfig) -> Vec<OverlapConfig> {
        match axis {
            0 => self
                .comm_tiles
                .iter()
                .map(|&t| base.with_comm_tile(t))
                .collect(),
            1 => self
                .compute_tiles
                .iter()
                .map(|&t| base.with_compute_tile(t))
                .collect(),
            2 => self.orders.iter().map(|&o| base.with_order(o)).collect(),
            3 => self.modes.iter().map(|&m| base.with_mode(m)).collect(),
            4 => self
                .mappings
                .iter()
                .map(|&m| base.with_comm_mapping(m))
                .collect(),
            5 => self
                .channels
                .iter()
                .map(|&c| {
                    let mut cfg = *base;
                    cfg.channels_per_rank = c;
                    cfg
                })
                .collect(),
            6 => self
                .stages
                .iter()
                .map(|&s| {
                    let mut cfg = *base;
                    cfg.num_stages = s;
                    cfg
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Number of axes (for the beam sweep).
    pub(crate) const NUM_AXES: usize = 7;

    /// A representative seed config: the first value of every axis.
    pub(crate) fn seed(&self) -> OverlapConfig {
        OverlapConfig {
            comm_tile: self.comm_tiles[0],
            compute_tile: self.compute_tiles[0],
            order: self.orders[0],
            mode: self.modes[0],
            comm_mapping: self.mappings[0],
            channels_per_rank: self.channels[0],
            num_stages: self.stages[0],
        }
    }

    /// Every combination of the axes, before admission, in the fixed
    /// nested-loop order: the communication tile varies slowest, the stage
    /// count fastest.
    pub(crate) fn configs(&self) -> impl Iterator<Item = OverlapConfig> + '_ {
        (0..self.len_unpruned()).map(move |mut i| {
            let mut pick = |len: usize| {
                let j = i % len;
                i /= len;
                j
            };
            let num_stages = self.stages[pick(self.stages.len())];
            let channels_per_rank = self.channels[pick(self.channels.len())];
            let comm_mapping = self.mappings[pick(self.mappings.len())];
            let mode = self.modes[pick(self.modes.len())];
            let order = self.orders[pick(self.orders.len())];
            let compute_tile = self.compute_tiles[pick(self.compute_tiles.len())];
            let comm_tile = self.comm_tiles[pick(self.comm_tiles.len())];
            OverlapConfig {
                comm_tile,
                compute_tile,
                order,
                mode,
                comm_mapping,
                channels_per_rank,
                num_stages,
            }
        })
    }

    /// The admission check every search runs on a configuration before
    /// pricing it: [`OverlapConfig::validate`] for the oracle's GPU, then the
    /// space's cross-axis constraints, then the oracle's
    /// [`CostOracle::is_supported`] predicate. Names the first stage that
    /// rejects `cfg`.
    pub(crate) fn admit(
        &self,
        oracle: &dyn CostOracle,
        cfg: &OverlapConfig,
    ) -> Result<(), Rejected> {
        if cfg.validate(oracle.cluster().gpu.sm_count).is_err() {
            Err(Rejected::Validate)
        } else if !self.allows(cfg) || !oracle.is_supported(cfg) {
            Err(Rejected::Constraint)
        } else {
            Ok(())
        }
    }

    /// Every admitted candidate for `oracle`, in the deterministic
    /// enumeration order both search strategies share. A candidate is
    /// admitted when [`OverlapConfig::validate`] accepts it for the oracle's
    /// GPU, every cross-axis constraint of the space allows it, and the
    /// oracle's `is_supported` predicate holds; the tuner runs this same
    /// check, once per configuration, and counts each rejection in its
    /// [`FailedBreakdown`](crate::FailedBreakdown) stage.
    pub fn candidates(&self, oracle: &dyn CostOracle) -> Vec<OverlapConfig> {
        self.configs()
            .filter(|cfg| self.admit(oracle, cfg).is_ok())
            .collect()
    }
}

/// The admission stage that rejected a configuration (see
/// [`SearchSpace::admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rejected {
    /// [`OverlapConfig::validate`] failed: impossible on the oracle's GPU
    /// (e.g. more communication SMs than the chip has).
    Validate,
    /// A cross-axis constraint of the space or the oracle's
    /// [`CostOracle::is_supported`] predicate rejected it.
    Constraint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnOracle;
    use tilelink::OverlapReport;
    use tilelink_sim::ClusterSpec;

    fn unit_oracle() -> impl CostOracle {
        FnOracle::new("t", ClusterSpec::h800_node(8), |_| {
            Ok(OverlapReport::new(1.0, 0.5, 0.5))
        })
    }

    #[test]
    fn default_space_is_the_default_config() {
        let space = SearchSpace::new();
        assert_eq!(space.len_unpruned(), 1);
        let cands = space.candidates(&unit_oracle());
        assert_eq!(cands, vec![OverlapConfig::default()]);
        assert_eq!(space.seed(), OverlapConfig::default());
    }

    #[test]
    fn standard_space_has_documented_size() {
        let space = SearchSpace::standard();
        assert_eq!(space.len_unpruned(), (3 * 3 * 2 * 2 * 6) * 3);
    }

    #[test]
    fn invalid_configs_are_pruned_by_validate() {
        // 200 comm SMs exceed the 132 SMs of an H800: those candidates vanish.
        let space = SearchSpace::new()
            .with_mappings([CommMapping::Sm { sms: 20 }, CommMapping::Sm { sms: 200 }]);
        let cands = space.candidates(&unit_oracle());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].comm_mapping, CommMapping::Sm { sms: 20 });
    }

    #[test]
    fn unsupported_configs_are_pruned_by_the_oracle() {
        let oracle = FnOracle::new("t", ClusterSpec::h800_node(8), |_| {
            Ok(OverlapReport::new(1.0, 0.5, 0.5))
        })
        .with_support(|cfg: &OverlapConfig| cfg.num_stages != 3);
        let space = SearchSpace::new().with_stages([2, 3, 4]);
        let stages: Vec<usize> = space
            .candidates(&oracle)
            .iter()
            .map(|c| c.num_stages)
            .collect();
        assert_eq!(stages, vec![2, 4]);
    }

    #[test]
    fn counted_enumeration_attributes_every_rejection() {
        use tilelink::{TileOrder, TransferMode};
        // 2 mappings × 2 orders × 2 modes = 8 combos: 4 fail validate
        // (Sm{200} > 132 SMs), ring+pull of the valid mapping is pruned by the
        // constraint, 3 survive.
        let space = SearchSpace::new()
            .with_mappings([CommMapping::Sm { sms: 20 }, CommMapping::Sm { sms: 200 }])
            .with_orders([TileOrder::AllToAll, TileOrder::Ring])
            .with_modes([TransferMode::Pull, TransferMode::Push])
            .with_constraint(crate::RING_REQUIRES_PUSH);
        let oracle = unit_oracle();
        let verdicts: Vec<_> = space.configs().map(|c| space.admit(&oracle, &c)).collect();
        let count = |v: Result<(), Rejected>| verdicts.iter().filter(|&&x| x == v).count();
        assert_eq!(count(Ok(())), 3);
        assert_eq!(count(Err(Rejected::Validate)), 4);
        assert_eq!(count(Err(Rejected::Constraint)), 1);
        assert_eq!(verdicts.len(), space.len_unpruned());
        let admitted: Vec<OverlapConfig> = space
            .configs()
            .filter(|c| space.admit(&oracle, c).is_ok())
            .collect();
        assert_eq!(admitted, space.candidates(&oracle));
    }

    #[test]
    fn enumeration_is_the_nested_loop_order() {
        // The communication tile varies slowest and the stage count fastest.
        let space = SearchSpace::new()
            .with_comm_tiles([TileShape::new(64, 64), TileShape::new(128, 128)])
            .with_stages([2, 3, 4]);
        let order: Vec<(usize, usize)> = space
            .configs()
            .map(|c| (c.comm_tile.m, c.num_stages))
            .collect();
        assert_eq!(
            order,
            vec![(64, 2), (64, 3), (64, 4), (128, 2), (128, 3), (128, 4)]
        );
        assert_eq!(space.configs().next(), Some(space.seed()));
    }

    #[test]
    fn cross_axis_constraints_prune_at_enumeration_time() {
        use tilelink::{TileOrder, TransferMode};
        let space = SearchSpace::new()
            .with_orders([TileOrder::AllToAll, TileOrder::Ring])
            .with_modes([TransferMode::Pull, TransferMode::Push]);
        // Without the constraint all four pairs enumerate.
        assert_eq!(space.candidates(&unit_oracle()).len(), 4);
        let constrained = space.with_constraint(crate::RING_REQUIRES_PUSH);
        let cands = constrained.candidates(&unit_oracle());
        assert_eq!(cands.len(), 3, "ring+pull must be pruned");
        assert!(cands
            .iter()
            .all(|c| c.order != TileOrder::Ring || c.mode == TransferMode::Push));
        assert!(!constrained.allows(&OverlapConfig::default().with_order(TileOrder::Ring)));
        assert_eq!(constrained.constraints().len(), 1);
        assert_eq!(constrained.constraints()[0].name, "ring-requires-push");
    }

    #[test]
    fn constraints_compose() {
        let space = SearchSpace::new()
            .with_stages([2, 3, 4])
            .with_constraint(AxisConstraint {
                name: "even-stages",
                pred: |cfg| cfg.num_stages % 2 == 0,
            })
            .with_constraint(AxisConstraint {
                name: "shallow",
                pred: |cfg| cfg.num_stages < 4,
            });
        let stages: Vec<usize> = space
            .candidates(&unit_oracle())
            .iter()
            .map(|c| c.num_stages)
            .collect();
        assert_eq!(stages, vec![2]);
    }

    #[test]
    fn enumeration_order_is_deterministic() {
        let space = SearchSpace::standard();
        let a = space.candidates(&unit_oracle());
        let b = space.candidates(&unit_oracle());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn axis_variants_cover_each_axis() {
        let space = SearchSpace::standard();
        let base = OverlapConfig::default();
        let mut total = 0;
        for axis in 0..SearchSpace::NUM_AXES {
            let variants = space.axis_variants(axis, &base);
            assert!(!variants.is_empty());
            total += variants.len();
        }
        assert_eq!(total, 3 + 3 + 2 + 2 + 6 + 1 + 3);
        assert!(space.axis_variants(99, &base).is_empty());
    }
}
