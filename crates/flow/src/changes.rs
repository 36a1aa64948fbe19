//! The Table 3 reoptimization analysis.
//!
//! All cluster events ultimately reduce to three kinds of flow-network
//! change (§5.2): supply changes at nodes, capacity changes on arcs, and
//! cost changes on arcs. This module implements the paper's Table 3:
//! which arc changes leave an optimal feasible flow valid, and which force
//! reoptimization. The changes themselves reach incremental solvers as
//! [`GraphDelta`](crate::delta::GraphDelta) batches (see [`crate::delta`]).

/// The kind of single-arc change analysed by Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArcChangeKind {
    /// Capacity increased (`u' > u`).
    IncreaseCapacity,
    /// Capacity decreased (`u' < u`).
    DecreaseCapacity,
    /// Cost increased (`c' > c`).
    IncreaseCost,
    /// Cost decreased (`c' < c`).
    DecreaseCost,
}

/// The effect of an arc change on a previously optimal, feasible flow
/// (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptEffect {
    /// The flow stays optimal and feasible (green cells).
    StaysValid,
    /// Complementary slackness is violated; the solution must be
    /// reoptimized, but all flow still fits (red/orange optimality cells).
    BreaksOptimality,
    /// The flow no longer fits the capacities; feasibility must be restored
    /// (only capacity decreases can cause this).
    BreaksFeasibility,
}

/// Inputs to the Table 3 analysis for a single arc `(i, j)`.
#[derive(Debug, Clone, Copy)]
pub struct ArcChangeAnalysis {
    /// Reduced cost `c^π_ij` before the change.
    pub reduced_cost_before: i64,
    /// Reduced cost after the change (equal to `reduced_cost_before` for
    /// capacity changes).
    pub reduced_cost_after: i64,
    /// Flow on the arc before the change.
    pub flow: i64,
    /// Capacity before the change.
    pub capacity_before: i64,
    /// Capacity after the change (equal to `capacity_before` for cost
    /// changes).
    pub capacity_after: i64,
}

/// Evaluates Table 3: does this arc change leave the optimal feasible flow
/// valid, break complementary slackness, or break feasibility?
///
/// The complementary slackness conditions for an optimal flow are: flow on
/// arcs with `c^π_ij > 0` is zero, and arcs with `c^π_ij < 0` are saturated
/// (§4, optimality condition 3). "Decreasing arc capacity can destroy
/// feasibility; all other changes affect optimality only."
///
/// # Examples
///
/// ```
/// use firmament_flow::changes::{arc_change_effect, ArcChangeAnalysis, ReoptEffect};
///
/// // Increasing the cost of a flow-carrying balanced arc breaks optimality.
/// let a = ArcChangeAnalysis {
///     reduced_cost_before: 0,
///     reduced_cost_after: 4,
///     flow: 1,
///     capacity_before: 1,
///     capacity_after: 1,
/// };
/// assert_eq!(arc_change_effect(&a), ReoptEffect::BreaksOptimality);
/// ```
pub fn arc_change_effect(a: &ArcChangeAnalysis) -> ReoptEffect {
    if a.flow > a.capacity_after {
        return ReoptEffect::BreaksFeasibility;
    }
    // Complementary slackness after the change:
    //   rc > 0  requires  f = 0
    //   rc < 0  requires  f = u'
    let rc = a.reduced_cost_after;
    if rc > 0 && a.flow > 0 {
        return ReoptEffect::BreaksOptimality;
    }
    if rc < 0 && a.flow < a.capacity_after {
        return ReoptEffect::BreaksOptimality;
    }
    ReoptEffect::StaysValid
}

/// One cell of Table 3: the effect of a change kind for a reduced-cost sign
/// class, together with the condition (if any) under which it breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table3Cell {
    /// Green: the solution stays optimal and feasible unconditionally.
    Green,
    /// Red: the solution always requires reoptimization.
    Red,
    /// Orange: the solution breaks only if the named condition holds.
    Orange(&'static str),
}

/// Returns the static Table 3 matrix cell for `(change, sign of c^π_ij)`.
///
/// `rc_sign` is `-1`, `0`, or `1` for `c^π_ij < 0`, `= 0`, `> 0`.
///
/// # Panics
///
/// Panics if `rc_sign` is not one of `-1`, `0`, `1`.
pub fn table3_cell(change: ArcChangeKind, rc_sign: i8) -> Table3Cell {
    use ArcChangeKind::*;
    use Table3Cell::*;
    match (change, rc_sign) {
        // Increasing capacity: a saturated negative-rc arc gains residual
        // capacity, violating slackness.
        (IncreaseCapacity, -1) => Red,
        (IncreaseCapacity, 0) => Green,
        (IncreaseCapacity, 1) => Green,
        // Decreasing capacity: a saturated negative-rc arc always overflows;
        // a balanced arc overflows only if it carried more than u'.
        (DecreaseCapacity, -1) => Red,
        (DecreaseCapacity, 0) => Orange("f_ij > u'_ij"),
        (DecreaseCapacity, 1) => Green,
        // Increasing cost: breaks when the arc still carries flow but its
        // new reduced cost turns positive.
        (IncreaseCost, -1) => Orange("c'^π_ij > 0"),
        (IncreaseCost, 0) => Orange("f_ij > 0"),
        (IncreaseCost, 1) => Green,
        // Decreasing cost: breaks when the new reduced cost turns negative
        // while the arc is not saturated.
        (DecreaseCost, -1) => Green,
        (DecreaseCost, 0) => Orange("f_ij < u_ij"),
        (DecreaseCost, 1) => Orange("c'^π_ij < 0"),
        (_, s) => panic!("rc_sign must be -1, 0, or 1; got {s}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis(rc_before: i64, rc_after: i64, flow: i64, u: i64, u2: i64) -> ArcChangeAnalysis {
        ArcChangeAnalysis {
            reduced_cost_before: rc_before,
            reduced_cost_after: rc_after,
            flow,
            capacity_before: u,
            capacity_after: u2,
        }
    }

    #[test]
    fn increase_capacity_on_saturated_negative_arc_breaks() {
        // rc < 0, f = u = 2, u' = 5: arc must be saturated but is not.
        let a = analysis(-3, -3, 2, 2, 5);
        assert_eq!(arc_change_effect(&a), ReoptEffect::BreaksOptimality);
    }

    #[test]
    fn increase_capacity_on_balanced_or_empty_arc_is_fine() {
        assert_eq!(
            arc_change_effect(&analysis(0, 0, 1, 2, 5)),
            ReoptEffect::StaysValid
        );
        assert_eq!(
            arc_change_effect(&analysis(4, 4, 0, 2, 5)),
            ReoptEffect::StaysValid
        );
    }

    #[test]
    fn decrease_capacity_below_flow_breaks_feasibility() {
        let a = analysis(0, 0, 3, 5, 2);
        assert_eq!(arc_change_effect(&a), ReoptEffect::BreaksFeasibility);
    }

    #[test]
    fn decrease_capacity_above_flow_ok_unless_negative_rc() {
        assert_eq!(
            arc_change_effect(&analysis(0, 0, 1, 5, 2)),
            ReoptEffect::StaysValid
        );
        // rc < 0 requires saturation at the *new* capacity.
        assert_eq!(
            arc_change_effect(&analysis(-1, -1, 3, 5, 4)),
            ReoptEffect::BreaksOptimality
        );
        assert_eq!(
            arc_change_effect(&analysis(-1, -1, 4, 5, 4)),
            ReoptEffect::StaysValid
        );
    }

    #[test]
    fn cost_increase_turning_rc_positive_with_flow_breaks() {
        // The paper's worked example: cost change from c^π < 0 to c'^π > 0.
        let a = analysis(-2, 3, 1, 1, 1);
        assert_eq!(arc_change_effect(&a), ReoptEffect::BreaksOptimality);
    }

    #[test]
    fn cost_increase_without_flow_is_fine() {
        let a = analysis(2, 6, 0, 1, 1);
        assert_eq!(arc_change_effect(&a), ReoptEffect::StaysValid);
    }

    #[test]
    fn cost_decrease_turning_rc_negative_on_unsaturated_arc_breaks() {
        let a = analysis(3, -1, 0, 1, 1);
        assert_eq!(arc_change_effect(&a), ReoptEffect::BreaksOptimality);
        // Saturated arc with newly negative rc stays valid.
        let a = analysis(0, -4, 1, 1, 1);
        assert_eq!(arc_change_effect(&a), ReoptEffect::StaysValid);
    }

    #[test]
    fn table3_matrix_shape() {
        use ArcChangeKind::*;
        // Green cells per the paper.
        assert_eq!(table3_cell(IncreaseCapacity, 0), Table3Cell::Green);
        assert_eq!(table3_cell(IncreaseCapacity, 1), Table3Cell::Green);
        assert_eq!(table3_cell(DecreaseCapacity, 1), Table3Cell::Green);
        assert_eq!(table3_cell(IncreaseCost, 1), Table3Cell::Green);
        assert_eq!(table3_cell(DecreaseCost, -1), Table3Cell::Green);
        // Red cells.
        assert_eq!(table3_cell(IncreaseCapacity, -1), Table3Cell::Red);
        assert_eq!(table3_cell(DecreaseCapacity, -1), Table3Cell::Red);
        // Conditional cells carry their condition.
        assert!(matches!(
            table3_cell(DecreaseCapacity, 0),
            Table3Cell::Orange(_)
        ));
        assert!(matches!(
            table3_cell(IncreaseCost, -1),
            Table3Cell::Orange(_)
        ));
        assert!(matches!(
            table3_cell(IncreaseCost, 0),
            Table3Cell::Orange(_)
        ));
        assert!(matches!(
            table3_cell(DecreaseCost, 1),
            Table3Cell::Orange(_)
        ));
    }

    #[test]
    fn table3_cells_agree_with_exact_analysis() {
        // For every cell, sample concrete instances and check that the
        // exhaustive analysis agrees with the matrix classification.
        use ArcChangeKind::*;
        for (kind, rc_sign, rc_b, rc_a, f, u, u2, expect_break) in [
            (IncreaseCapacity, -1i8, -2i64, -2i64, 3i64, 3i64, 6i64, true),
            (IncreaseCapacity, 0, 0, 0, 2, 3, 6, false),
            (IncreaseCapacity, 1, 5, 5, 0, 3, 6, false),
            (DecreaseCapacity, -1, -2, -2, 3, 3, 2, true),
            (DecreaseCapacity, 0, 0, 0, 3, 5, 2, true), // f > u'
            (DecreaseCapacity, 0, 0, 0, 1, 5, 2, false), // f <= u'
            (DecreaseCapacity, 1, 4, 4, 0, 5, 2, false),
            (IncreaseCost, -1, -3, 2, 4, 4, 4, true), // c' > 0
            (IncreaseCost, -1, -9, -4, 4, 4, 4, false),
            (IncreaseCost, 0, 0, 5, 2, 4, 4, true), // f > 0
            (IncreaseCost, 0, 0, 5, 0, 4, 4, false),
            (IncreaseCost, 1, 2, 7, 0, 4, 4, false),
            (DecreaseCost, -1, -1, -6, 4, 4, 4, false),
            (DecreaseCost, 0, 0, -5, 2, 4, 4, true), // f < u
            (DecreaseCost, 0, 0, -5, 4, 4, 4, false),
            (DecreaseCost, 1, 6, -1, 0, 4, 4, true), // c' < 0
            (DecreaseCost, 1, 6, 2, 0, 4, 4, false),
        ] {
            let a = analysis(rc_b, rc_a, f, u, u2);
            let effect = arc_change_effect(&a);
            let broke = effect != ReoptEffect::StaysValid;
            assert_eq!(
                broke, expect_break,
                "kind={kind:?} rc_sign={rc_sign} analysis={a:?} effect={effect:?}"
            );
        }
    }
}
