//! Run traces: the (virtual time, best value) series behind Figs 3.4 and
//! 3.18, plus step-kind accounting.

/// The kind of simplex move accepted at an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Worst vertex replaced by its reflection.
    Reflect,
    /// Worst vertex replaced by the expansion point.
    Expand,
    /// Worst vertex replaced by the contraction point.
    Contract,
    /// Whole simplex collapsed towards the best vertex.
    Collapse,
}

/// One record per completed simplex iteration.
#[derive(Debug, Clone, Copy)]
pub struct TracePoint {
    /// Elapsed virtual sampling time when the iteration completed.
    pub time: f64,
    /// 1-based iteration number.
    pub iteration: u64,
    /// Observed objective value at the current best vertex.
    pub best_observed: f64,
    /// Noise-free value at the best vertex, when the substrate knows it.
    pub best_true: Option<f64>,
    /// Simplex diameter (Eq. 2.2).
    pub diameter: f64,
    /// Which move was accepted.
    pub step: StepKind,
}

/// A full optimization trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    points: Vec<TracePoint>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn push(&mut self, p: TracePoint) {
        self.points.push(p);
    }

    /// Release spare capacity, so a finished run holds exactly its points.
    pub fn shrink_to_fit(&mut self) {
        self.points.shrink_to_fit();
    }

    /// All records, in iteration order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no iterations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Count accepted steps of a given kind.
    pub fn count(&self, kind: StepKind) -> usize {
        self.points.iter().filter(|p| p.step == kind).count()
    }

    /// Time per step between consecutive records (used by Fig 3.18c).
    pub fn mean_time_per_step(&self) -> f64 {
        if self.points.is_empty() {
            return f64::NAN;
        }
        self.points.last().unwrap().time / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(i: u64, t: f64, step: StepKind) -> TracePoint {
        TracePoint {
            time: t,
            iteration: i,
            best_observed: 0.0,
            best_true: None,
            diameter: 1.0,
            step,
        }
    }

    #[test]
    fn counts_by_kind() {
        let mut tr = Trace::new();
        tr.push(tp(1, 1.0, StepKind::Reflect));
        tr.push(tp(2, 2.0, StepKind::Reflect));
        tr.push(tp(3, 3.0, StepKind::Contract));
        assert_eq!(tr.count(StepKind::Reflect), 2);
        assert_eq!(tr.count(StepKind::Contract), 1);
        assert_eq!(tr.count(StepKind::Expand), 0);
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn mean_time_per_step() {
        let mut tr = Trace::new();
        tr.push(tp(1, 2.0, StepKind::Reflect));
        tr.push(tp(2, 6.0, StepKind::Expand));
        assert_eq!(tr.mean_time_per_step(), 3.0);
        assert!(Trace::new().mean_time_per_step().is_nan());
    }
}
