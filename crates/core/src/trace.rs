//! Pipeline traces: per-cycle unit activity timelines.
//!
//! A trace records what every NT and MP unit did in every cycle of every
//! region — the raw material of the paper's Fig. 4, which argues about
//! idle cycles pictorially. Rendered as ASCII lanes:
//!
//! ```text
//! NT0 ################>>>>....
//! MP0 ....##########.######...
//! ```
//!
//! `#` busy, `>` stalled on backpressure, `.` starved for input,
//! space idle. Enable with [`ArchConfig::with_trace`]; the trace appears
//! in [`RunReport::trace`]. Long regions are downsampled on render.
//!
//! Every region is traced, the analytic schedules (the two baseline
//! strategies, and source-banked gather regions under the dataflow
//! strategies) included: their lanes are synthesised from the schedule.
//! In every region the busy and stall symbols on the NT (MP) lanes sum to
//! the run's NT (MP) busy and stall meters, because a unit's lane symbol
//! is the activity the meters are charged from.
//!
//! [`ArchConfig::with_trace`]: crate::ArchConfig::with_trace
//! [`RunReport::trace`]: crate::RunReport

/// Per-cycle activity symbol of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneSymbol {
    /// Useful work.
    Busy,
    /// Stalled on output backpressure.
    StallFull,
    /// Starved for input.
    StallEmpty,
    /// Nothing to do.
    Idle,
}

impl LaneSymbol {
    /// The ASCII rendering of this symbol.
    pub fn glyph(self) -> char {
        match self {
            LaneSymbol::Busy => '#',
            LaneSymbol::StallFull => '>',
            LaneSymbol::StallEmpty => '.',
            LaneSymbol::Idle => ' ',
        }
    }
}

/// The trace of one pipeline region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionTrace {
    /// Region label (e.g. `"region 2 (gamma L1 + scatter L2)"`).
    pub label: String,
    /// Lane names, NT units then MP units.
    pub lane_names: Vec<String>,
    /// `lanes[u][c]` = what unit `u` did in cycle `c`.
    pub lanes: Vec<Vec<LaneSymbol>>,
}

impl RegionTrace {
    /// Creates an empty region trace with the given lanes.
    pub fn new(label: impl Into<String>, lane_names: Vec<String>) -> Self {
        let lanes = vec![Vec::new(); lane_names.len()];
        Self {
            label: label.into(),
            lane_names,
            lanes,
        }
    }

    /// Appends one cycle of symbols (one per lane).
    ///
    /// # Panics
    ///
    /// Panics if `symbols.len()` differs from the lane count.
    pub fn push_cycle(&mut self, symbols: &[LaneSymbol]) {
        assert_eq!(
            symbols.len(),
            self.lanes.len(),
            "cycle has {} symbols for {} lanes",
            symbols.len(),
            self.lanes.len()
        );
        for (lane, &s) in self.lanes.iter_mut().zip(symbols) {
            lane.push(s);
        }
    }

    /// Number of recorded cycles.
    pub fn cycles(&self) -> usize {
        self.lanes.first().map_or(0, Vec::len)
    }

    /// Renders the region as ASCII lanes, downsampling to at most
    /// `max_width` columns (majority symbol per bucket, busy-first).
    pub fn render(&self, max_width: usize) -> String {
        let cycles = self.cycles();
        let width = max_width.max(8);
        let mut out = format!("-- {} ({} cycles) --\n", self.label, cycles);
        if cycles == 0 {
            return out;
        }
        let bucket = cycles.div_ceil(width);
        let name_w = self.lane_names.iter().map(String::len).max().unwrap_or(3);
        for (name, lane) in self.lane_names.iter().zip(&self.lanes) {
            out.push_str(&format!("{name:<name_w$} "));
            for chunk in lane.chunks(bucket) {
                // Priority: busy > stall-full > stall-empty > idle, so a
                // bucket shows the most informative activity within it.
                let sym = if chunk.contains(&LaneSymbol::Busy) {
                    LaneSymbol::Busy
                } else if chunk.contains(&LaneSymbol::StallFull) {
                    LaneSymbol::StallFull
                } else if chunk.contains(&LaneSymbol::StallEmpty) {
                    LaneSymbol::StallEmpty
                } else {
                    LaneSymbol::Idle
                };
                out.push(sym.glyph());
            }
            out.push('\n');
        }
        out
    }
}

/// The full trace of one graph's execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// One trace per pipeline region, in execution order.
    pub regions: Vec<RegionTrace>,
}

impl Trace {
    /// Renders every region, `max_width` columns each.
    pub fn render(&self, max_width: usize) -> String {
        let mut out = String::new();
        for r in &self.regions {
            out.push_str(&r.render(max_width));
        }
        out
    }

    /// Fraction of lane-cycles spent busy across the whole trace.
    pub fn busy_fraction(&self) -> f64 {
        let mut busy = 0usize;
        let mut total = 0usize;
        for r in &self.regions {
            for lane in &r.lanes {
                total += lane.len();
                busy += lane.iter().filter(|&&s| s == LaneSymbol::Busy).count();
            }
        }
        if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> RegionTrace {
        let mut t = RegionTrace::new("r0", vec!["NT0".into(), "MP0".into()]);
        t.push_cycle(&[LaneSymbol::Busy, LaneSymbol::Idle]);
        t.push_cycle(&[LaneSymbol::Busy, LaneSymbol::StallEmpty]);
        t.push_cycle(&[LaneSymbol::StallFull, LaneSymbol::Busy]);
        t
    }

    #[test]
    fn push_and_count() {
        let t = demo();
        assert_eq!(t.cycles(), 3);
        assert_eq!(t.lanes[0][2], LaneSymbol::StallFull);
    }

    #[test]
    fn render_shows_glyphs() {
        let s = demo().render(80);
        assert!(s.contains("NT0 ##>"), "{s}");
        assert!(s.contains("MP0  .#") || s.contains("MP0 .#"), "{s}");
    }

    #[test]
    fn downsampling_prioritises_busy() {
        let mut t = RegionTrace::new("r", vec!["u".into()]);
        for i in 0..100 {
            t.push_cycle(&[if i % 10 == 0 {
                LaneSymbol::Busy
            } else {
                LaneSymbol::Idle
            }]);
        }
        let s = t.render(10);
        // Every 10-cycle bucket contains one busy cycle.
        let lane_line = s.lines().nth(1).unwrap();
        assert_eq!(lane_line.matches('#').count(), 10, "{s}");
    }

    #[test]
    fn downsampled_render_matches_golden() {
        // 40 cycles into 8 columns: bucket = 5 cycles per glyph.
        let mut t = RegionTrace::new("demo-long", vec!["NT0".into(), "MP0".into()]);
        for i in 0..40usize {
            let nt = match i / 10 {
                0 => LaneSymbol::Busy,
                1 => LaneSymbol::StallFull,
                2 => LaneSymbol::StallEmpty,
                _ => LaneSymbol::Idle,
            };
            // MP: one busy cycle per bucket for the first half, then idle
            // except a single backpressure blip at cycle 27.
            let mp = if i < 20 {
                if i % 5 == 4 {
                    LaneSymbol::Busy
                } else {
                    LaneSymbol::StallEmpty
                }
            } else if i == 27 {
                LaneSymbol::StallFull
            } else {
                LaneSymbol::Idle
            };
            t.push_cycle(&[nt, mp]);
        }
        let expected = "-- demo-long (40 cycles) --\n\
                        NT0 ##>>..  \n\
                        MP0 #### >  \n";
        assert_eq!(t.render(8), expected);
        // Widths below the floor are clamped to 8 columns.
        assert_eq!(t.render(1), expected);
    }

    #[test]
    fn downsampling_keeps_ragged_tail_bucket() {
        // 20 cycles at width 8: bucket = 3, so 7 columns — the last one
        // covering only the final 2 cycles.
        let mut t = RegionTrace::new("ragged", vec!["u".into()]);
        for _ in 0..18 {
            t.push_cycle(&[LaneSymbol::Idle]);
        }
        t.push_cycle(&[LaneSymbol::Busy]);
        t.push_cycle(&[LaneSymbol::Busy]);
        let s = t.render(8);
        assert_eq!(s, "-- ragged (20 cycles) --\nu       #\n");
    }

    #[test]
    fn busy_fraction_counts_correctly() {
        let trace = Trace {
            regions: vec![demo()],
        };
        // 3 busy of 6 lane-cycles.
        assert!((trace.busy_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_zero_busy() {
        assert_eq!(Trace::default().busy_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "symbols for")]
    fn wrong_lane_arity_panics() {
        demo().push_cycle(&[LaneSymbol::Busy]);
    }
}
