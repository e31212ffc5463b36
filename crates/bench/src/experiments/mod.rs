//! One module per paper table/figure.

mod ablation;
mod coverage;
mod datasets;
mod energy;
mod extensions;
mod fleet;
mod gcn_accel;
mod imbalance;
mod latency;
mod live;
mod resources;
mod scale;
mod scorecard;
mod serve;
mod virtual_node;

pub use ablation::{fig10, fig9, DsePoint, Fig10, Fig9, Fig9Step};
pub use coverage::{coverage, inspect, CoverageMatrix, FeatureMatrixRow, STOCK_MODELS};
pub use datasets::{table4, Table4, Table4Row};
pub use energy::{table6, Table6, Table6Row, PAPER_TABLE6};
pub use extensions::{
    gather_banking, queue_sweep, utilization_ladder, BankingPoint, BankingStudy, QueuePoint,
    QueueSweep, UtilizationLadder, UtilizationRow,
};
pub use fleet::{
    fleet_serving, FleetClassPoint, FleetPoint, FleetStudy, FLEET_ADMISSIONS, FLEET_LOADS,
    FLEET_MIXES, FLEET_QUEUE_CAPACITY, FLEET_ROUTINGS, FLEET_SHAPES,
};
pub use gcn_accel::{table8, table8_config, Table8, Table8Row, PAPER_TABLE8};
pub use imbalance::{table7, Table7};
pub use latency::{
    fig7, fig8, table5, BatchSweep, Fig7, Fig8, Fig8Row, Table5, Table5Row, PAPER_TABLE5,
};
pub use live::{
    live_replica_counts, live_serving, live_serving_with, LivePoint, LiveSaturation, LiveStudy,
    LIVE_LOADS, LIVE_POLICIES,
};
pub use resources::{table3, Table3, Table3Row, PAPER_TABLE3};
pub use scale::{
    scale_out, ScalePoint, ScaleStudy, ScaleSustainable, REPLICA_COUNTS, SCALE_LOADS,
    SCALE_POLICIES, SCALE_PROCESSES,
};
pub use scorecard::{scorecard, Claim, Scorecard};
pub use serve::{
    serve_tail_latency, ServePoint, ServeStudy, SustainableRate, OFFERED_LOADS, PROCESSES,
    QUEUE_CAPACITY, SLO_FACTOR,
};
pub use virtual_node::{fig6, Fig6, Fig6Row};

use flowgnn_graph::datasets::DatasetSpec;
use flowgnn_models::{GnnModel, ModelKind};

/// Instantiates all six paper models for a dataset's feature dimensions.
pub(crate) fn paper_models(spec: &DatasetSpec, seed: u64) -> Vec<GnnModel> {
    ModelKind::PAPER_MODELS
        .iter()
        .map(|&kind| GnnModel::preset(kind, spec.node_feat_dim(), spec.edge_feat_dim(), seed))
        .collect()
}

/// Formats a latency in milliseconds with sensible precision.
pub(crate) fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.1}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// Formats a speedup factor.
pub(crate) fn fmt_x(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.1}x")
    }
}

/// Formats a value in scientific notation like the paper's energy tables.
pub(crate) fn fmt_sci(v: f64) -> String {
    format!("{v:.2e}")
}
