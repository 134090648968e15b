//! One module per experiment family; see EXPERIMENTS.md for the index.

pub mod ablation;
pub mod cluster_exp;
pub mod dse;
pub mod empty_space;
pub mod gpu_sw;
pub mod hwconfig;
pub mod models_cmp;
pub mod motivation;
pub mod performance;
pub mod precision;
pub mod quality;
pub mod sequence;
pub mod serve_exp;
pub mod tables;
pub mod tensorf_exp;
pub mod trace_exp;
pub mod visuals;
