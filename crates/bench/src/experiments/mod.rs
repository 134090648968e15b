//! One module per experiment family; `experiments --list` prints the index
//! (the `EXPERIMENTS` table of the binary).

pub mod ablation;
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
pub mod tables;
pub mod tensorf_exp;
pub mod visuals;
