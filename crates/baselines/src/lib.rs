//! Baseline platforms the ASDR paper compares against (§6.1).
//!
//! * [`gpu`] — roofline timing/energy models of the NVIDIA RTX 3070
//!   (consumer GPU) and Jetson Xavier NX (edge device), driven by the exact
//!   operation counts the functional renderer measures. Also provides the
//!   "software-only" mode of Fig. 24 (ASDR's algorithms on the GPU).
//! * [`neurex`] — a NeuRex-like accelerator simulator (subgrid-based
//!   encoding with an on-chip grid buffer and a digital MAC MLP engine), in
//!   server and edge variants, including its quality model (quantized
//!   encoding).
//! * [`renerf`] — the Re-NeRF-style baseline: naive sample reduction
//!   without difficulty awareness (the paper's Fig. 9(b) comparison and the
//!   Re-NeRF row of Fig. 16).
//!
//! The strawman CIM design (Fig. 20) lives in
//! [`asdr_core::arch::chip::ChipOptions::strawman`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gpu;
pub mod neurex;
pub mod renerf;

pub use gpu::{simulate_gpu, GpuPerf, GpuSpec};
pub use neurex::{simulate_neurex, NeurexPerf, NeurexVariant};
