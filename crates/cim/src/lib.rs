//! Computing-in-memory device models for the ASDR architecture simulator.
//!
//! The ASDR chip (§5 of the paper) is built from ReRAM crossbars used two
//! ways: *Mem Xbars* storing embedding tables (read-only lookups) and *CIM
//! PEs* performing in-situ matrix-vector multiplication for the MLPs. §6.9
//! additionally evaluates SRAM-CIM and systolic-array variants. This crate
//! provides those devices:
//!
//! * [`device`] — ReRAM / SRAM cell and macro parameters,
//! * [`xbar`] — crossbar geometry, tiling, cycle/energy costs, and a
//!   *functional* bit-quantized MVM (used by tests to bound the accuracy
//!   impact of 5-bit ADCs the paper configures),
//! * [`systolic`] — an Eyeriss-like systolic-array timing model,
//! * [`buffer`] — a CACTI-like on-chip buffer energy/latency model,
//! * [`energy`] — the per-event energy constant library.
//!
//! All numbers are per-event constants at a 28 nm-class node; absolute
//! values follow the literature (PUMA, NeuroSim, CACTI) while every
//! *comparison* in the experiment harness is driven by event counts measured
//! from the functional pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod device;
pub mod energy;
pub mod systolic;
pub mod xbar;

pub use xbar::XbarGeometry;
