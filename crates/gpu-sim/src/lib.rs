//! CPU model of the paper's GPU device (paper §V, substituted per DESIGN.md).
//!
//! The paper runs bulk search on eight NVIDIA A100s: each GPU hosts up to
//! 216 CUDA blocks, every block keeps a resident solution vector and
//! repeatedly executes *batch searches* on targets received from the host,
//! returning its best solution when the batch ends. Communication is by
//! packet transfer; the host never computes energies.
//!
//! This crate keeps that block model and drops the threads:
//!
//! * [`InlineDevice`] — one resident block (scalar, or a bit-sliced lane
//!   batch in bulk mode) that turns a request [`Packet`] into a result
//!   packet synchronously, with plain batch/flip counters.
//! * [`Packet`] — the four-field packet of Table I: solution vector, energy
//!   (void on the way in), main search algorithm, genetic-operation tag.
//! * [`StopFlag`] — the cooperative stop flag a run checks between batches.
//!
//! Parallelism lives one layer up: `dabs-core` runs several solver units
//! side by side, each driving its own inline devices. The host layer there
//! owns the solution pools and the GA; this crate knows nothing about
//! genetic operations — the packet's operation field is an opaque tag it
//! faithfully round-trips.

mod device;
mod packet;
mod shared;

pub use device::InlineDevice;
pub use packet::Packet;
pub use shared::StopFlag;
