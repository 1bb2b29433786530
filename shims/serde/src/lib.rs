//! Offline stand-in for the `serde` facade.
//!
//! The container this workspace builds in has no crates.io access, so the
//! real `serde` cannot be vendored. Nothing in the repository actually
//! serializes through serde traits — the `#[derive(Serialize, Deserialize)]`
//! annotations on config and model structs are declarations of intent, and
//! all real persistence goes through the two codecs in `prefall-telemetry`:
//! the binary `prefall_telemetry::codec` that every byte format (weights,
//! bundles, incident dumps, fingerprints, ingest batches, checkpoints)
//! encodes through, and the JSON of `JsonValue`. This shim keeps those
//! derives compiling:
//! marker traits in the type namespace, no-op derive macros in the macro
//! namespace, same import shape as the real crate.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize`. Never used as a bound here.
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize`. Never used as a bound here.
pub trait Deserialize<'de> {}
