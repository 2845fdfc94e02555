//! Low-level substrate for the miniGiraffe reproduction.
//!
//! This crate provides the binary IO and the instrumentation hooks that the
//! GBWT (`mg-gbwt`) and the rest of the stack are built on:
//!
//! - [`varint`]: LEB128-style variable-length unsigned integers, the
//!   byte-level encoding of GBWT records and seed dumps.
//! - [`rle`]: run-length encoding of `(symbol, run)` pairs, the body of
//!   each GBWT node record.
//! - [`mgi`]: the one on-disk container — a checksummed section table over
//!   64-byte-aligned payloads, each streamed into its own array as it is
//!   summed — that `.mgz` pangenomes, `.mgi` index bundles and `.bin` seed
//!   dumps all use.
//! - [`probe`], [`regions`], [`mem`]: memory-access probes, region timers
//!   and RSS readings for the characterization experiments.
//!
//! # Examples
//!
//! ```
//! use mg_support::rle::{collapse, Run};
//! use mg_support::varint;
//!
//! let runs = collapse([2, 2, 2, 5]);
//! assert_eq!(runs, vec![Run::new(2, 3), Run::new(5, 1)]);
//! let mut buf = Vec::new();
//! varint::write_u64(&mut buf, 300);
//! assert_eq!(varint::read_u64(&buf).unwrap(), (300, 2));
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod mem;
pub mod mgi;
pub mod probe;
pub mod regions;
pub mod rle;
pub mod varint;

pub use error::{Error, Result};
