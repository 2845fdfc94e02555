//! `minigiraffe serve`: a long-lived multi-tenant mapping server.
//!
//! The one-shot CLI pays the heavy setup — GBZ load, minimizer index,
//! distance index, worker-pool warmup — on every
//! invocation. This crate amortizes all of it: a [`MappingServer`] holds
//! that state resident and maps *jobs* submitted over a socket, streaming
//! each job's GAF back as it is produced.
//!
//! Layers, bottom up:
//!
//! - [`protocol`] — the length-prefixed frame codec (`SUBMIT` → `ACCEPT` →
//!   `GAF`… → `DONE`, plus `PING`/`STATS`/`SHUTDOWN`), with a push decoder
//!   that treats inbound bytes as hostile;
//! - [`transport`] — timed readers over TCP or an in-process channel pipe,
//!   so tests and benches run the full server loop without sockets;
//! - [`server`] — admission control (bounded pending queue, per-client
//!   caps, drain), the chunk-interleaving executor on the shared worker
//!   pool, and `STATS` export;
//! - [`harness`] — the blocking client and the seeded multi-client driver
//!   the integration tests are built on.

#![forbid(unsafe_code)]

pub mod harness;
pub mod protocol;
pub mod server;
pub mod transport;

pub use harness::{
    drive_clients, run_client, BlockingClient, ClientError, ClientPlan, ClientReport,
    JobOutcome, Profile,
};
pub use protocol::{decode_frame, Frame, FrameDecoder, JobSummary, ProtoError, MAX_FRAME};
pub use server::{MappingServer, ServerConfig, ServerCtl};
pub use transport::{pipe, Conn, PipeReader, PipeWriter, ReadOutcome, TimedRead};
