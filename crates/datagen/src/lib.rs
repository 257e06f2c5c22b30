//! # datagen — seeded dataset generators for the Ditto experiments
//!
//! Every evaluation input of the paper is reproduced here as a deterministic,
//! seeded generator:
//!
//! * [`ZipfGenerator`] — Zipf-distributed 8-byte tuples (the paper profiles
//!   HISTO on 26 M tuples under Zipf factors α ∈ [0, 3], citing the hash-join
//!   workload methodology of Balkesen et al. \[13\]);
//! * [`UniformGenerator`] — the uniform datasets of the Table II comparison;
//! * [`EvolvingZipfStream`] — the Fig. 9 online scenario: an α = 3 stream
//!   whose hot key set rotates every Δt (the "seed of the dataset generator"
//!   varies), delivered at a rate-limited 100 Gbps-equivalent;
//! * [`sample`] — the skew analyzer's 0.1 % random sampling.
//!
//! All generators produce [`Tuple`]s — the 8-byte `⟨key, value⟩` records the
//! paper's memory interface reads eight of per cycle.
//!
//! # Example
//!
//! ```
//! use datagen::{Tuple, ZipfGenerator};
//!
//! let mut g = ZipfGenerator::new(1.5, 1 << 16, 42);
//! let data: Vec<Tuple> = g.take_vec(10_000);
//! assert_eq!(data.len(), 10_000);
//! // Determinism: same seed, same data.
//! let again = ZipfGenerator::new(1.5, 1 << 16, 42).take_vec(10_000);
//! assert_eq!(data, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod sample;
mod stream;
mod tuple;
mod uniform;
mod zipf;

pub use stream::EvolvingZipfStream;
pub use tuple::Tuple;
pub use uniform::UniformGenerator;
pub use zipf::ZipfGenerator;
