//! A fast, non-cryptographic hasher for the bit-blasting hot path.
//!
//! Structural hashing performs one hash-map probe per AND gate built, and a
//! whole-design bit-blast builds millions of gates; the standard library's
//! DoS-resistant SipHash dominates that profile.  The detection flow hashes
//! only small fixed-size keys (node ids, literal pairs, signal ids) that are
//! never attacker-controlled, so the multiply-xor scheme of rustc's `FxHash`
//! is the right trade-off.
//!
//! The implementation lives in [`htd_rtl::fxhash`] (the bottom of the crate
//! stack) so the netlist-text hash ([`htd_rtl::netlist::hash_of_dump`]) and
//! this crate's hash maps share one definition; this module re-exports it
//! under the historical path.

pub use htd_rtl::fxhash::{FxHashMap, FxHashSet, FxHasher};
