//! # proauth-crypto
//!
//! Cryptographic substrates for the `proauth` reproduction of
//! Canetti–Halevi–Herzberg (PODC '97): everything the paper's PDS
//! transformation assumes to exist, built from scratch on
//! [`proauth_primitives`]:
//!
//! * [`group`] — Schnorr groups (prime-order subgroups of `Z_p^*`).
//! * [`schnorr`] — the centralized EUF-CMA scheme `CS` of §4.
//! * [`shamir`] — secret sharing / Lagrange interpolation over `Z_q`.
//! * [`feldman`] — verifiable secret sharing (coefficient commitments).
//! * [`dkg`] — joint-Feldman distributed key generation.
//! * [`thresh`] — robust threshold Schnorr signing (the `ASign` of an
//!   AL-model PDS per Theorem 13).
//! * [`refresh`] — proactive zero-sharing update + share recovery (the
//!   `ARfr` component).
//!
//! All modules are *pure*: they compute message payloads and state
//! transitions. Driving them over a network (AL or UL model) is the job of
//! `proauth-pds` and `proauth-core`.

pub mod dkg;
pub mod feldman;
pub mod group;
pub mod refresh;
pub mod schnorr;
pub mod shamir;
pub mod thresh;
