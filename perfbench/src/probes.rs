//! Probes of the `crypto` and `primitives` layers: each times a public call
//! at the s256 group on inputs taken from the workload's own run (the joint
//! key from the run's ROM, envelope payloads captured by the adversary
//! wrapper) and reports the median over its samples.

use crate::stats::median;
use proauth_core::hier::HierWire;
use proauth_core::wire::UlsWire;
use proauth_crypto::group::{Group, GroupId};
use proauth_crypto::schnorr::{SigningKey, VerifyKey};
use proauth_crypto::shamir::{lagrange_coeff_at_zero, Polynomial};
use proauth_crypto::thresh::{self, batch_verify_partials, PartialCheck};
use proauth_pds::msg::AlsMsg;
use proauth_primitives::bigint::BigUint;
use proauth_primitives::montgomery::Montgomery;
use proauth_primitives::sha256::Sha256;
use proauth_primitives::wire::Decode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Samples per probe.
pub const SAMPLES: usize = 101;

/// Which decoder reads the workload's envelopes.
#[derive(Clone, Copy)]
pub enum Wire {
    Uls,
    Hier,
    Als,
}

/// Median microseconds of `f` over `SAMPLES` calls; the sample index is
/// passed so each call can take a different input.
fn time_us(mut f: impl FnMut(usize)) -> f64 {
    let mut v = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let t = Instant::now();
        f(i);
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&v).unwrap_or(0.0)
}

/// Runs every probe; returns `(metric, value, unit)` rows.
pub fn run(
    joint_key: Option<&[u8]>,
    captured: &[Vec<u8>],
    wire: Wire,
    seed: u64,
) -> Vec<(String, f64, &'static str)> {
    let group = Group::new(GroupId::S256);
    let mut rng = StdRng::seed_from_u64(seed);
    let y = joint_key.map_or_else(
        || group.exp_g(&group.random_scalar(&mut rng)),
        BigUint::from_bytes_be,
    );
    let fallback = [b"perfbench".to_vec()];
    let msgs: &[Vec<u8>] = if captured.is_empty() {
        &fallback
    } else {
        captured
    };
    let msg = |i: usize| &msgs[i % msgs.len()];
    let scalars: Vec<BigUint> = (0..SAMPLES)
        .map(|_| group.random_scalar(&mut rng))
        .collect();
    let mut out = Vec::new();

    let sk = SigningKey::generate(&group, &mut rng);
    let sigs: Vec<_> = (0..SAMPLES).map(|i| sk.sign(msg(i), &mut rng)).collect();
    out.push((
        "crypto.schnorr_sign_us",
        time_us(|i| {
            black_box(sk.sign(black_box(msg(i)), &mut rng));
        }),
    ));
    let vk: &VerifyKey = sk.verify_key();
    out.push((
        "crypto.schnorr_verify_us",
        time_us(|i| {
            assert!(
                vk.verify(black_box(msg(i)), &sigs[i]),
                "probe signature verifies"
            );
        }),
    ));
    out.push((
        "crypto.exp_us",
        time_us(|i| {
            black_box(group.exp(black_box(&y), &scalars[i]));
        }),
    ));
    let bases: Vec<BigUint> = (0..8).map(|k| group.exp(&y, &scalars[k])).collect();
    out.push((
        "crypto.multi_exp_us",
        time_us(|i| {
            let pairs: Vec<(&BigUint, &BigUint)> = bases
                .iter()
                .enumerate()
                .map(|(k, b)| (b, &scalars[(i + k) % SAMPLES]))
                .collect();
            black_box(group.multi_exp(&pairs));
        }),
    ));

    // A (t + 1)-of-13 signing session's partials, t = 6, under a fresh
    // sharing; the probe times the randomized batch check.
    let t = 6;
    let poly = Polynomial::random(&group, t, &mut rng);
    let signers: Vec<u32> = (1..=t as u32 + 1).collect();
    let shares: Vec<BigUint> = signers.iter().map(|&i| poly.eval_at(i)).collect();
    let share_keys: Vec<BigUint> = shares.iter().map(|x| group.exp_g(x)).collect();
    let nonces: Vec<thresh::Nonce> = signers
        .iter()
        .map(|_| thresh::generate_nonce(&group, &mut rng))
        .collect();
    let commitments: Vec<BigUint> = nonces.iter().map(|n| n.commitment.clone()).collect();
    let pk = group.exp_g(poly.secret());
    let e = thresh::challenge(
        &group,
        &thresh::combine_nonces(&group, &commitments),
        &pk,
        msg(0),
    );
    let z: Vec<BigUint> = signers
        .iter()
        .zip(&shares)
        .zip(&nonces)
        .map(|((&i, x), n)| {
            let lambda = lagrange_coeff_at_zero(&group, &signers, i);
            group.scalar_add(&n.k, &group.scalar_mul(&e, &group.scalar_mul(&lambda, x)))
        })
        .collect();
    let checks: Vec<PartialCheck<'_>> = signers
        .iter()
        .enumerate()
        .map(|(k, &signer)| PartialCheck {
            signer,
            share_key: &share_keys[k],
            nonce_commitment: &commitments[k],
            z_i: &z[k],
        })
        .collect();
    out.push((
        "crypto.thresh_batch_verify_us",
        time_us(|_| {
            assert!(
                batch_verify_partials(&group, &signers, &e, &checks),
                "probe partials verify"
            );
        }),
    ));

    let mont = Montgomery::new(group.p()).expect("the group modulus is odd");
    out.push((
        "primitives.modpow_us",
        time_us(|i| {
            black_box(mont.modpow(black_box(&y), &scalars[i]));
        }),
    ));
    let kib: Vec<u8> = msgs.iter().flatten().copied().cycle().take(1024).collect();
    out.push((
        "primitives.sha256_kib_us",
        time_us(|_| {
            black_box(Sha256::digest(black_box(&kib)));
        }),
    ));
    let decode = |bytes: &[u8]| -> bool {
        match wire {
            Wire::Uls => UlsWire::from_bytes(bytes).is_ok(),
            Wire::Hier => HierWire::from_bytes(bytes).is_ok(),
            Wire::Als => AlsMsg::from_bytes(bytes).is_ok(),
        }
    };
    out.push((
        "primitives.wire_decode_us",
        time_us(|i| {
            black_box(decode(black_box(msg(i))));
        }),
    ));
    let bytes_per_env = msgs.iter().map(Vec::len).sum::<usize>() as f64 / msgs.len() as f64;
    out.push(("primitives.wire_bytes_per_env", bytes_per_env));

    out.into_iter()
        .map(|(name, v)| {
            let unit = if name == "primitives.wire_bytes_per_env" {
                "B"
            } else {
                "us"
            };
            (name.to_owned(), v, unit)
        })
        .collect()
}
