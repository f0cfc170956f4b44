//! RFC 6979 deterministic ECDSA over NIST P-256 with SHA-256.
//!
//! This mirrors what the Hyperledger Fabric SDK provides to the ordering
//! nodes in the paper: block headers are hashed with SHA-256 and signed
//! with ECDSA P-256. Determinism (RFC 6979) removes the need for a secure
//! RNG and makes every experiment reproducible.

use crate::bignum::U256;
use crate::hmac::hmac_sha256_multi;
use crate::p256::{batch_invert, invert_scalar, order, scalar_field, Point, SignedComb};
use crate::sha256::{sha256, Hash256};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An ECDSA signature: the pair `(r, s)` as canonical scalars.
///
/// # Examples
///
/// ```
/// use hlf_crypto::ecdsa::{Signature, SigningKey};
/// use hlf_crypto::sha256::sha256;
///
/// let key = SigningKey::from_seed(b"node");
/// let sig = key.sign_digest(&sha256(b"payload"));
/// let bytes = sig.to_bytes();
/// assert_eq!(Signature::from_bytes(&bytes).unwrap(), sig);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    r: U256,
    s: U256,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(r=0x{}.., s=0x{}..)",
            &self.r.to_hex()[..16],
            &self.s.to_hex()[..16]
        )
    }
}

impl Signature {
    /// Builds a signature from scalar components.
    ///
    /// # Errors
    ///
    /// Returns `None` if either component is zero or not below the group
    /// order.
    pub fn from_scalars(r: U256, s: U256) -> Option<Signature> {
        let n = order();
        if r.is_zero() || s.is_zero() || &r >= n || &s >= n {
            return None;
        }
        Some(Signature { r, s })
    }

    /// The `r` component.
    pub fn r(&self) -> &U256 {
        &self.r
    }

    /// The `s` component.
    pub fn s(&self) -> &U256 {
        &self.s
    }

    /// Serializes as 64 bytes: `r || s`, each big-endian.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses the 64-byte `r || s` encoding.
    ///
    /// # Errors
    ///
    /// Returns `None` if the length is wrong or a component is out of
    /// range.
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        let (r, s) = bytes.split_first_chunk::<32>()?;
        let r = U256::from_be_bytes(r);
        let s = U256::from_be_bytes(s.try_into().ok()?);
        Signature::from_scalars(r, s)
    }
}

/// Signature verification failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyError;

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("signature verification failed")
    }
}

impl Error for VerifyError {}

/// A P-256 public key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey {
    point: Point,
}

impl VerifyingKey {
    /// Builds a verifying key from a curve point.
    ///
    /// # Errors
    ///
    /// Returns `None` for the identity point.
    pub fn from_point(point: Point) -> Option<VerifyingKey> {
        if point.is_identity() {
            None
        } else {
            Some(VerifyingKey { point })
        }
    }

    /// The public point.
    pub fn point(&self) -> &Point {
        &self.point
    }

    /// SEC1 uncompressed encoding (65 bytes).
    pub fn to_sec1_bytes(&self) -> Vec<u8> {
        self.point.to_sec1_bytes()
    }

    /// Parses an SEC1 uncompressed encoding.
    ///
    /// # Errors
    ///
    /// Returns `None` for malformed or identity encodings.
    pub fn from_sec1_bytes(bytes: &[u8]) -> Option<VerifyingKey> {
        VerifyingKey::from_point(Point::from_sec1_bytes(bytes)?)
    }

    /// Verifies `signature` over a 32-byte message digest.
    ///
    /// Computes `u1·G + u2·Q` with one Strauss–Shamir interleaved
    /// ladder ([`Point::lincomb`]) rather than two independent scalar
    /// multiplications, and compares the resulting x-coordinate against
    /// `r` in Jacobian form, skipping the final field inversion. This is
    /// the path for arbitrary keys (clients, endorsers); a key that is
    /// verified against for the life of the process is better held as a
    /// [`PinnedKey`].
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the signature does not match.
    pub fn verify_digest(&self, digest: &Hash256, signature: &Signature) -> Result<(), VerifyError> {
        let (u1, u2) = verification_scalars(digest, signature);
        x_matches_r(&Point::lincomb(&u1, &self.point, &u2), signature)
    }

    /// Reference verification path: two independent reference scalar
    /// multiplications plus an affine round-trip, exactly the shape of
    /// the pre-optimization implementation.
    ///
    /// Kept so the tests can cross-check the fast path against it.
    #[cfg(test)]
    pub fn verify_digest_reference(
        &self,
        digest: &Hash256,
        signature: &Signature,
    ) -> Result<(), VerifyError> {
        let sf = scalar_field();
        let z = digest_to_scalar(digest);
        let s_inv = sf.inv(&sf.to_monty(&signature.s));
        let u1 = sf.from_monty(&sf.mul(&sf.to_monty(&z), &s_inv));
        let u2 = sf.from_monty(&sf.mul(&sf.to_monty(&signature.r), &s_inv));
        let point = Point::generator()
            .mul_reference(&u1)
            .add(&self.point.mul_reference(&u2));
        match point.to_affine() {
            None => Err(VerifyError),
            Some((x, _)) => {
                if x.reduce_once(order()) == signature.r {
                    Ok(())
                } else {
                    Err(VerifyError)
                }
            }
        }
    }

    /// Hashes `message` with SHA-256 and verifies.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the signature does not match.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), VerifyError> {
        self.verify_digest(&sha256(message), signature)
    }
}

/// `(u1, u2) = (z·s⁻¹, r·s⁻¹) mod n`: the two scalars of the
/// verification equation `u1·G + u2·Q`, for one scalar inversion.
fn verification_scalars(digest: &Hash256, signature: &Signature) -> (U256, U256) {
    let sf = scalar_field();
    let z = digest_to_scalar(digest);
    let s_inv = invert_scalar(&sf.to_monty(&signature.s));
    let u1 = sf.from_monty(&sf.mul(&sf.to_monty(&z), &s_inv));
    let u2 = sf.from_monty(&sf.mul(&sf.to_monty(&signature.r), &s_inv));
    (u1, u2)
}

/// The final check of a verification: `point = u1·G + u2·Q` is finite
/// and its affine x-coordinate is `r` modulo the group order.
fn x_matches_r(point: &Point, signature: &Signature) -> Result<(), VerifyError> {
    if !point.is_identity() && point.affine_x_reduced_eq(&signature.r) {
        Ok(())
    } else {
        Err(VerifyError)
    }
}

/// A public key pinned for repeated verification: the key plus its
/// precomputed signed-digit comb (148 KiB, ~1 ms to build, shared by
/// clones).
///
/// The orderers' keys are the same `n` keys for the life of a process,
/// and every vote, decision proof and block signature is checked
/// against one of them. With the key's comb next to the generator's,
/// `u1·G + u2·Q` is two doubling-free comb walks (at most 74 mixed
/// additions) instead of [`VerifyingKey::verify_digest`]'s
/// 252-doubling ladder. Accepts and rejects exactly what the unpinned
/// path does. Pin a key set once, where it is derived or configured,
/// and hand out clones: a clone shares the table.
///
/// # Examples
///
/// ```
/// use hlf_crypto::ecdsa::{PinnedKey, SigningKey};
/// use hlf_crypto::sha256::sha256;
///
/// let key = SigningKey::from_seed(b"orderer-0");
/// let pinned = PinnedKey::new(*key.verifying_key());
/// let digest = sha256(b"header");
/// assert!(pinned.verify_digest(&digest, &key.sign_digest(&digest)).is_ok());
/// ```
#[derive(Clone)]
pub struct PinnedKey {
    key: VerifyingKey,
    comb: Arc<SignedComb>,
}

impl fmt::Debug for PinnedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PinnedKey").field(&self.key).finish()
    }
}

/// Comb tables [`PinnedKey::new`] has built in this process.
static TABLES_BUILT: AtomicUsize = AtomicUsize::new(0);

impl PinnedKey {
    /// Builds the key's comb.
    pub fn new(key: VerifyingKey) -> PinnedKey {
        let comb = Arc::new(SignedComb::new(&key.point));
        TABLES_BUILT.fetch_add(1, Ordering::Relaxed);
        PinnedKey { key, comb }
    }

    /// How many comb tables [`PinnedKey::new`] has built in this
    /// process, each 148 KiB and ~1 ms: a key set pinned once and
    /// shared by clones adds one per key, however many replicas and
    /// collectors hold it.
    pub fn tables_built() -> usize {
        TABLES_BUILT.load(Ordering::Relaxed)
    }

    /// Pins a key set, index for index (node id → key).
    pub fn pin_all(keys: &[VerifyingKey]) -> Vec<PinnedKey> {
        keys.iter().copied().map(PinnedKey::new).collect()
    }

    /// Verifies `signature` over a 32-byte message digest; same verdict
    /// as [`VerifyingKey::verify_digest`].
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the signature does not match.
    pub fn verify_digest(&self, digest: &Hash256, signature: &Signature) -> Result<(), VerifyError> {
        let (u1, u2) = verification_scalars(digest, signature);
        x_matches_r(&self.comb.mul_add(&u2, Point::mul_base(&u1)), signature)
    }
}

/// A P-256 private key with its cached public key.
#[derive(Clone)]
pub struct SigningKey {
    d: U256,
    public: VerifyingKey,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the private scalar.
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .finish()
    }
}

impl SigningKey {
    /// Builds a key from a private scalar.
    ///
    /// # Errors
    ///
    /// Returns `None` if the scalar is zero or not below the group order.
    pub fn from_scalar(d: U256) -> Option<SigningKey> {
        if d.is_zero() || &d >= order() {
            return None;
        }
        let point = Point::mul_base(&d);
        let public = VerifyingKey::from_point(point)?;
        Some(SigningKey { d, public })
    }

    /// Derives a key deterministically from an arbitrary seed.
    ///
    /// The seed is expanded with SHA-256 and rejection-sampled into a
    /// valid scalar; distinct seeds give independent keys. Handy for
    /// reproducible experiments ("ordering node 3", etc.).
    pub fn from_seed(seed: &[u8]) -> SigningKey {
        let mut material = sha256(seed);
        loop {
            let candidate = U256::from_be_bytes(material.as_bytes());
            if let Some(key) = SigningKey::from_scalar(candidate.reduce_once(order())) {
                return key;
            }
            material = sha256(material.as_bytes());
        }
    }

    /// The private scalar, big-endian.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.d.to_be_bytes()
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// Signs a 32-byte message digest with an RFC 6979 deterministic
    /// nonce: [`SigningKey::sign_digests`] of one.
    #[expect(clippy::expect_used, reason = "`sign_digests` returns one signature per digest")]
    pub fn sign_digest(&self, digest: &Hash256) -> Signature {
        self.sign_digests(std::slice::from_ref(digest))
            .pop()
            .expect("one signature per digest")
    }

    /// Signs a group of digests, one signature each, for the price of
    /// **one** field inversion and **one** scalar inversion in total.
    ///
    /// A lone signature spends about 11 of its 22 µs inverting: `k⁻¹`
    /// and the Jacobian→affine conversion of `R = k·G`. Here every
    /// digest gets its own RFC 6979 nonce and its own comb walk
    /// ([`Point::mul_base`]), then Montgomery's trick shares the two
    /// inversions across the group. The nonces are the ones
    /// [`SigningKey::sign_digest`] derives, so the signatures are
    /// byte-identical to signing each digest alone; a digest whose `r`
    /// or `s` comes out zero is retried with its next RFC 6979 nonce.
    pub fn sign_digests(&self, digests: &[Hash256]) -> Vec<Signature> {
        // lint:secret-scope(d, nonces, k, k_invs, k_inv, rd, z_plus_rd) — the
        // private scalar, every nonce, every peeled `k⁻¹` (the running
        // prefix products are scoped inside `batch_invert`) and every
        // private-scalar product must not steer control flow or memory
        // addressing; `r` and `s` are public signature components.
        struct Job {
            /// The digest as a scalar, Montgomery form.
            z: U256,
            nonces: Rfc6979,
            signature: Option<Signature>,
        }
        let sf = scalar_field();
        let n = order();
        let d = sf.to_monty(&self.d);
        let mut jobs: Vec<Job> = digests
            .iter()
            .map(|digest| Job {
                z: sf.to_monty(&digest_to_scalar(digest)),
                nonces: Rfc6979::new(&self.d, digest),
                signature: None,
            })
            .collect();
        loop {
            // Every round but the first re-signs only the digests whose
            // `r` or `s` was zero (probability ~2⁻²⁵⁶ each).
            let mut open: Vec<&mut Job> =
                jobs.iter_mut().filter(|job| job.signature.is_none()).collect();
            if open.is_empty() {
                break;
            }
            let nonces: Vec<U256> = open.iter_mut().map(|job| job.nonces.next_nonce()).collect();
            // RFC 6979 nonces are in `[1, n-1]`, so no `k·G` is the identity.
            let points: Vec<Point> = nonces.iter().map(Point::mul_base).collect();
            let xs = Point::batch_affine_x(&points);
            let mut k_invs: Vec<U256> = nonces.iter().map(|k| sf.to_monty(k)).collect();
            batch_invert(sf, &mut k_invs, invert_scalar);
            for ((job, x), k_inv) in open.into_iter().zip(&xs).zip(&k_invs) {
                let r = x.reduce_once(n);
                // s = k^{-1} (z + r d) mod n
                let rd = sf.mul(&sf.to_monty(&r), &d);
                let z_plus_rd = sf.add(&job.z, &rd);
                let s = sf.from_monty(&sf.mul(k_inv, &z_plus_rd));
                // `None` exactly when `r` or `s` is zero: both are below `n`.
                job.signature = Signature::from_scalars(r, s);
            }
        }
        jobs.into_iter().filter_map(|job| job.signature).collect()
    }

    /// Reference signing path, sharing nothing with the group path but
    /// the nonce derivation: one digest, the naive ladder for `k·G`, its
    /// own affine conversion and the generic
    /// [`crate::bignum::Monty::inv`] for `k⁻¹`. Same RFC 6979 nonces, so
    /// bit-identical signatures.
    ///
    /// Kept so the tests can cross-check the group path against it.
    #[cfg(test)]
    pub fn sign_digest_reference(&self, digest: &Hash256) -> Signature {
        let sf = scalar_field();
        let n = order();
        let z = digest_to_scalar(digest);
        let mut nonce_gen = Rfc6979::new(&self.d, digest);
        loop {
            let k = nonce_gen.next_nonce();
            let point = Point::generator().mul_reference(&k);
            let (x, _) = point.to_affine().expect("k in [1, n-1] gives finite kG");
            let r = x.reduce_once(n);
            if r.is_zero() {
                continue;
            }
            let k_inv = sf.inv(&sf.to_monty(&k));
            let rd = sf.mul(&sf.to_monty(&r), &sf.to_monty(&self.d));
            let z_plus_rd = sf.add(&sf.to_monty(&z), &rd);
            let s = sf.from_monty(&sf.mul(&k_inv, &z_plus_rd));
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }

    /// Hashes `message` with SHA-256 and signs the digest.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_digest(&sha256(message))
    }
}

/// Converts a 32-byte digest to a scalar (`bits2int` + reduction, which
/// for a 256-bit curve is just one conditional subtraction).
fn digest_to_scalar(digest: &Hash256) -> U256 {
    U256::from_be_bytes(digest.as_bytes()).reduce_once(order())
}

/// RFC 6979 HMAC-DRBG nonce generator, specialized to SHA-256 / P-256.
struct Rfc6979 {
    k: Hash256,
    v: [u8; 32],
    /// Set after the first nonce; subsequent calls reseed per RFC 6979
    /// step h.3.
    primed: bool,
}

impl Rfc6979 {
    fn new(private_scalar: &U256, digest: &Hash256) -> Rfc6979 {
        let x = private_scalar.to_be_bytes();
        let h1 = digest_to_scalar(digest).to_be_bytes();
        let mut k = Hash256([0u8; 32]);
        let mut v = [0x01u8; 32];
        // K = HMAC_K(V || 0x00 || int2octets(x) || bits2octets(h1))
        k = hmac_sha256_multi(k.as_bytes(), &[&v, &[0x00], &x, &h1]);
        // V = HMAC_K(V)
        v = *hmac_sha256_multi(k.as_bytes(), &[&v]).as_bytes();
        // K = HMAC_K(V || 0x01 || int2octets(x) || bits2octets(h1))
        k = hmac_sha256_multi(k.as_bytes(), &[&v, &[0x01], &x, &h1]);
        v = *hmac_sha256_multi(k.as_bytes(), &[&v]).as_bytes();
        Rfc6979 {
            k,
            v,
            primed: false,
        }
    }

    fn next_nonce(&mut self) -> U256 {
        // lint:secret-scope(candidate) — HMAC-DRBG outputs become signing
        // nonces.
        let n = order();
        loop {
            if self.primed {
                self.k = hmac_sha256_multi(self.k.as_bytes(), &[&self.v, &[0x00]]);
                self.v = *hmac_sha256_multi(self.k.as_bytes(), &[&self.v]).as_bytes();
            }
            self.primed = true;
            self.v = *hmac_sha256_multi(self.k.as_bytes(), &[&self.v]).as_bytes();
            let candidate = U256::from_be_bytes(&self.v);
            if !candidate.is_zero() && &candidate < n { // lint:allow(consttime): RFC 6979 rejection sampling — a rejected candidate is discarded forever, and acceptance leaks only that the sample was below `n` (true for all but ~2⁻³² of draws)
                return candidate; // lint:allow(consttime): the timing of this exit reveals the rejection count, never the accepted value
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p256::cost;

    /// RFC 6979 appendix A.2.5 private key and public key for P-256.
    fn rfc6979_key() -> SigningKey {
        let d =
            U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
                .unwrap();
        let key = SigningKey::from_scalar(d).unwrap();
        let (ux, uy) = key.verifying_key().point().to_affine().unwrap();
        assert_eq!(
            ux.to_hex(),
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6"
        );
        assert_eq!(
            uy.to_hex(),
            "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299"
        );
        key
    }

    #[test]
    fn rfc6979_vector_sample() {
        let key = rfc6979_key();
        let sig = key.sign(b"sample");
        assert_eq!(
            sig.r().to_hex(),
            "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716"
        );
        assert_eq!(
            sig.s().to_hex(),
            "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8"
        );
        key.verifying_key().verify(b"sample", &sig).unwrap();
    }

    #[test]
    fn rfc6979_vector_test() {
        let key = rfc6979_key();
        let sig = key.sign(b"test");
        assert_eq!(
            sig.r().to_hex(),
            "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367"
        );
        assert_eq!(
            sig.s().to_hex(),
            "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083"
        );
        key.verifying_key().verify(b"test", &sig).unwrap();
    }

    #[test]
    fn sign_verify_roundtrip_many_keys() {
        for i in 0..8u8 {
            let key = SigningKey::from_seed(&[i]);
            let msg = [i; 100];
            let sig = key.sign(&msg);
            key.verifying_key().verify(&msg, &sig).unwrap();
            // Wrong message fails.
            assert_eq!(
                key.verifying_key().verify(b"other", &sig),
                Err(VerifyError)
            );
            // Wrong key fails.
            let other = SigningKey::from_seed(&[i, 1]);
            assert_eq!(other.verifying_key().verify(&msg, &sig), Err(VerifyError));
        }
    }

    #[test]
    fn tampered_signature_fails() {
        let key = SigningKey::from_seed(b"tamper");
        let sig = key.sign(b"message");
        let mut bytes = sig.to_bytes();
        bytes[10] ^= 0x01;
        if let Some(bad) = Signature::from_bytes(&bytes) {
            assert_eq!(key.verifying_key().verify(b"message", &bad), Err(VerifyError));
        }
    }

    #[test]
    fn signature_encoding_rejects_out_of_range() {
        assert!(Signature::from_bytes(&[0u8; 64]).is_none());
        assert!(Signature::from_bytes(&[0u8; 63]).is_none());
        let mut all_ff = [0xffu8; 64];
        assert!(Signature::from_bytes(&all_ff).is_none());
        // A valid r with s = order is rejected.
        all_ff[..32].copy_from_slice(&U256::from_u64(1).to_be_bytes());
        all_ff[32..].copy_from_slice(&order().to_be_bytes());
        assert!(Signature::from_bytes(&all_ff).is_none());
    }

    #[test]
    fn from_scalar_rejects_invalid() {
        assert!(SigningKey::from_scalar(U256::ZERO).is_none());
        assert!(SigningKey::from_scalar(*order()).is_none());
    }

    #[test]
    fn from_seed_is_deterministic_and_distinct() {
        let a1 = SigningKey::from_seed(b"node-a");
        let a2 = SigningKey::from_seed(b"node-a");
        let b = SigningKey::from_seed(b"node-b");
        assert_eq!(a1.to_be_bytes(), a2.to_be_bytes());
        assert_ne!(a1.to_be_bytes(), b.to_be_bytes());
    }

    #[test]
    fn fast_and_reference_paths_agree() {
        for i in 0..4u8 {
            let key = SigningKey::from_seed(&[0xf0, i]);
            let digest = sha256(&[i; 33]);
            // Identical RFC 6979 nonces => bit-identical signatures.
            let fast = key.sign_digest(&digest);
            let slow = key.sign_digest_reference(&digest);
            assert_eq!(fast, slow, "i={i}");
            // Both verification paths accept the signature...
            key.verifying_key().verify_digest(&digest, &fast).unwrap();
            key.verifying_key()
                .verify_digest_reference(&digest, &fast)
                .unwrap();
            // ...and both reject a tampered one.
            let mut bytes = fast.to_bytes();
            bytes[5] ^= 0x40;
            if let Some(bad) = Signature::from_bytes(&bytes) {
                assert_eq!(
                    key.verifying_key().verify_digest(&digest, &bad),
                    Err(VerifyError)
                );
                assert_eq!(
                    key.verifying_key().verify_digest_reference(&digest, &bad),
                    Err(VerifyError)
                );
            }
        }
    }

    /// The RFC 6979 A.2.5 signatures of "sample" and "test" come out of
    /// one two-element group.
    #[test]
    fn rfc6979_vectors_from_one_group() {
        let sigs = rfc6979_key().sign_digests(&[sha256(b"sample"), sha256(b"test")]);
        let hex: Vec<(String, String)> =
            sigs.iter().map(|sig| (sig.r().to_hex(), sig.s().to_hex())).collect();
        assert_eq!(
            hex,
            [
                (
                    "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716".to_string(),
                    "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8".to_string()
                ),
                (
                    "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367".to_string(),
                    "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083".to_string()
                ),
            ]
        );
    }

    #[test]
    fn empty_group_signs_nothing() {
        assert!(SigningKey::from_seed(b"empty").sign_digests(&[]).is_empty());
    }

    /// Deterministic cost guard: a group of 16 shares one field
    /// inversion and one scalar inversion, and each nonce's `k·G` is one
    /// doubling-free walk of the generator's comb (at most 37 mixed
    /// additions). A refactor that falls back to per-signature inversions
    /// or to a doubling ladder fails here, not in a noisy benchmark.
    #[test]
    fn group_of_16_costs_one_inversion_of_each_kind() {
        let key = SigningKey::from_seed(b"cost-sign");
        let digests: Vec<Hash256> = (0..16u8).map(|i| sha256(&[i])).collect();
        key.sign_digest(&digests[0]); // builds the generator's comb outside the count
        let costs = cost::measure(|| {
            assert_eq!(key.sign_digests(&digests).len(), 16);
        });
        assert_eq!((costs.field_inversions, costs.scalar_inversions), (1, 1));
        assert_eq!(costs.doublings, 0);
        assert!(costs.mixed_additions <= 16 * 37, "{costs:?}");
    }

    /// Deterministic cost guard: verification against a pinned key walks
    /// two signed-digit combs — at most 37 + 37 mixed additions, no
    /// doubling, no field inversion, one scalar inversion.
    #[test]
    fn pinned_verification_costs_no_doubling_and_one_scalar_inversion() {
        let key = SigningKey::from_seed(b"cost-verify");
        let pinned = PinnedKey::new(*key.verifying_key());
        for i in 0..8u8 {
            let digest = sha256(&[b'v', i]);
            let sig = key.sign_digest(&digest);
            let costs = cost::measure(|| pinned.verify_digest(&digest, &sig).unwrap());
            assert_eq!(
                (costs.field_inversions, costs.scalar_inversions, costs.doublings),
                (0, 1, 0),
                "{costs:?}"
            );
            assert!(costs.mixed_additions <= 74, "{costs:?}");
        }
        // The guard can see the slow path: the unpinned ladder doubles.
        let digest = sha256(b"vote");
        let sig = key.sign_digest(&digest);
        let costs = cost::measure(|| key.verifying_key().verify_digest(&digest, &sig).unwrap());
        assert!(costs.doublings >= 248, "{costs:?}");
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use crate::p256::field;
        use hlf_simnet::{for_each_case, SimRng};

        fn arb_digest(rng: &mut SimRng) -> Hash256 {
            let mut bytes = [0u8; 32];
            for chunk in bytes.chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            Hash256(bytes)
        }

        fn arb_key(rng: &mut SimRng) -> SigningKey {
            SigningKey::from_seed(&rng.next_u64().to_le_bytes())
        }

        #[test]
        fn group_signatures_equal_lone_signatures() {
            for_each_case(0xecd5_0001, 8, |rng| {
                let key = arb_key(rng);
                for size in [1usize, 2, 3, 16, 17] {
                    let mut digests: Vec<Hash256> = (0..size).map(|_| arb_digest(rng)).collect();
                    if size == 3 {
                        digests[2] = digests[0]; // a repeated digest repeats its signature
                    }
                    let group = key.sign_digests(&digests);
                    assert_eq!(group.len(), size);
                    for (digest, sig) in digests.iter().zip(&group) {
                        assert_eq!(*sig, key.sign_digest(digest), "size {size}");
                        assert_eq!(*sig, key.sign_digest_reference(digest), "size {size}");
                    }
                }
            });
        }

        /// All three verification paths give one verdict.
        fn verdict(key: &VerifyingKey, digest: &Hash256, sig: &Signature) -> bool {
            let unpinned = key.verify_digest(digest, sig).is_ok();
            let pinned = PinnedKey::new(*key).verify_digest(digest, sig).is_ok();
            let reference = key.verify_digest_reference(digest, sig).is_ok();
            assert_eq!(pinned, unpinned, "pinned against unpinned");
            assert_eq!(pinned, reference, "pinned against reference");
            pinned
        }

        #[test]
        fn pinned_verification_agrees_with_unpinned_and_reference() {
            for_each_case(0xecd5_0002, 16, |rng| {
                let (key, other) = (arb_key(rng), arb_key(rng));
                let (digest, other_digest) = (arb_digest(rng), arb_digest(rng));
                let sig = key.sign_digest(&digest);
                assert!(verdict(key.verifying_key(), &digest, &sig));
                assert!(!verdict(other.verifying_key(), &digest, &sig), "wrong key");
                assert!(!verdict(key.verifying_key(), &other_digest, &sig), "wrong digest");
            });
        }

        #[test]
        fn every_single_bit_flip_of_r_and_s_is_rejected_by_all_paths() {
            for_each_case(0xecd5_0003, 2, |rng| {
                let key = arb_key(rng);
                let pinned = PinnedKey::new(*key.verifying_key());
                let digest = arb_digest(rng);
                let bytes = key.sign_digest(&digest).to_bytes();
                for bit in 0..512 {
                    let mut flipped = bytes;
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    // A flip that leaves `[1, n-1]` does not even parse.
                    let Some(bad) = Signature::from_bytes(&flipped) else { continue };
                    assert_eq!(pinned.verify_digest(&digest, &bad), Err(VerifyError), "bit {bit}");
                    assert!(!verdict(key.verifying_key(), &digest, &bad), "bit {bit}");
                }
            });
        }

        /// The second candidate of `affine_x_reduced_eq`: a signature whose
        /// `R` has an x-coordinate in `[n, p)`, so `r = x − n` and only
        /// `r + n` matches. No signer hits it by chance (~2⁻¹²⁸), so the
        /// key is built backwards from `R`: `Q = r⁻¹·(s·R − z·G)`.
        #[test]
        fn x_coordinate_above_the_order_verifies_on_all_paths() {
            let sf = scalar_field();
            let n = order();
            for_each_case(0xecd5_0004, 4, |rng| {
                let mut r = U256::from_u64(rng.next_u64() >> 1);
                let big_r = loop {
                    let (x, carry) = r.adc(n);
                    assert!(!carry && &x < field().modulus());
                    match Point::decompress(&x, rng.next_u64() & 1 == 1) {
                        Some(point) => break point,
                        None => r = r.adc(&U256::ONE).0,
                    }
                };
                let digest = arb_digest(rng);
                let z = digest_to_scalar(&digest);
                let s = digest_to_scalar(&arb_digest(rng));
                let r_inv = sf.from_monty(&sf.inv(&sf.to_monty(&r)));
                let q = big_r
                    .mul_reference(&s)
                    .add(&Point::generator().mul_reference(&z).neg())
                    .mul_reference(&r_inv);
                let key = VerifyingKey::from_point(q).unwrap();
                let sig = Signature::from_scalars(r, s).unwrap();
                assert!(verdict(&key, &digest, &sig));
                let off_by_one = Signature::from_scalars(r.adc(&U256::ONE).0, s).unwrap();
                assert!(!verdict(&key, &digest, &off_by_one));
            });
        }
    }

    #[test]
    fn verifying_key_sec1_roundtrip() {
        let key = SigningKey::from_seed(b"sec1");
        let vk = key.verifying_key();
        let bytes = vk.to_sec1_bytes();
        assert_eq!(VerifyingKey::from_sec1_bytes(&bytes), Some(*vk));
        assert!(VerifyingKey::from_sec1_bytes(&[0x00]).is_none());
    }
}
