//! xxhash64 — the record checksum.
//!
//! A faithful implementation of the XXH64 algorithm (Yann Collet), chosen
//! over CRC for the same reason real WAL implementations choose it: it is
//! a few times faster than table-driven CRC64 at equal error-detection
//! strength for this use (whole-record verification, not streaming error
//! correction), and the reference vectors below pin the implementation so
//! a future refactor cannot silently change every checksum on disk.

const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME2))
        .rotate_left(31)
        .wrapping_mul(PRIME1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(PRIME1).wrapping_add(PRIME4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

#[inline]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

/// XXH64 of `data` under `seed`.
pub fn xxhash64(data: &[u8], seed: u64) -> u64 {
    Xxh64::new(seed).update(data).finish()
}

/// XXH64 fed in pieces: [`Xxh64::finish`] equals [`xxhash64`] over the
/// concatenation of every [`Xxh64::update`], wherever the pieces split. The
/// WAL checksums a record's header fields and payload this way, without
/// first copying them into one buffer.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    seed: u64,
    /// The four lane accumulators.
    acc: [u64; 4],
    /// Bytes not yet folded into a full 32-byte stripe.
    pending: [u8; 32],
    npending: usize,
    total: u64,
}

impl Xxh64 {
    /// A hasher that has seen no bytes.
    pub fn new(seed: u64) -> Xxh64 {
        Xxh64 {
            seed,
            acc: [
                seed.wrapping_add(PRIME1).wrapping_add(PRIME2),
                seed.wrapping_add(PRIME2),
                seed,
                seed.wrapping_sub(PRIME1),
            ],
            pending: [0; 32],
            npending: 0,
            total: 0,
        }
    }

    /// Feed the next bytes.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.total += data.len() as u64;
        if self.npending > 0 {
            let take = (32 - self.npending).min(data.len());
            self.pending[self.npending..self.npending + take].copy_from_slice(&data[..take]);
            self.npending += take;
            data = &data[take..];
            if self.npending < 32 {
                return self;
            }
            let stripe = self.pending;
            self.stripes(&stripe);
            self.npending = 0;
        }
        let whole = data.len() - data.len() % 32;
        self.stripes(&data[..whole]);
        let rest = &data[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.npending = rest.len();
        self
    }

    /// Fold whole 32-byte stripes into the lanes.
    fn stripes(&mut self, data: &[u8]) {
        let [mut v1, mut v2, mut v3, mut v4] = self.acc;
        for s in data.chunks_exact(32) {
            v1 = round(v1, read_u64(&s[0..]));
            v2 = round(v2, read_u64(&s[8..]));
            v3 = round(v3, read_u64(&s[16..]));
            v4 = round(v4, read_u64(&s[24..]));
        }
        self.acc = [v1, v2, v3, v4];
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let [v1, v2, v3, v4] = self.acc;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.acc {
                h = merge_round(h, v);
            }
            h
        } else {
            self.seed.wrapping_add(PRIME5)
        };

        h = h.wrapping_add(self.total);

        let mut rest = &self.pending[..self.npending];
        while rest.len() >= 8 {
            h = (h ^ round(0, read_u64(rest)))
                .rotate_left(27)
                .wrapping_mul(PRIME1)
                .wrapping_add(PRIME4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            h = (h ^ u64::from(read_u32(rest)).wrapping_mul(PRIME1))
                .rotate_left(23)
                .wrapping_mul(PRIME2)
                .wrapping_add(PRIME3);
            rest = &rest[4..];
        }
        for &byte in rest {
            h = (h ^ u64::from(byte).wrapping_mul(PRIME5))
                .rotate_left(11)
                .wrapping_mul(PRIME1);
        }

        h ^= h >> 33;
        h = h.wrapping_mul(PRIME2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME3);
        h ^= h >> 32;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the canonical xxHash test suite — these pin
    /// the implementation to the real XXH64, so checksums written today
    /// stay readable by any future (or external) implementation.
    #[test]
    fn reference_vectors() {
        assert_eq!(xxhash64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxhash64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxhash64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxhash64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn seed_and_length_sensitivity() {
        let data = [7u8; 100];
        assert_ne!(xxhash64(&data, 0), xxhash64(&data, 1));
        assert_ne!(xxhash64(&data[..99], 0), xxhash64(&data, 0));
        // Single-bit sensitivity at every byte position of a 40-byte record.
        let base = [0u8; 40];
        let h0 = xxhash64(&base, 42);
        for i in 0..40 {
            let mut flipped = base;
            flipped[i] ^= 1;
            assert_ne!(xxhash64(&flipped, 42), h0, "flip at {i} undetected");
        }
    }
}
