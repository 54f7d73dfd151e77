//! Std-only CRC32 (IEEE 802.3 / zlib polynomial, reflected form).
//!
//! The workspace is dependency-free by policy, so the WAL carries its own
//! table-driven implementation: slicing-by-8, eight 256-entry tables
//! built at compile time, so the body of a buffer costs eight lookups
//! per 8-byte word instead of one lookup per byte; a ragged tail falls
//! back to the bytewise loop. This is the same checksum `gzip` and `zip`
//! use, so golden values are easy to cross-check (`crc32(b"123456789")
//! == 0xCBF4_3926`).

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the
/// state after byte `i` is followed by `k` zero bytes, so the eight bytes
/// of one word can be looked up independently and XORed together.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One table lookup per byte: the ragged tail of [`Crc32::update`], and
/// the reference the word loop is tested against.
fn update_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Incremental CRC32 state, for checksumming data produced in pieces
/// (the checkpoint writer streams segments through one of these).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (equivalent to having hashed zero bytes).
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(word);
            let w = u64::from_le_bytes(bytes) ^ u64::from(c);
            let t = |k: usize, shift: u32| TABLES[k][((w >> shift) & 0xFF) as usize];
            c = t(7, 0) ^ t(6, 8) ^ t(5, 16) ^ t(4, 24) ^ t(3, 32) ^ t(2, 40) ^ t(1, 48) ^ t(0, 56);
        }
        self.state = update_bytewise(c, words.remainder());
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_vectors() {
        // The canonical IEEE check value, plus a couple of edges.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut inc = Crc32::new();
        for chunk in data.chunks(7) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(data));
    }

    /// The reference: the whole buffer through the bytewise loop.
    fn reference(data: &[u8]) -> u32 {
        !update_bytewise(!0, data)
    }

    /// Deterministic bytes (xorshift), so every table lane sees varied input.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn word_loop_matches_the_bytewise_reference() {
        let buf = noise(8 + 256);
        for start in 0..8 {
            for len in 0..=256 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), reference(data), "start {start} len {len}");
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), reference(&big));
        // Incremental updates split at odd boundaries carry the state
        // across words that straddle two calls.
        let mut inc = Crc32::new();
        let mut rest = &big[..];
        for cut in [1usize, 3, 7, 9, 13, 255, 1021, 4097].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at((*cut).min(rest.len()));
            inc.update(head);
            rest = tail;
        }
        assert_eq!(inc.finish(), reference(&big));
    }

    #[test]
    fn flipping_any_bit_changes_the_checksum() {
        let data = b"cobra-wal";
        let base = crc32(data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut copy = *data;
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "bit {bit} of byte {i}");
            }
        }
    }
}
