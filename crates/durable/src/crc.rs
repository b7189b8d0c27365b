//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every WAL record. Slice-by-8: eight compile-time tables let the
//! hot loop fold eight input bytes per step instead of one, which is what
//! makes checksumming a multi-megabyte checkpoint image cheap. [`Crc32`] is
//! the streaming form (the WAL checksums `seq ‖ payload` without joining
//! them); [`crc32`] is the one-shot wrapper.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][i] = the CRC register after byte `i` is followed by `k`
    // zero bytes.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// A running CRC-32: feed it byte slices in order, split anywhere, and
/// [`Crc32::finish`] equals [`crc32`] of their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A checksum over no bytes yet (standard init `!0`).
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")) ^ u64::from(crc);
            crc = TABLES[7][(v & 0xFF) as usize]
                ^ TABLES[6][((v >> 8) & 0xFF) as usize]
                ^ TABLES[5][((v >> 16) & 0xFF) as usize]
                ^ TABLES[4][((v >> 24) & 0xFF) as usize]
                ^ TABLES[3][((v >> 32) & 0xFF) as usize]
                ^ TABLES[2][((v >> 40) & 0xFF) as usize]
                ^ TABLES[1][((v >> 48) & 0xFF) as usize]
                ^ TABLES[0][(v >> 56) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (final complement applied).
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// The CRC-32 of `bytes` (standard init `!0`, final complement).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_the_crc() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() * 8 {
            data[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&data), clean, "bit {i} flip must be detected");
            data[i / 8] ^= 1 << (i % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}
