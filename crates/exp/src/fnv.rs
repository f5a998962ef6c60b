/// 64-bit FNV-1a (dependency-free, stable across platforms and runs).
/// `include!`d by the cache and by the build script that hashes the
/// simulator sources, so both hash with one routine.
pub fn fnv64(bytes: impl AsRef<[u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes.as_ref() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
