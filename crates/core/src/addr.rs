//! Word-granular addressing of the simulated shared memory.
//!
//! The simulator's memory is an arena of 64-bit words. A [`WordAddr`] is an
//! index into that arena; the corresponding *byte* address (used for
//! conflict-detection line mapping, capacity accounting and footprint
//! tracing) is `addr * 8`.

use std::fmt;

/// Number of bytes in one simulated memory word.
pub const WORD_BYTES: u64 = 8;

/// Index of a 64-bit word in the simulated memory arena.
///
/// `WordAddr` is the only pointer type the transactional API accepts, so all
/// "pointers" stored inside simulated data structures are word indices
/// encoded as `u64` values (see [`WordAddr::to_repr`] / [`WordAddr::from_repr`]).
///
/// The null pointer convention used throughout the workspace is the word
/// value `0`; the allocator never hands out word 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WordAddr(pub u32);

impl WordAddr {
    /// The reserved null address (never allocated).
    pub const NULL: WordAddr = WordAddr(0);

    /// Returns the address `self + offset` (word granularity).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the addition overflows `u32`.
    #[inline]
    pub fn offset(self, offset: u32) -> WordAddr {
        debug_assert!(self.0.checked_add(offset).is_some(), "WordAddr overflow");
        WordAddr(self.0.wrapping_add(offset))
    }

    /// Byte address of the first byte of this word.
    #[inline]
    pub fn byte_addr(self) -> u64 {
        self.0 as u64 * WORD_BYTES
    }

    /// Is this the null address?
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Encodes the address as a `u64` suitable for storing *inside* the
    /// simulated memory (a "pointer" in the simulated heap).
    #[inline]
    pub fn to_repr(self) -> u64 {
        self.0 as u64
    }

    /// Decodes an address previously encoded with [`WordAddr::to_repr`].
    ///
    /// # Panics
    ///
    /// Panics if `repr` does not fit in the 32-bit address space; that
    /// indicates a corrupted simulated pointer.
    #[inline]
    pub fn from_repr(repr: u64) -> WordAddr {
        assert!(repr <= u32::MAX as u64, "corrupt simulated pointer: {repr:#x}");
        WordAddr(repr as u32)
    }
}

impl fmt::Debug for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:#x}", self.0)
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a conflict-detection line: the byte address right-shifted by
/// the platform's conflict-detection granularity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub u32);

impl fmt::Debug for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Conflict-detection geometry: maps word addresses to [`LineId`]s.
///
/// The granularity is the platform's conflict-detection granularity from
/// Table 1 of the paper (8–256 bytes). A larger granularity means more
/// *false conflicts*: distinct variables sharing a line conflict even though
/// the program never races on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    line_bytes: u32,
    line_shift: u32,
}

impl Geometry {
    /// Creates a geometry with the given conflict-detection line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or is smaller than one
    /// word (8 bytes).
    pub fn new(line_bytes: u32) -> Geometry {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= WORD_BYTES as u32,
            "line size must be a power of two >= 8, got {line_bytes}"
        );
        Geometry { line_bytes, line_shift: line_bytes.trailing_zeros() }
    }

    /// The conflict-detection line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of words per conflict-detection line.
    #[inline]
    pub fn words_per_line(&self) -> u32 {
        self.line_bytes / WORD_BYTES as u32
    }

    /// Maps a word address to its conflict-detection line.
    #[inline]
    pub fn line_of(&self, addr: WordAddr) -> LineId {
        LineId((addr.byte_addr() >> self.line_shift) as u32)
    }

    /// Number of lines needed to cover an arena of `words` words.
    #[inline]
    pub fn lines_for(&self, words: u32) -> usize {
        let bytes = words as u64 * WORD_BYTES;
        bytes.div_ceil(self.line_bytes as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_addr_byte_mapping() {
        assert_eq!(WordAddr(0).byte_addr(), 0);
        assert_eq!(WordAddr(1).byte_addr(), 8);
        assert_eq!(WordAddr(100).byte_addr(), 800);
    }

    #[test]
    fn null_round_trip() {
        assert!(WordAddr::NULL.is_null());
        assert_eq!(WordAddr::from_repr(WordAddr::NULL.to_repr()), WordAddr::NULL);
        let a = WordAddr(0xdead);
        assert_eq!(WordAddr::from_repr(a.to_repr()), a);
        assert!(!a.is_null());
    }

    #[test]
    #[should_panic(expected = "corrupt simulated pointer")]
    fn from_repr_rejects_oversized() {
        let _ = WordAddr::from_repr(u64::MAX);
    }

    #[test]
    fn geometry_line_mapping_64b() {
        let g = Geometry::new(64);
        assert_eq!(g.words_per_line(), 8);
        // Words 0..8 share line 0, words 8..16 are line 1.
        assert_eq!(g.line_of(WordAddr(0)), LineId(0));
        assert_eq!(g.line_of(WordAddr(7)), LineId(0));
        assert_eq!(g.line_of(WordAddr(8)), LineId(1));
    }

    #[test]
    fn geometry_line_mapping_256b() {
        let g = Geometry::new(256);
        assert_eq!(g.words_per_line(), 32);
        assert_eq!(g.line_of(WordAddr(31)), LineId(0));
        assert_eq!(g.line_of(WordAddr(32)), LineId(1));
    }

    #[test]
    fn geometry_smallest_granularity_is_one_word() {
        let g = Geometry::new(8);
        assert_eq!(g.line_of(WordAddr(5)), LineId(5));
        assert_eq!(g.words_per_line(), 1);
    }

    #[test]
    fn lines_for_rounds_up() {
        let g = Geometry::new(64);
        assert_eq!(g.lines_for(0), 0);
        assert_eq!(g.lines_for(1), 1);
        assert_eq!(g.lines_for(8), 1);
        assert_eq!(g.lines_for(9), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_power_of_two() {
        let _ = Geometry::new(48);
    }

    #[test]
    fn offset_arithmetic() {
        let a = WordAddr(10);
        assert_eq!(a.offset(5), WordAddr(15));
        assert_eq!(a.offset(0), a);
    }
}
