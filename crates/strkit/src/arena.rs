//! Flat character arenas and string handles.
//!
//! A [`StringSet`] owns one contiguous character buffer plus an array of
//! [`StrRef`] handles. This mirrors the paper's model (§II): "string arrays
//! are usually represented as arrays of pointers to the beginning of the
//! strings. Thus, entire strings can be moved or swapped in constant time."
//!
//! Handles are `(u32 offset, u32 length)` pairs, capping a single PE's
//! arena at 4 GiB of characters — ample for per-PE shards and half the
//! memory of pointer-based handles, which matters for sorting throughput
//! (fewer bytes moved per swap).

/// Handle to one string inside a [`StringSet`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrRef {
    /// Byte offset of the first character in the arena.
    pub begin: u32,
    /// Number of characters (the implicit 0-terminator is *not* stored).
    pub len: u32,
}

impl StrRef {
    /// End offset (one past the last character).
    #[inline]
    pub fn end(self) -> u32 {
        self.begin + self.len
    }
}

/// A set of strings backed by a flat character arena.
///
/// The string *order* lives in the handle array and is freely permutable;
/// the character data never moves once pushed.
#[derive(Debug, Default, Clone)]
pub struct StringSet {
    data: Vec<u8>,
    strs: Vec<StrRef>,
}

impl StringSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with pre-allocated capacity.
    pub fn with_capacity(num_strings: usize, num_chars: usize) -> Self {
        Self {
            data: Vec::with_capacity(num_chars),
            strs: Vec::with_capacity(num_strings),
        }
    }

    /// Builds a set from anything yielding byte slices.
    pub fn from_iter_bytes<'a>(iter: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut set = Self::new();
        for s in iter {
            set.push(s);
        }
        set
    }

    /// Builds a set from string literals (convenience for tests/examples).
    pub fn from_strs(strs: &[&str]) -> Self {
        Self::from_iter_bytes(strs.iter().map(|s| s.as_bytes()))
    }

    /// Appends one string. Returns its handle.
    ///
    /// The set stores any bytes; the sorters reserve byte 0 as the
    /// implicit end-of-string sentinel and check for it where they take
    /// their input (the distributed sorters in every build, naming the PE
    /// and string; the sequential ones in debug builds).
    ///
    /// # Panics
    /// If the arena would exceed `u32::MAX` characters.
    pub fn push(&mut self, s: &[u8]) -> StrRef {
        let begin = u32::try_from(self.data.len()).expect("arena exceeds u32 range");
        let len = u32::try_from(s.len()).expect("string exceeds u32 range");
        assert!(
            self.data.len() + s.len() <= u32::MAX as usize,
            "arena exceeds u32 range"
        );
        self.data.extend_from_slice(s);
        let r = StrRef { begin, len };
        self.strs.push(r);
        r
    }

    /// Number of strings (`n` in the paper's notation for one PE).
    pub fn len(&self) -> usize {
        self.strs.len()
    }

    /// Whether the set holds no strings.
    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }

    /// Total number of characters over all *live* handles.
    ///
    /// Equals the paper's `N` for this set as long as handles and arena
    /// are in 1:1 correspondence (always true unless handles were removed).
    pub fn num_chars(&self) -> usize {
        self.strs.iter().map(|r| r.len as usize).sum()
    }

    /// Raw arena size in bytes (may exceed [`Self::num_chars`] after
    /// handle-level truncation, e.g. when PDMS trims to distinguishing
    /// prefixes).
    pub fn arena_len(&self) -> usize {
        self.data.len()
    }

    /// Allocated arena capacity in bytes. With exact pre-reservation this
    /// stays equal to [`Self::arena_len`] across an append loop — tests
    /// use that to assert the hot paths never reallocate mid-merge.
    pub fn arena_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Allocated handle-array capacity, in strings.
    pub fn refs_capacity(&self) -> usize {
        self.strs.capacity()
    }

    /// Pre-allocates room for exactly `num_strings` additional handles and
    /// `num_chars` additional characters (no amortized over-allocation:
    /// callers pass exact totals computed ahead of an append loop).
    pub fn reserve(&mut self, num_strings: usize, num_chars: usize) {
        self.strs.reserve_exact(num_strings);
        self.data.reserve_exact(num_chars);
    }

    /// Borrows string `i` in current order.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        self.str_bytes(self.strs[i])
    }

    /// Borrows the characters of an arbitrary handle.
    #[inline]
    pub fn str_bytes(&self, r: StrRef) -> &[u8] {
        &self.data[r.begin as usize..r.end() as usize]
    }

    /// Character of handle `r` at position `depth`, or 0 (the sentinel)
    /// past the end. This is the paper's 0-terminated access pattern.
    #[inline]
    pub fn char_at(&self, r: StrRef, depth: u32) -> u8 {
        if depth < r.len {
            self.data[(r.begin + depth) as usize]
        } else {
            0
        }
    }

    /// The handle array in current order.
    pub fn refs(&self) -> &[StrRef] {
        &self.strs
    }

    /// Mutable handle array (for permuting / truncating).
    pub fn refs_mut(&mut self) -> &mut [StrRef] {
        &mut self.strs
    }

    /// The raw character arena.
    pub fn arena(&self) -> &[u8] {
        &self.data
    }

    /// Splits into parts for zero-copy sorting:
    /// `(arena, handles)`.
    pub fn as_parts_mut(&mut self) -> (&[u8], &mut [StrRef]) {
        (&self.data, &mut self.strs)
    }

    /// Iterates over strings in current order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.strs.iter().map(move |&r| self.str_bytes(r))
    }

    /// Replaces the handle array (must reference valid arena ranges).
    pub fn set_refs(&mut self, refs: Vec<StrRef>) {
        debug_assert!(refs
            .iter()
            .all(|r| r.end() as usize <= self.data.len() && r.begin <= r.end()));
        self.strs = refs;
    }

    /// Appends all strings of `other`, preserving its current order.
    pub fn extend_from(&mut self, other: &StringSet) {
        for s in other.iter() {
            self.push(s);
        }
    }

    /// Truncates the handle of string `i` to at most `max_len` characters
    /// (used by PDMS to keep only approximated distinguishing prefixes;
    /// the arena itself is untouched).
    pub fn truncate_str(&mut self, i: usize, max_len: u32) {
        let r = &mut self.strs[i];
        r.len = r.len.min(max_len);
    }

    /// Copies the strings (in current order) into owned `Vec<u8>`s.
    /// Test/diagnostic helper, not used on hot paths.
    pub fn to_vecs(&self) -> Vec<Vec<u8>> {
        self.iter().map(|s| s.to_vec()).collect()
    }

    /// Lengths of all strings in current order.
    pub fn lens(&self) -> Vec<u32> {
        self.strs.iter().map(|r| r.len).collect()
    }
}

impl<'a> FromIterator<&'a [u8]> for StringSet {
    fn from_iter<T: IntoIterator<Item = &'a [u8]>>(iter: T) -> Self {
        Self::from_iter_bytes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut set = StringSet::new();
        let a = set.push(b"alpha");
        let b = set.push(b"beta");
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(0), b"alpha");
        assert_eq!(set.get(1), b"beta");
        assert_eq!(set.str_bytes(a), b"alpha");
        assert_eq!(set.str_bytes(b), b"beta");
        assert_eq!(set.num_chars(), 9);
    }

    #[test]
    fn char_at_returns_sentinel_past_end() {
        let mut set = StringSet::new();
        let r = set.push(b"ab");
        assert_eq!(set.char_at(r, 0), b'a');
        assert_eq!(set.char_at(r, 1), b'b');
        assert_eq!(set.char_at(r, 2), 0);
        assert_eq!(set.char_at(r, 100), 0);
    }

    #[test]
    fn empty_string_is_fine() {
        let mut set = StringSet::new();
        let r = set.push(b"");
        assert_eq!(set.str_bytes(r), b"");
        assert_eq!(set.char_at(r, 0), 0);
    }

    #[test]
    fn refs_are_permutable_without_moving_chars() {
        let mut set = StringSet::from_strs(&["bbb", "aaa"]);
        let arena_before = set.arena().to_vec();
        set.refs_mut().swap(0, 1);
        assert_eq!(set.get(0), b"aaa");
        assert_eq!(set.get(1), b"bbb");
        assert_eq!(set.arena(), arena_before.as_slice());
    }

    #[test]
    fn truncate_str_shrinks_handle_only() {
        let mut set = StringSet::from_strs(&["abcdef"]);
        set.truncate_str(0, 3);
        assert_eq!(set.get(0), b"abc");
        assert_eq!(set.arena_len(), 6);
        set.truncate_str(0, 100); // cannot grow back
        assert_eq!(set.get(0), b"abc");
    }

    #[test]
    #[should_panic(expected = "0 sentinel byte")]
    #[cfg(debug_assertions)]
    fn rejects_sentinel_byte() {
        // The set stores any bytes; sorting rejects the sentinel.
        let mut set = StringSet::new();
        set.push(b"a\0b");
        crate::sort::sort_with_lcp(&mut set);
    }

    #[test]
    fn exact_reserve_prevents_growth() {
        let mut set = StringSet::with_capacity(3, 9);
        for s in [b"abc".as_ref(), b"defg", b"hi"] {
            set.push(s);
        }
        assert_eq!(set.arena_capacity(), 9);
        assert_eq!(set.refs_capacity(), 3);
        set.reserve(1, 4);
        set.push(b"jklm");
        assert_eq!(set.arena_capacity(), 13);
        assert_eq!(set.arena_len(), 13);
    }

    #[test]
    fn from_iter_collects() {
        let raw: Vec<&[u8]> = vec![b"x", b"yy"];
        let set: StringSet = raw.iter().copied().collect();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(1), b"yy");
    }
}
