//! A tiny string pool for literal data carried by a program.
//!
//! String literals (and the error-message strings synthesized by the CCured
//! stage) are deduplicated here; the backend later decides whether each
//! string lives in SRAM or flash.

/// A handle into a [`StringPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrId(pub u32);

/// Deduplicating pool of byte strings (NUL terminators are added by the
/// backend when the strings are placed in memory, not stored here).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct StringPool {
    strings: Vec<Vec<u8>>,
}

impl StringPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        StringPool::default()
    }

    /// Interns `s`, returning the id of an equal existing entry if present.
    pub fn intern(&mut self, s: &[u8]) -> StrId {
        if let Some(i) = self.strings.iter().position(|x| x == s) {
            return StrId(i as u32);
        }
        self.strings.push(s.to_vec());
        StrId((self.strings.len() - 1) as u32)
    }

    /// Returns the bytes for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this pool.
    pub fn get(&self, id: StrId) -> &[u8] {
        &self.strings[id.0 as usize]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(id, bytes)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StrId, &[u8])> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (StrId(i as u32), s.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut p = StringPool::new();
        let a = p.intern(b"hello");
        let b = p.intern(b"world");
        let c = p.intern(b"hello");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(b), b"world");
    }

    #[test]
    fn iter_yields_in_insertion_order() {
        let mut p = StringPool::new();
        p.intern(b"a");
        p.intern(b"b");
        let v: Vec<_> = p.iter().map(|(_, s)| s.to_vec()).collect();
        assert_eq!(v, vec![b"a".to_vec(), b"b".to_vec()]);
    }
}
