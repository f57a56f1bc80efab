//! Append-only sequences kept in fixed-size pages.
//!
//! The histories a world keeps for its whole life — trace headers and
//! bodies, connection records — reach megabytes. A `Vec` that large
//! doubles by moving: while it grows it needs the old and the new block
//! at once, and the blocks it leaves behind are too big for anything
//! else to reuse, so a process that builds one world after another ends
//! up with a resident set well above what is live. Pages are small
//! enough to be recycled by the allocator, and nothing ever moves.

/// Upper bound on one page in bytes: below the allocator's `mmap`
/// threshold, so freed pages are reused by the next world.
pub const PAGE_BYTES: usize = 64 * 1024;

/// An append-only sequence of `T` in pages of at most [`PAGE_BYTES`].
#[derive(Debug, Clone)]
pub struct Pages<T> {
    pages: Vec<Vec<T>>,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages { pages: Vec::new() }
    }
}

impl<T> Pages<T> {
    /// Items per page: the largest power of two that fits, so the first
    /// page can grow by doubling and end exactly full.
    const PER_PAGE: usize = {
        // A zero-sized `T` takes no room, anything over a page gets one.
        let fit = match PAGE_BYTES.checked_div(std::mem::size_of::<T>()) {
            None => PAGE_BYTES,
            Some(0) => 1,
            Some(n) => n,
        };
        1 << fit.ilog2()
    };

    /// Appends an item. The first page grows like any `Vec` — a short
    /// history (most worlds live for one scenario) pays for what it
    /// holds, not for a page — and later pages are allocated whole.
    pub fn push(&mut self, item: T) {
        if self.pages.last().is_none_or(|p| p.len() == Self::PER_PAGE) {
            let whole = if self.pages.is_empty() {
                0
            } else {
                Self::PER_PAGE
            };
            self.pages.push(Vec::with_capacity(whole));
        }
        self.pages.last_mut().expect("just ensured").push(item);
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match self.pages.last() {
            Some(last) => (self.pages.len() - 1) * Self::PER_PAGE + last.len(),
            None => 0,
        }
    }

    /// True when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Item `i`, if pushed.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.pages.get(i / Self::PER_PAGE)?.get(i % Self::PER_PAGE)
    }

    /// Item `i`, mutably.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.pages
            .get_mut(i / Self::PER_PAGE)?
            .get_mut(i % Self::PER_PAGE)
    }

    /// All items, in push order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten()
    }

    /// All items mutably, in push order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.pages.iter_mut().flatten()
    }

    /// Drops every item and page.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

/// An append-only arena of variable-length byte items, in pages: an
/// item is appended to the last page and lies within it, so it is
/// addressed by a page index and a range.
#[derive(Debug, Clone, Default)]
pub struct Arena {
    pages: Vec<Vec<u8>>,
}

impl Arena {
    /// A page takes items until it is this full; the slack lets the
    /// last one in without the page having to grow.
    const FULL: usize = PAGE_BYTES - 2048;

    /// The page the next item is appended to, and its index. Like
    /// [`Pages`], the first page grows from nothing (by doubling, so to
    /// exactly a page) and later ones come whole.
    pub fn tail(&mut self) -> (usize, &mut Vec<u8>) {
        if self.pages.last().is_none_or(|p| p.len() >= Self::FULL) {
            let whole = if self.pages.is_empty() { 0 } else { PAGE_BYTES };
            self.pages.push(Vec::with_capacity(whole));
        }
        let index = self.pages.len() - 1;
        (index, self.pages.last_mut().expect("just ensured"))
    }

    /// The bytes at `range` of page `page`.
    ///
    /// # Panics
    ///
    /// Panics when no item was appended there.
    pub fn get(&self, page: usize, range: std::ops::Range<usize>) -> &[u8] {
        &self.pages[page][range]
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        self.pages.iter().map(Vec::len).sum()
    }

    /// True when nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.pages.iter().all(Vec::is_empty)
    }

    /// Drops every item and page.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_across_page_boundaries() {
        let per_page = PAGE_BYTES / std::mem::size_of::<u64>();
        assert_eq!(Pages::<[u8; 24]>::PER_PAGE, 2048, "rounded down to 2^k");
        let n = 2 * per_page + 3;
        let mut p = Pages::default();
        assert!(p.is_empty());
        assert_eq!(p.get(0), None::<&u64>);
        for i in 0..n as u64 {
            p.push(i * 7);
            assert_eq!(p.len(), i as usize + 1);
        }
        for i in [0, 1, per_page - 1, per_page, 2 * per_page, n - 1] {
            assert_eq!(p.get(i), Some(&(i as u64 * 7)), "item {i}");
        }
        assert_eq!(p.get(n), None);
        *p.get_mut(per_page).unwrap() = 1;
        assert_eq!(p.iter().nth(per_page), Some(&1));
        assert_eq!(p.iter().count(), n);
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn oversize_and_zero_size_items_get_a_page_each() {
        let mut big = Pages::default();
        big.push([0u8; PAGE_BYTES + 1]);
        big.push([1u8; PAGE_BYTES + 1]);
        assert_eq!(big.len(), 2);
        assert_eq!(big.get(1).unwrap()[0], 1);
        let mut unit = Pages::default();
        unit.push(());
        unit.push(());
        assert_eq!(unit.len(), 2);
    }

    #[test]
    fn arena_items_lie_within_one_page() {
        let mut a = Arena::default();
        assert!(a.is_empty());
        let mut spans = Vec::new();
        // 20-byte items, with one larger than a page in the middle.
        for i in 0..10_000usize {
            let (page, tail) = a.tail();
            let start = tail.len();
            let n = if i == 5_000 { 2 * PAGE_BYTES } else { 20 };
            tail.extend(std::iter::repeat_n(i as u8, n));
            spans.push((page, start..start + n));
        }
        assert_eq!(a.len(), 9_999 * 20 + 2 * PAGE_BYTES);
        assert!(spans.iter().any(|(page, _)| *page > 1), "several pages");
        for (i, (page, range)) in spans.into_iter().enumerate() {
            assert!(a.get(page, range).iter().all(|&b| b == i as u8), "{i}");
        }
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }
}
