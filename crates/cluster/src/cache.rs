//! Byte-capacity LRU file cache.

use press_sim::IdMap;
use press_trace::FileId;

/// Slab index of a cache entry; `usize::MAX` is the null link.
type Link = usize;
const NIL: Link = usize::MAX;

#[derive(Debug, Clone)]
struct Entry {
    file: FileId,
    bytes: u64,
    prev: Link,
    next: Link,
}

/// An LRU cache of whole files, bounded by total bytes.
///
/// PRESS caches whole files in memory; a node's cache is the unit over
/// which the locality-conscious distribution operates. Recency is updated
/// on [`FileCache::touch`] (a cache hit) and on insertion.
///
/// Files larger than the capacity are refused rather than evicting the
/// entire cache (matching a server that simply streams oversized files
/// from disk).
///
/// # Example
///
/// ```
/// use press_cluster::FileCache;
/// use press_trace::FileId;
///
/// let mut c = FileCache::new(100);
/// c.insert(FileId(0), 40);
/// c.insert(FileId(1), 40);
/// c.touch(FileId(0)); // 0 is now most recent
/// let evicted = c.insert(FileId(2), 40);
/// assert_eq!(evicted, vec![FileId(1)]);
/// assert!(c.contains(FileId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct FileCache {
    capacity: u64,
    used: u64,
    map: IdMap<FileId, Link>,
    slab: Vec<Entry>,
    free: Vec<Link>,
    head: Link, // most recently used
    tail: Link, // least recently used
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl FileCache {
    /// Creates a cache holding at most `capacity_bytes` of file data.
    pub fn new(capacity_bytes: u64) -> Self {
        FileCache {
            capacity: capacity_bytes,
            used: 0,
            map: IdMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `file` is cached (does not update recency).
    pub fn contains(&self, file: FileId) -> bool {
        self.map.contains_key(&file)
    }

    /// Records an access to `file`, marking it most recently used.
    /// Returns `true` on a hit. Hit/miss statistics are updated.
    pub fn touch(&mut self, file: FileId) -> bool {
        match self.map.get(&file).copied() {
            Some(idx) => {
                self.detach(idx);
                self.attach_front(idx);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts `file` of `bytes` bytes as the most recently used entry,
    /// evicting least-recently-used files as needed. Returns the evicted
    /// files (empty if none, or if the file was already cached — which
    /// just refreshes recency).
    ///
    /// Files larger than the capacity are not cached; an empty vector is
    /// returned and the cache is unchanged.
    pub fn insert(&mut self, file: FileId, bytes: u64) -> Vec<FileId> {
        if self.map.contains_key(&file) {
            self.touch(file);
            // touch() counted a hit, but this is bookkeeping, not an access.
            self.hits -= 1;
            return Vec::new();
        }
        if bytes > self.capacity {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + bytes > self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "capacity accounting out of sync");
            evicted.push(self.slab[lru].file);
            self.remove_index(lru);
            self.evictions += 1;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Entry {
                    file,
                    bytes,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Entry {
                    file,
                    bytes,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.attach_front(idx);
        self.map.insert(file, idx);
        self.used += bytes;
        self.insertions += 1;
        evicted
    }

    /// Removes `file` if present; returns whether it was cached.
    pub fn remove(&mut self, file: FileId) -> bool {
        match self.map.get(&file).copied() {
            Some(idx) => {
                self.remove_index(idx);
                true
            }
            None => false,
        }
    }

    /// Iterates over cached files from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, u64)> + '_ {
        CacheIter {
            cache: self,
            cur: self.head,
        }
    }

    /// `(hits, misses)` recorded by [`FileCache::touch`].
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(insertions, evictions)` over the cache's lifetime.
    pub fn churn_stats(&self) -> (u64, u64) {
        (self.insertions, self.evictions)
    }

    /// Resets hit/miss/churn statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.insertions = 0;
        self.evictions = 0;
    }

    fn detach(&mut self, idx: Link) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: Link) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn remove_index(&mut self, idx: Link) {
        self.detach(idx);
        let entry = &self.slab[idx];
        self.used -= entry.bytes;
        self.map.remove(&entry.file);
        self.free.push(idx);
    }
}

struct CacheIter<'a> {
    cache: &'a FileCache,
    cur: Link,
}

impl Iterator for CacheIter<'_> {
    type Item = (FileId, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let e = &self.cache.slab[self.cur];
        self.cur = e.next;
        Some((e.file, e.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut c = FileCache::new(100);
        assert!(c.is_empty());
        c.insert(FileId(1), 10);
        assert!(c.contains(FileId(1)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 10);
    }

    #[test]
    fn evicts_lru_order() {
        let mut c = FileCache::new(30);
        c.insert(FileId(1), 10);
        c.insert(FileId(2), 10);
        c.insert(FileId(3), 10);
        // 1 is LRU; inserting 20 bytes evicts 1 and 2.
        let ev = c.insert(FileId(4), 20);
        assert_eq!(ev, vec![FileId(1), FileId(2)]);
        assert!(c.contains(FileId(3)) && c.contains(FileId(4)));
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut c = FileCache::new(30);
        c.insert(FileId(1), 10);
        c.insert(FileId(2), 10);
        c.insert(FileId(3), 10);
        assert!(c.touch(FileId(1)));
        let ev = c.insert(FileId(4), 10);
        assert_eq!(ev, vec![FileId(2)]);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = FileCache::new(20);
        c.insert(FileId(1), 10);
        c.insert(FileId(2), 10);
        let ev = c.insert(FileId(1), 10);
        assert!(ev.is_empty());
        assert_eq!(c.used_bytes(), 20);
        // 2 is now LRU.
        let ev = c.insert(FileId(3), 10);
        assert_eq!(ev, vec![FileId(2)]);
    }

    #[test]
    fn oversized_file_refused() {
        let mut c = FileCache::new(10);
        let ev = c.insert(FileId(1), 11);
        assert!(ev.is_empty());
        assert!(!c.contains(FileId(1)));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn remove_frees_space() {
        let mut c = FileCache::new(20);
        c.insert(FileId(1), 10);
        assert!(c.remove(FileId(1)));
        assert!(!c.remove(FileId(1)));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
        // Slab slot is reused.
        c.insert(FileId(2), 20);
        assert!(c.contains(FileId(2)));
    }

    #[test]
    fn hit_and_churn_stats() {
        let mut c = FileCache::new(20);
        c.insert(FileId(1), 10);
        c.touch(FileId(1));
        c.touch(FileId(2));
        assert_eq!(c.hit_stats(), (1, 1));
        c.insert(FileId(2), 10);
        c.insert(FileId(3), 10);
        assert_eq!(c.churn_stats(), (3, 1));
        c.reset_stats();
        assert_eq!(c.hit_stats(), (0, 0));
        assert_eq!(c.churn_stats(), (0, 0));
    }

    #[test]
    fn iter_most_recent_first() {
        let mut c = FileCache::new(100);
        c.insert(FileId(1), 10);
        c.insert(FileId(2), 10);
        c.touch(FileId(1));
        let order: Vec<u32> = c.iter().map(|(f, _)| f.0).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn heavy_churn_consistency() {
        let mut c = FileCache::new(1000);
        for i in 0..10_000u32 {
            c.insert(FileId(i % 500), 17);
            if i % 3 == 0 {
                c.remove(FileId((i * 7) % 500));
            }
            assert!(c.used_bytes() <= 1000);
        }
        let listed: u64 = c.iter().map(|(_, b)| b).sum();
        assert_eq!(listed, c.used_bytes());
    }
}
