//! Classical union-find with union by rank and iterative path compression.
//!
//! This is the structure used by the serial SP-bags algorithm (Feng &
//! Leiserson) and referenced in Figure 3 of the paper: every operation costs
//! O(α(m, n)) amortized, where α is Tarjan's functional inverse of Ackermann's
//! function.

/// Union-find with union by rank + path compression.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Total number of parent-pointer hops taken by `find` (benchmark metric).
    find_steps: u64,
}

impl UnionFind {
    /// Create an empty structure with reserved capacity.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Total parent-pointer hops performed by all `find` calls so far.
    pub fn find_steps(&self) -> u64 {
        self.find_steps
    }

    /// Current parent pointer of `x` (read-only; used by callers that need a
    /// non-compressing find, e.g. the SP-bags query path which takes `&self`).
    #[inline]
    pub fn parent_of(&self, x: u32) -> u32 {
        self.parent[x as usize]
    }

    #[inline]
    fn root(&mut self, mut x: u32) -> u32 {
        // First pass: locate the root.
        let mut r = x;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
            self.find_steps += 1;
        }
        // Second pass: path compression.
        while self.parent[x as usize] != r {
            let next = self.parent[x as usize];
            self.parent[x as usize] = r;
            x = next;
        }
        r
    }

    /// Create an empty structure with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        UnionFind {
            parent: Vec::with_capacity(capacity),
            rank: Vec::with_capacity(capacity),
            find_steps: 0,
        }
    }

    /// Add a new singleton set and return its element id (`0, 1, 2, …`).
    pub fn make_set(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// Find the current representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        self.root(x)
    }

    /// Merge the sets of `a` and `b`; returns the representative of the
    /// merged set.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.root(a);
        let rb = self.root(b);
        if ra == rb {
            return ra;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[hi as usize] += 1;
        }
        hi
    }

    /// Are `a` and `b` currently in the same set?
    pub fn same_set(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of elements created so far.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if no elements have been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes used (for the Figure-3 space comparison).
    pub fn space_bytes(&self) -> usize {
        self.parent.capacity() * std::mem::size_of::<u32>()
            + self.rank.capacity()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_representatives() {
        let mut uf = UnionFind::new();
        for i in 0..100u32 {
            assert_eq!(uf.make_set(), i);
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_chains_collapse() {
        let mut uf = UnionFind::with_capacity(1000);
        for _ in 0..1000 {
            uf.make_set();
        }
        for i in 0..999u32 {
            uf.union(i, i + 1);
        }
        let r = uf.find(0);
        for i in 0..1000u32 {
            assert_eq!(uf.find(i), r);
        }
        // After path compression, further finds are near-free.
        let before = uf.find_steps();
        for i in 0..1000u32 {
            uf.find(i);
        }
        let after = uf.find_steps();
        assert!(
            after - before <= 1000,
            "path compression should flatten the forest: {} extra hops",
            after - before
        );
    }

    #[test]
    fn union_by_rank_keeps_trees_shallow() {
        let mut uf = UnionFind::with_capacity(1 << 12);
        for _ in 0..(1 << 12) {
            uf.make_set();
        }
        // Balanced pairwise unions: rank grows logarithmically.
        let mut step = 1u32;
        while step < (1 << 12) {
            let mut i = 0u32;
            while i + step < (1 << 12) {
                uf.union(i, i + step);
                i += step * 2;
            }
            step *= 2;
        }
        assert!(uf.rank.iter().all(|&r| r <= 13));
        let r = uf.find(0);
        assert_eq!(uf.find((1 << 12) - 1), r);
    }

    #[test]
    fn union_returns_merged_representative() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        let r = uf.union(a, b);
        assert_eq!(uf.find(a), r);
        assert_eq!(uf.find(b), r);
        // Unioning already-joined sets is a no-op returning the same root.
        assert_eq!(uf.union(a, b), r);
    }
}
