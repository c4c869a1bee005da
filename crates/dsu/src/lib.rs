//! Disjoint-set (union-find) data structures.
//!
//! The SP-bags algorithm of Feng and Leiserson — the previously best serial
//! SP-maintenance algorithm, and the *local tier* of SP-hybrid — is built on
//! disjoint sets: threads are grouped into S-bags and P-bags, bags are merged
//! with `union`, and a query is a `find` followed by an inspection of the bag
//! the representative belongs to.
//!
//! Two variants are provided, matching the paper's discussion in §5:
//!
//! * [`UnionFind`] — the classical structure with union by rank *and* path
//!   compression: O(α(m, n)) amortized per operation.  Used by the serial
//!   SP-bags algorithm.
//! * [`ConcurrentUnionFind`] — union by rank only (O(log n) worst case per
//!   `find`) with atomic parent pointers: a single owner performs
//!   `make_set`/`union` while any number of other threads may concurrently
//!   run `find`.  Path compression mutates the structure during queries,
//!   which interferes with concurrent `FIND-TRACE` operations, so the paper's
//!   local tier forgoes it.  This is the structure the SP-hybrid local tier
//!   uses.

pub mod classic;
pub mod concurrent;

pub use classic::UnionFind;
pub use concurrent::ConcurrentUnionFind;

/// Minimal interface of a serial union-find, as the SP-bags algorithm uses it.
pub trait DisjointSets {
    /// Create an empty structure with pre-reserved capacity.
    fn with_capacity(capacity: usize) -> Self
    where
        Self: Sized;

    /// Add a new singleton set and return its element id (`0, 1, 2, …`).
    fn make_set(&mut self) -> u32;

    /// Find the current representative of `x`'s set.
    fn find(&mut self, x: u32) -> u32;

    /// Merge the sets of `a` and `b`; returns the representative of the merged
    /// set.
    fn union(&mut self, a: u32, b: u32) -> u32;

    /// Are `a` and `b` currently in the same set?
    fn same_set(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of elements created so far.
    fn len(&self) -> usize;

    /// True if no elements have been created.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes used (for the Figure-3 space comparison).
    fn space_bytes(&self) -> usize;
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force model: set id per element.
    struct Model {
        set: Vec<usize>,
    }
    impl Model {
        fn new() -> Self {
            Model { set: Vec::new() }
        }
        fn make_set(&mut self) -> u32 {
            self.set.push(self.set.len());
            (self.set.len() - 1) as u32
        }
        fn union(&mut self, a: u32, b: u32) {
            let (sa, sb) = (self.set[a as usize], self.set[b as usize]);
            if sa != sb {
                for s in self.set.iter_mut() {
                    if *s == sb {
                        *s = sa;
                    }
                }
            }
        }
        fn same(&self, a: u32, b: u32) -> bool {
            self.set[a as usize] == self.set[b as usize]
        }
    }

    fn randomized_against_model<D: DisjointSets>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dsu = D::with_capacity(256);
        let mut model = Model::new();
        for _ in 0..200 {
            dsu.make_set();
            model.make_set();
        }
        for _ in 0..500 {
            let a = rng.gen_range(0..200u32);
            let b = rng.gen_range(0..200u32);
            if rng.gen_bool(0.5) {
                dsu.union(a, b);
                model.union(a, b);
            } else {
                assert_eq!(dsu.same_set(a, b), model.same(a, b));
            }
        }
        for a in 0..200u32 {
            for b in 0..200u32 {
                assert_eq!(dsu.same_set(a, b), model.same(a, b));
            }
        }
    }

    #[test]
    fn classic_matches_model() {
        randomized_against_model::<UnionFind>(1);
        randomized_against_model::<UnionFind>(2);
    }
}
