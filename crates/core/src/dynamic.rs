//! Dynamic predicates (paper §4.2, §4.5, §4.6).
//!
//! The extensional database normally lives in dynamic predicates: facts
//! (and rules) modifiable one tuple at a time through `assert`/`retract`.
//! "Each dynamic clause is compiled as though it were defined by a rule with
//! a single literal as its body" — here each clause is stored as a canonical
//! cell sequence (the same representation compiled facts decode from), so
//! dynamic facts execute at essentially the same speed as compiled ones.
//!
//! Indexing follows §4.5: hash on the outer functor symbol of any field, or
//! a joint index on up to 3 fields; any number of distinct indexes per
//! predicate; the first index whose fields are all bound at call time is
//! used, falling back to a scan.

use crate::cell::{Cell, Tag};
use crate::table::skip_canon_term;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// One index: the (0-based) fields of a joint hash key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexSpec {
    pub fields: Vec<u16>,
}

/// A stored clause. `canon` holds `arity` head-argument roots followed by
/// one body-goal root when `has_body`.
#[derive(Clone, Debug)]
pub struct DynClause {
    pub canon: Rc<[Cell]>,
    pub has_body: bool,
    /// ordering key: asserta counts down, assertz counts up
    pub seq: i64,
    pub live: bool,
    /// outer token of each head argument (`None` = variable)
    pub tokens: Vec<Option<Cell>>,
}

/// A dynamic predicate's clause store plus its hash indexes.
#[derive(Debug)]
pub struct DynPred {
    arity: u16,
    clauses: Vec<DynClause>,
    specs: Vec<IndexSpec>,
    /// one map per spec: joint key hash → clause ids
    maps: Vec<HashMap<u64, Vec<u32>>>,
    /// per spec: clauses with a variable in an indexed field (match any key)
    var_buckets: Vec<Vec<u32>>,
    next_front: i64,
    next_back: i64,
    live_count: usize,
    /// true once asserta has been used (bucket order then needs a sort)
    any_front: bool,
}

impl DynPred {
    /// A new store with the default first-argument index.
    pub fn new(arity: u16) -> DynPred {
        let specs = if arity > 0 {
            vec![IndexSpec { fields: vec![0] }]
        } else {
            vec![]
        };
        let n = specs.len();
        DynPred {
            arity,
            clauses: Vec::new(),
            specs,
            maps: vec![HashMap::new(); n],
            var_buckets: vec![Vec::new(); n],
            next_front: -1,
            next_back: 1,
            live_count: 0,
            any_front: false,
        }
    }

    pub fn arity(&self) -> u16 {
        self.arity
    }

    pub fn index_specs(&self) -> &[IndexSpec] {
        &self.specs
    }

    pub fn len(&self) -> usize {
        self.live_count
    }

    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    pub fn clause(&self, id: u32) -> &DynClause {
        &self.clauses[id as usize]
    }

    /// Replaces the index set (e.g. from an `:- index(p/5,[1,2,3+5])`
    /// directive), rebuilding the maps over existing clauses.
    pub fn set_indexes(&mut self, specs: Vec<IndexSpec>) -> Result<(), String> {
        for s in &specs {
            if s.fields.is_empty() || s.fields.len() > 3 {
                return Err("joint indexes are limited to 1..=3 fields".into());
            }
            if s.fields.iter().any(|&f| f >= self.arity) {
                return Err(format!("index field out of range for arity {}", self.arity));
            }
        }
        self.specs = specs;
        self.maps = vec![HashMap::new(); self.specs.len()];
        self.var_buckets = vec![Vec::new(); self.specs.len()];
        for id in 0..self.clauses.len() as u32 {
            if self.clauses[id as usize].live {
                self.index_clause(id);
            }
        }
        Ok(())
    }

    fn key_of(&self, spec: &IndexSpec, tokens: &[Option<Cell>]) -> Option<u64> {
        let mut h = DefaultHasher::new();
        for &f in &spec.fields {
            match tokens[f as usize] {
                Some(c) => c.0.hash(&mut h),
                None => return None, // variable in an indexed field
            }
        }
        Some(h.finish())
    }

    fn index_clause(&mut self, id: u32) {
        let tokens = self.clauses[id as usize].tokens.clone();
        for (si, spec) in self.specs.clone().iter().enumerate() {
            match self.key_of(spec, &tokens) {
                Some(k) => self.maps[si].entry(k).or_default().push(id),
                None => self.var_buckets[si].push(id),
            }
        }
    }

    /// Inserts a clause at the end (`assertz`) or front (`asserta`),
    /// indexed by the outer tokens of its head arguments.
    pub fn insert(&mut self, canon: Rc<[Cell]>, has_body: bool, at_front: bool) -> u32 {
        let tokens = canon_tokens(&canon, self.arity);
        let seq = if at_front {
            self.any_front = true;
            let s = self.next_front;
            self.next_front -= 1;
            s
        } else {
            let s = self.next_back;
            self.next_back += 1;
            s
        };
        let id = self.clauses.len() as u32;
        self.clauses.push(DynClause {
            canon,
            has_body,
            seq,
            live: true,
            tokens,
        });
        self.live_count += 1;
        self.index_clause(id);
        id
    }

    /// Marks a clause removed (logical delete; candidates filter on `live`).
    pub fn remove(&mut self, id: u32) {
        let c = &mut self.clauses[id as usize];
        if c.live {
            c.live = false;
            self.live_count -= 1;
        }
    }

    /// Undoes a [`DynPred::remove`] (transaction rollback / recovery undo).
    /// Safe because `remove` is a logical delete: the clause body and its
    /// index entries are retained, and candidate lookup filters on `live`.
    pub fn revive(&mut self, id: u32) {
        let c = &mut self.clauses[id as usize];
        if !c.live {
            c.live = true;
            self.live_count += 1;
        }
    }

    /// Candidate clause ids for a call whose argument outer tokens are
    /// `call_tokens` (`None` = unbound). Uses the first index whose fields
    /// are all bound; otherwise scans. Results are live clauses in clause
    /// order (`seq`).
    pub fn candidates(&self, call_tokens: &[Option<Cell>]) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidates_into(call_tokens, &mut out);
        out
    }

    /// Allocation-free variant of [`DynPred::candidates`]: fills `out`
    /// (cleared first) — the hot path of dynamic predicate dispatch.
    pub fn candidates_into(&self, call_tokens: &[Option<Cell>], out: &mut Vec<u32>) {
        debug_assert_eq!(call_tokens.len(), self.arity as usize);
        out.clear();
        for (si, spec) in self.specs.iter().enumerate() {
            let Some(key) = self.key_of(spec, call_tokens) else {
                continue;
            };
            if let Some(bucket) = self.maps[si].get(&key) {
                out.extend(bucket.iter().copied());
            }
            let vars_empty = self.var_buckets[si].is_empty();
            out.extend(self.var_buckets[si].iter().copied());
            out.retain(|&id| self.clauses[id as usize].live);
            // assertz-only buckets are already in clause order
            if self.any_front || !vars_empty {
                out.sort_by_key(|&id| self.clauses[id as usize].seq);
            }
            return;
        }
        // no usable index: scan in clause order
        out.extend((0..self.clauses.len() as u32).filter(|&id| self.clauses[id as usize].live));
        out.sort_by_key(|&id| self.clauses[id as usize].seq);
    }

    /// All live clause ids in order (used by `retract` and bulk dumps).
    pub fn all_live(&self) -> Vec<u32> {
        let mut out: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&id| self.clauses[id as usize].live)
            .collect();
        out.sort_by_key(|&id| self.clauses[id as usize].seq);
        out
    }

    /// Removes every clause (predicate-level retraction, paper §4.2).
    pub fn retract_all(&mut self) {
        self.clauses.clear();
        for m in &mut self.maps {
            m.clear();
        }
        for v in &mut self.var_buckets {
            v.clear();
        }
        self.live_count = 0;
        self.next_front = -1;
        self.next_back = 1;
    }
}

/// The index token of each of the `arity` head-argument roots of a
/// canonical clause: a `TVar` root indexes as "variable" (`None`); any
/// other root cell *is* its own outer token — the `Fun` cell of a
/// structure is exactly what [`outer_token`] yields for it on the heap.
pub fn canon_tokens(canon: &[Cell], arity: u16) -> Vec<Option<Cell>> {
    let mut pos = 0;
    (0..arity)
        .map(|_| {
            let root = canon[pos];
            pos = skip_canon_term(canon, pos);
            (root.tag() != Tag::TVar).then_some(root)
        })
        .collect()
}

/// The outer token of a dereferenced cell for indexing purposes:
/// `None` for an unbound variable, the constant itself for CON/INT, the
/// functor cell for structures, `'.'/2` for lists. "All XSB hash-based
/// indexing uses only the outer functor symbol of a given argument."
pub fn outer_token(c: Cell, heap: &[Cell]) -> Option<Cell> {
    match c.tag() {
        Tag::Ref => None,
        Tag::Con | Tag::Int => Some(c),
        Tag::Str => Some(heap[c.addr()]),
        Tag::Lis => Some(Cell::fun(xsb_syntax::well_known::DOT, 2)),
        Tag::Fun | Tag::TVar => unreachable!("outer_token of non-term cell"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsb_syntax::Sym;

    fn tok(i: i64) -> Option<Cell> {
        Some(Cell::int(i))
    }

    /// A fact whose head arguments are the given tokens (`None` = a
    /// fresh variable).
    fn fact(args: &[Option<Cell>]) -> Rc<[Cell]> {
        args.iter()
            .enumerate()
            .map(|(i, a)| a.unwrap_or(Cell::tvar(i)))
            .collect()
    }

    #[test]
    fn default_first_arg_index() {
        let mut p = DynPred::new(2);
        let a = p.insert(fact(&[tok(1), tok(10)]), false, false);
        let b = p.insert(fact(&[tok(2), tok(20)]), false, false);
        let c = p.insert(fact(&[tok(1), tok(30)]), false, false);
        assert_eq!(p.candidates(&[tok(1), None]), vec![a, c]);
        assert_eq!(p.candidates(&[tok(2), None]), vec![b]);
        assert_eq!(p.candidates(&[tok(3), None]), Vec::<u32>::new());
        // unbound first arg: no usable index → scan all
        assert_eq!(p.candidates(&[None, tok(10)]), vec![a, b, c]);
    }

    #[test]
    fn joint_index_on_two_fields() {
        let mut p = DynPred::new(3);
        p.set_indexes(vec![IndexSpec { fields: vec![0, 2] }])
            .unwrap();
        let a = p.insert(fact(&[tok(1), tok(5), tok(7)]), false, false);
        let _b = p.insert(fact(&[tok(1), tok(5), tok(8)]), false, false);
        assert_eq!(p.candidates(&[tok(1), None, tok(7)]), vec![a]);
        // only one field bound → joint index unusable → scan
        assert_eq!(p.candidates(&[tok(1), None, None]).len(), 2);
    }

    #[test]
    fn multiple_indexes_first_usable_wins() {
        // paper example: index(p/5,[1,2,3+5])
        let mut p = DynPred::new(5);
        p.set_indexes(vec![
            IndexSpec { fields: vec![0] },
            IndexSpec { fields: vec![1] },
            IndexSpec { fields: vec![2, 4] },
        ])
        .unwrap();
        let a = p.insert(
            fact(&[tok(1), tok(2), tok(3), tok(4), tok(5)]),
            false,
            false,
        );
        let _b = p.insert(
            fact(&[tok(9), tok(2), tok(3), tok(9), tok(5)]),
            false,
            false,
        );
        // first arg unbound, second bound → second index used
        assert_eq!(p.candidates(&[None, tok(2), None, None, None]).len(), 2);
        // only third+fifth bound → joint index used
        assert_eq!(p.candidates(&[None, None, tok(3), None, tok(5)]).len(), 2);
        // first bound → most selective here
        assert_eq!(p.candidates(&[tok(1), None, None, None, None]), vec![a]);
    }

    #[test]
    fn var_headed_clauses_match_every_key() {
        let mut p = DynPred::new(1);
        let a = p.insert(fact(&[tok(1)]), false, false);
        let v = p.insert(fact(&[None]), false, false); // p(X).
        assert_eq!(p.candidates(&[tok(1)]), vec![a, v]);
        assert_eq!(p.candidates(&[tok(99)]), vec![v]);
    }

    #[test]
    fn asserta_orders_before_assertz() {
        let mut p = DynPred::new(1);
        let b = p.insert(fact(&[tok(1)]), false, false);
        let a = p.insert(fact(&[tok(1)]), false, true); // asserta
        assert_eq!(p.candidates(&[tok(1)]), vec![a, b]);
    }

    #[test]
    fn remove_hides_clause() {
        let mut p = DynPred::new(1);
        let a = p.insert(fact(&[tok(1)]), false, false);
        let b = p.insert(fact(&[tok(1)]), false, false);
        p.remove(a);
        assert_eq!(p.candidates(&[tok(1)]), vec![b]);
        assert_eq!(p.len(), 1);
        p.retract_all();
        assert!(p.is_empty());
    }

    #[test]
    fn structure_tokens_index_by_outer_functor() {
        // heap: f(1) and g(1)
        let f = Sym(100);
        let g = Sym(101);
        let heap = vec![Cell::fun(f, 1), Cell::int(1), Cell::fun(g, 1), Cell::int(1)];
        let tf = outer_token(Cell::str(0), &heap);
        let tg = outer_token(Cell::str(2), &heap);
        assert_eq!(tf, Some(Cell::fun(f, 1)));
        assert_ne!(tf, tg);
        // the canonical clause p(f(1)) is the heap term's own cells
        let mut p = DynPred::new(1);
        let a = p.insert(Rc::from(&heap[0..2]), false, false);
        let _b = p.insert(Rc::from(&heap[2..4]), false, false);
        assert_eq!(p.candidates(&[tf]), vec![a]);
    }

    #[test]
    fn canon_tokens_skips_subterms() {
        let f = Sym(100);
        // p(f(1,2), X, 3): roots at 0 (f/2 spans 3 cells), 3 (tvar), 4 (int)
        let canon = vec![
            Cell::fun(f, 2),
            Cell::int(1),
            Cell::int(2),
            Cell::tvar(0),
            Cell::int(3),
        ];
        let toks = canon_tokens(&canon, 3);
        assert_eq!(toks, vec![Some(Cell::fun(f, 2)), None, Some(Cell::int(3))]);
    }

    #[test]
    fn index_spec_validation() {
        let mut p = DynPred::new(2);
        assert!(p
            .set_indexes(vec![IndexSpec {
                fields: vec![0, 1, 0, 1]
            }])
            .is_err());
        assert!(p.set_indexes(vec![IndexSpec { fields: vec![5] }]).is_err());
    }
}
