//! Object files for bulk fact loading (paper §4.6).
//!
//! XSB compiles static code into byte-code object files; "loading an object
//! file is about 12x faster than loading through the formatted read and
//! assert". This module provides the dynamic-code analogue the paper lists
//! as future work: a predicate's facts serialized in their canonical cell
//! form, so loading is a symbol-remap plus bulk insert — no tokenizing, no
//! parsing, no per-fact term construction.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "XSBO" | version u16 | name len+bytes | arity u16
//! nsyms u32 | (len u32, utf8 bytes)*          local symbol table
//! nclauses u32 | (ncells u32, cells u64*)*    canonical cell runs
//! ```
//!
//! CON and FUN cells store *local* symbol ids on disk and are remapped on
//! load.
//!
//! Object files never contain [`crate::instr::Instr`] code — only the
//! canonical cells of dynamic facts — so superinstruction fusion (a
//! post-compile peephole pass over emitted code) can never appear in, or
//! be affected by, an object file. Fusion applies when *static* code is
//! compiled at consult time; fact loading through this module bypasses
//! compilation entirely. A test below pins this.

use crate::cell::{Cell, Tag};
use crate::edb::NewClause;
use crate::error::EngineError;
use crate::program::Program;
use std::collections::HashMap;
use std::rc::Rc;
use xsb_syntax::{Sym, SymbolTable};

const MAGIC: &[u8; 4] = b"XSBO";
const VERSION: u16 = 1;

fn err<T>(m: impl Into<String>) -> Result<T, EngineError> {
    Err(EngineError::Other(m.into()))
}

/// Bounds-checked little-endian reader over the raw object-file bytes.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        match self.data.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => err("truncated object file"),
        }
    }

    /// Bytes not yet read: bounds every count-driven preallocation, so a
    /// corrupt count fails as a short read instead of a huge allocation.
    fn left(&self) -> usize {
        self.data.len() - self.pos
    }

    fn u16_le(&mut self) -> Result<u16, EngineError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32_le(&mut self) -> Result<u32, EngineError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64_le(&mut self) -> Result<u64, EngineError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn utf8(&mut self, n: usize) -> Result<&'a str, EngineError> {
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| EngineError::Other("object file string is not utf-8".into()))
    }
}

/// Serializes the facts of dynamic predicate `name/arity`.
pub fn encode(
    db: &Program,
    syms: &SymbolTable,
    name: Sym,
    arity: u16,
) -> Result<Vec<u8>, EngineError> {
    let Some(pred) = db.lookup_pred(name, arity) else {
        return err(format!("no predicate {}/{arity}", syms.name(name)));
    };
    let Some(dp) = db.dyn_of(pred) else {
        return err(format!("{}/{arity} is not dynamic", syms.name(name)));
    };

    let mut local: HashMap<Sym, u32> = HashMap::new();
    let mut local_names: Vec<String> = Vec::new();
    fn localize(
        syms: &SymbolTable,
        s: Sym,
        names: &mut Vec<String>,
        map: &mut HashMap<Sym, u32>,
    ) -> u32 {
        *map.entry(s).or_insert_with(|| {
            names.push(syms.name(s).to_string());
            (names.len() - 1) as u32
        })
    }

    // first pass: collect symbols and re-encode cells with local ids
    let ids = dp.all_live();
    let mut clause_runs: Vec<Vec<u64>> = Vec::with_capacity(ids.len());
    for id in &ids {
        let c = dp.clause(*id);
        if c.has_body {
            return err("object files support fact-only predicates");
        }
        let mut run = Vec::with_capacity(c.canon.len());
        for &cell in c.canon.iter() {
            let enc = match cell.tag() {
                Tag::Con => {
                    let l = localize(syms, cell.sym(), &mut local_names, &mut local);
                    Cell::con(Sym(l)).0
                }
                Tag::Fun => {
                    let (s, n) = cell.functor();
                    let l = localize(syms, s, &mut local_names, &mut local);
                    Cell::fun(Sym(l), n).0
                }
                _ => cell.0,
            };
            run.push(enc);
        }
        clause_runs.push(run);
    }

    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let pname = syms.name(name);
    buf.extend_from_slice(&(pname.len() as u32).to_le_bytes());
    buf.extend_from_slice(pname.as_bytes());
    buf.extend_from_slice(&arity.to_le_bytes());
    buf.extend_from_slice(&(local_names.len() as u32).to_le_bytes());
    for n in &local_names {
        buf.extend_from_slice(&(n.len() as u32).to_le_bytes());
        buf.extend_from_slice(n.as_bytes());
    }
    buf.extend_from_slice(&(clause_runs.len() as u32).to_le_bytes());
    for run in &clause_runs {
        buf.extend_from_slice(&(run.len() as u32).to_le_bytes());
        for &w in run {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    Ok(buf)
}

/// Decodes an object file into its predicate's name, arity and facts,
/// remapping symbols into `syms`. [`crate::Engine::load_object`]
/// installs the facts through the write path.
pub(crate) fn decode(
    syms: &mut SymbolTable,
    data: &[u8],
) -> Result<(Sym, u16, Vec<NewClause>), EngineError> {
    let mut buf = Reader::new(data);
    if buf.take(4).map(|m| m != MAGIC).unwrap_or(true) {
        return err("bad object file magic");
    }
    if buf.u16_le()? != VERSION {
        return err("unsupported object file version");
    }
    let nlen = buf.u32_le()? as usize;
    let name_str = buf.utf8(nlen)?;
    let name = syms.intern(name_str);
    let arity = buf.u16_le()?;

    let nsyms = buf.u32_le()? as usize;
    let mut remap: Vec<Sym> = Vec::with_capacity(nsyms.min(buf.left() / 4));
    for _ in 0..nsyms {
        let l = buf.u32_le()? as usize;
        let s = buf.utf8(l)?;
        remap.push(syms.intern(s));
    }

    let nclauses = buf.u32_le()? as usize;
    let mut clauses = Vec::with_capacity(nclauses.min(buf.left() / 4));
    for _ in 0..nclauses {
        let ncells = buf.u32_le()? as usize;
        let mut canon: Vec<Cell> = Vec::with_capacity(ncells.min(buf.left() / 8));
        for _ in 0..ncells {
            let raw = Cell(buf.u64_le()?);
            let local = |s: Sym| match remap.get(s.0 as usize) {
                Some(&g) => Ok(g),
                None => err("object file symbol id out of range"),
            };
            let cell = match raw.tag() {
                Tag::Con => Cell::con(local(raw.sym())?),
                Tag::Fun => {
                    let (s, n) = raw.functor();
                    Cell::fun(local(s)?, n)
                }
                _ => raw,
            };
            canon.push(cell);
        }
        clauses.push((Rc::from(canon), false));
    }
    Ok((name, arity, clauses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    /// An engine whose dynamic predicate holds the given facts.
    fn engine_with(facts: &str) -> Engine {
        let mut e = Engine::new();
        e.consult(facts).unwrap();
        e
    }

    #[test]
    fn tokens_of_multi_root_run() {
        // roots a, f(X), 3: a loaded fact is indexed by each root's outer
        // token, so a first-argument lookup finds exactly it
        let e = engine_with(":- dynamic t/3.\nt(a, f(X), 3).\nt(b, g(1), 4).");
        let obj = e.save_object("t", 3).unwrap();
        let mut e2 = Engine::new();
        assert_eq!(e2.load_object(&obj).unwrap(), 2);
        assert_eq!(e2.count("t(a, f(_), 3)").unwrap(), 1);
        assert_eq!(e2.count("t(b, Y, Z)").unwrap(), 1);
        assert_eq!(e2.count("t(c, Y, Z)").unwrap(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let facts: String = (0..100i64)
            .map(|i| format!("edge({i}, {}).\n", i + 1))
            .collect();
        let e = engine_with(&format!(":- dynamic edge/2.\n{facts}"));
        let bytes = e.save_object("edge", 2).unwrap();

        // load into a fresh program with a fresh symbol table
        let mut syms2 = SymbolTable::new();
        let (name, arity, clauses) = decode(&mut syms2, &bytes).unwrap();
        assert_eq!(syms2.name(name), "edge");
        assert_eq!(arity, 2);
        assert_eq!(clauses.len(), 100);
        let mut e2 = Engine::new();
        assert_eq!(e2.load_object(&bytes).unwrap(), 100);
        assert_eq!(e2.count("edge(X, Y)").unwrap(), 100);
        // indexed retrieval works on the loaded data
        assert_eq!(e2.count("edge(5, Y)").unwrap(), 1);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut syms = SymbolTable::new();
        assert!(decode(&mut syms, b"not an object file").is_err());
        // a valid header claiming u32::MAX clauses, then no clause bytes:
        // a short-read error, not an allocation of the claimed size
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(b"p");
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&mut syms, &bytes).is_err());
        // a clause whose atom names a symbol the file never declared
        let mut bytes = bytes[..bytes.len() - 4].to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&Cell::con(Sym(7)).0.to_le_bytes());
        assert!(decode(&mut syms, &bytes).is_err());
    }

    #[test]
    fn atoms_are_remapped_across_symbol_tables() {
        let e = engine_with(":- dynamic person/1.\nperson(alice).");
        let bytes = e.save_object("person", 1).unwrap();

        let mut syms2 = SymbolTable::new();
        // shift the symbol table so ids cannot accidentally line up
        for i in 0..57 {
            syms2.intern(&format!("pad{i}"));
        }
        let (_, _, clauses) = decode(&mut syms2, &bytes).unwrap();
        let alice2 = syms2.lookup("alice").unwrap();
        assert_eq!(clauses[0].0[0], Cell::con(alice2));
    }

    #[test]
    fn object_files_carry_no_instruction_code() {
        // pins the fusion/objfile contract documented in the module docs:
        // the format serializes canonical fact cells only, so round-tripping
        // is identical whether the engine that wrote or reads the file has
        // fusion enabled. The code area of the loading program gains no
        // instructions from a load.
        let e = engine_with(":- dynamic edge/2.\nedge(1, 2).");
        assert!(e.db.fusion_enabled);
        let bytes = e.save_object("edge", 2).unwrap();

        let mut e2 = Engine::with_fusion(false);
        let code_before = e2.db.code.code.len();
        let unify_runs_before = e2.db.code.unify_runs.len();
        assert_eq!(e2.load_object(&bytes).unwrap(), 1);
        assert_eq!(e2.db.code.code.len(), code_before);
        assert_eq!(e2.db.code.unify_runs.len(), unify_runs_before);
    }
}
