//! The relocatable object file.

use crate::error::{ObjError, Result};
use crate::hash::{ContentHash, Fnv64};
use crate::reloc::Relocation;
use crate::section::{Section, SectionKind};
use crate::symbol::{Symbol, SymbolDef, SymbolTable};

/// A relocatable object file: named sections, a symbol table, relocations.
///
/// This is the *leaf operand* of every OMOS operation — "the leaf operands
/// to OMOS operations are relocatable object files". Mutation happens only
/// while an object is being built (by the assembler, a linker pass, or
/// [`crate::View::materialize`]); once handed to the server it is shared
/// immutably behind an `Arc`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectFile {
    /// Human-readable origin (e.g. `/obj/ls.o`). Not part of the content
    /// hash, so the same bytes under two names cache identically.
    pub name: String,
    /// Sections, indexed by the `section` fields of symbols and relocations.
    pub sections: Vec<Section>,
    /// The symbol table.
    pub symbols: SymbolTable,
    /// Relocation records.
    pub relocs: Vec<Relocation>,
}

impl ObjectFile {
    /// Creates an empty object file.
    #[must_use]
    pub fn new(name: &str) -> ObjectFile {
        ObjectFile {
            name: name.to_string(),
            ..ObjectFile::default()
        }
    }

    /// Adds a section and returns its index.
    pub fn add_section(&mut self, section: Section) -> usize {
        self.sections.push(section);
        self.sections.len() - 1
    }

    /// Finds a section index by name.
    #[must_use]
    pub fn section_index(&self, name: &str) -> Option<usize> {
        self.sections.iter().position(|s| s.name == name)
    }

    /// Returns the index of the first section of `kind`, creating a
    /// conventionally-named empty one if absent.
    pub fn section_of_kind(&mut self, kind: SectionKind) -> usize {
        if let Some(i) = self.sections.iter().position(|s| s.kind == kind) {
            return i;
        }
        let s = match kind {
            SectionKind::Bss => Section::bss(kind.default_name(), 0, 8),
            _ => Section::with_bytes(kind.default_name(), kind, Vec::new(), 8),
        };
        self.add_section(s)
    }

    /// Inserts a symbol (see [`SymbolTable::insert`] for merge rules).
    pub fn define(&mut self, sym: Symbol) -> Result<()> {
        self.symbols.insert(sym)
    }

    /// Records a relocation.
    pub fn relocate(&mut self, r: Relocation) {
        // The relocation target symbol becomes a reference if unknown.
        if self.symbols.get(&r.symbol).is_none() {
            // Inserting an undefined into a table that lacks the name cannot
            // fail; ignore the impossible error rather than unwrap.
            let _ = self.symbols.insert(Symbol::undefined(&r.symbol));
        }
        self.relocs.push(r);
    }

    /// Total size of all sections of `kind`.
    #[must_use]
    pub fn size_of_kind(&self, kind: SectionKind) -> u64 {
        self.sections
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.size)
            .sum()
    }

    /// Checks structural invariants: every symbol's defining section exists
    /// and its offset is in range; every relocation site is inside its
    /// section and patchable.
    pub fn validate(&self) -> Result<()> {
        for s in self.symbols.iter() {
            self.validate_symbol(s)?;
        }
        for r in &self.relocs {
            self.validate_reloc(r)?;
        }
        Ok(())
    }

    /// Checks one symbol against this object's sections (the per-symbol
    /// half of [`ObjectFile::validate`]).
    pub fn validate_symbol(&self, s: &Symbol) -> Result<()> {
        if let SymbolDef::Defined { section, offset } = s.def {
            let sec = self
                .sections
                .get(section)
                .ok_or_else(|| ObjError::BadSection(format!("#{section} (symbol {})", s.name)))?;
            if offset > sec.size {
                return Err(ObjError::Invalid(format!(
                    "symbol {} at {}+{offset:#x} beyond section size {:#x}",
                    s.name, sec.name, sec.size
                )));
            }
        }
        Ok(())
    }

    /// Checks one relocation against this object's sections (the
    /// per-relocation half of [`ObjectFile::validate`]).
    pub fn validate_reloc(&self, r: &Relocation) -> Result<()> {
        let sec = self
            .sections
            .get(r.section)
            .ok_or_else(|| ObjError::BadSection(format!("#{} (reloc)", r.section)))?;
        if sec.kind == SectionKind::Bss {
            return Err(ObjError::Invalid(format!(
                "relocation against BSS section {}",
                sec.name
            )));
        }
        if r.offset + r.kind.width() > sec.size {
            return Err(ObjError::RelocOutOfRange {
                section: sec.name.clone(),
                offset: r.offset,
            });
        }
        Ok(())
    }

    /// Deterministic content hash covering sections, symbols, and
    /// relocations (but not [`ObjectFile::name`]).
    #[must_use]
    pub fn content_hash(&self) -> ContentHash {
        let mut h = Fnv64::new();
        h.write(&(self.sections.len() as u64).to_le_bytes());
        for s in &self.sections {
            s.hash_into(&mut h);
        }
        self.symbols.hash_into(&mut h);
        h.write(&(self.relocs.len() as u64).to_le_bytes());
        for r in &self.relocs {
            r.hash_into(&mut h);
        }
        ContentHash(h.finish())
    }

    /// Counts used by the cost model: `(symbols, relocations, bytes)`.
    #[must_use]
    pub fn work_counts(&self) -> (u64, u64, u64) {
        (
            self.symbols.len() as u64,
            self.relocs.len() as u64,
            self.sections.iter().map(|s| s.bytes.len() as u64).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reloc::RelocKind;

    fn sample() -> ObjectFile {
        let mut o = ObjectFile::new("sample.o");
        let text = o.add_section(Section::with_bytes(
            ".text",
            SectionKind::Text,
            vec![0; 32],
            8,
        ));
        let data = o.add_section(Section::with_bytes(
            ".data",
            SectionKind::Data,
            vec![0; 16],
            8,
        ));
        o.define(Symbol::defined("_main", text, 0)).unwrap();
        o.define(Symbol::defined("_counter", data, 0)).unwrap();
        o.relocate(Relocation::new(text, 4, RelocKind::Abs32, "_counter"));
        o.relocate(Relocation::new(text, 12, RelocKind::Abs32, "_printf"));
        o
    }

    #[test]
    fn relocate_registers_reference() {
        let o = sample();
        assert!(o.symbols.get("_printf").is_some());
        assert!(!o.symbols.get("_printf").unwrap().def.is_definition());
    }

    #[test]
    fn validate_accepts_sample() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_reloc_past_end() {
        let mut o = sample();
        o.relocate(Relocation::new(0, 30, RelocKind::Abs32, "_x"));
        assert!(matches!(
            o.validate(),
            Err(ObjError::RelocOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_symbol_section() {
        let mut o = sample();
        o.define(Symbol::defined("_ghost", 9, 0)).unwrap();
        assert!(matches!(o.validate(), Err(ObjError::BadSection(_))));
    }

    #[test]
    fn validate_rejects_bss_reloc() {
        let mut o = sample();
        let bss = o.add_section(Section::bss(".bss", 64, 8));
        o.relocs
            .push(Relocation::new(bss, 0, RelocKind::Abs32, "_x"));
        assert!(matches!(o.validate(), Err(ObjError::Invalid(_))));
    }

    #[test]
    fn section_of_kind_creates_once() {
        let mut o = ObjectFile::new("t.o");
        let a = o.section_of_kind(SectionKind::Bss);
        let b = o.section_of_kind(SectionKind::Bss);
        assert_eq!(a, b);
        assert_eq!(o.sections.len(), 1);
        assert_eq!(o.sections[a].name, ".bss");
    }

    #[test]
    fn content_hash_ignores_name_but_not_content() {
        let a = sample();
        let mut b = sample();
        b.name = "other.o".into();
        assert_eq!(a.content_hash(), b.content_hash());
        b.sections[0].bytes[0] = 0xff;
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn work_counts() {
        let o = sample();
        let (syms, relocs, bytes) = o.work_counts();
        assert_eq!(syms, 3);
        assert_eq!(relocs, 2);
        assert_eq!(bytes, 48);
    }

    #[test]
    fn size_of_kind_sums() {
        let mut o = sample();
        o.add_section(Section::with_bytes(
            ".text2",
            SectionKind::Text,
            vec![0; 8],
            8,
        ));
        assert_eq!(o.size_of_kind(SectionKind::Text), 40);
        assert_eq!(o.size_of_kind(SectionKind::Bss), 0);
    }
}
