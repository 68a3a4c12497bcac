//! The `aout` backend: a flat header-plus-tables encoding.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "XAO1" | name | nsect | nsym | nreloc
//! per section: name kind size align nbytes bytes
//! per symbol:  name binding frozen defkind defpayload
//! per reloc:   section offset kind symbol addend
//! ```

use super::wire::{Reader, Writer};
use super::{Backend, Format};
use crate::error::{ObjError, Result};
use crate::object::ObjectFile;
use crate::reloc::{RelocKind, Relocation};
use crate::section::{Section, SectionKind};
use crate::symbol::{Symbol, SymbolBinding, SymbolDef};

const MAGIC: &[u8; 4] = b"XAO1";

/// Smallest encodings: an empty name is its 4-byte length alone.
/// Section: name, kind, size, align, nbytes.
const MIN_SECTION_BYTES: usize = 4 + 1 + 8 + 8 + 4;
/// Symbol: name, binding, frozen, an `Undefined` def kind.
const MIN_SYMBOL_BYTES: usize = 4 + 1 + 1 + 1;
/// Relocation: section, offset, kind, symbol, addend.
const MIN_RELOC_BYTES: usize = 4 + 8 + 1 + 4 + 8;

/// The `aout` encoding backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct AoutBackend;

impl Backend for AoutBackend {
    fn format(&self) -> Format {
        Format::Aout
    }

    fn write(&self, obj: &ObjectFile) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.str(&obj.name);
        w.u32(obj.sections.len() as u32);
        w.u32(obj.symbols.len() as u32);
        w.u32(obj.relocs.len() as u32);
        for s in &obj.sections {
            w.str(&s.name);
            w.u8(s.kind.code());
            w.u64(s.size);
            w.u64(s.align);
            w.u32(s.bytes.len() as u32);
            w.bytes(&s.bytes);
        }
        for sym in obj.symbols.iter() {
            write_symbol(&mut w, sym);
        }
        for r in &obj.relocs {
            w.u32(r.section as u32);
            w.u64(r.offset);
            w.u8(r.kind.code());
            w.str(&r.symbol);
            w.i64(r.addend);
        }
        w.into_bytes()
    }

    fn read(&self, bytes: &[u8]) -> Result<ObjectFile> {
        let mut r = Reader::new(bytes);
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            return Err(ObjError::Malformed("bad aout magic".into()));
        }
        let name = r.str()?;
        let nsect = r.u32()? as usize;
        let nsym = r.u32()? as usize;
        let nreloc = r.u32()? as usize;
        // Decoded objects are kept as they are (a restored namespace
        // binds them without a copy), so size each table exactly. A
        // count cannot claim more records than the remaining bytes hold
        // at their minimum encoded size.
        let mut obj = ObjectFile::new(&name);
        obj.sections
            .reserve_exact(nsect.min(r.remaining() / MIN_SECTION_BYTES));
        for _ in 0..nsect {
            let name = r.str()?;
            let kind = SectionKind::from_code(r.u8()?)
                .ok_or_else(|| ObjError::Malformed("bad section kind".into()))?;
            let size = r.u64()?;
            let align = r.u64()?;
            if !align.is_power_of_two() {
                return Err(ObjError::Malformed(format!("bad alignment {align}")));
            }
            let nbytes = r.u32()? as usize;
            let data = r.bytes(nbytes)?.to_vec();
            if kind != SectionKind::Bss && size != nbytes as u64 {
                return Err(ObjError::Malformed("section size/bytes mismatch".into()));
            }
            obj.sections.push(Section {
                name,
                kind,
                bytes: data,
                size,
                align,
            });
        }
        obj.symbols
            .reserve_exact(nsym.min(r.remaining() / MIN_SYMBOL_BYTES));
        for _ in 0..nsym {
            let sym = read_symbol(&mut r)?;
            obj.symbols
                .insert(sym)
                .map_err(|e| ObjError::Malformed(format!("symbol table: {e}")))?;
        }
        obj.relocs
            .reserve_exact(nreloc.min(r.remaining() / MIN_RELOC_BYTES));
        for _ in 0..nreloc {
            let section = r.u32()? as usize;
            let offset = r.u64()?;
            let kind = RelocKind::from_code(r.u8()?)
                .ok_or_else(|| ObjError::Malformed("bad reloc kind".into()))?;
            let symbol = r.str()?;
            let addend = r.i64()?;
            obj.relocs.push(Relocation {
                section,
                offset,
                kind,
                symbol,
                addend,
            });
        }
        if r.remaining() != 0 {
            return Err(ObjError::Malformed(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        Ok(obj)
    }

    fn sniff(&self, bytes: &[u8]) -> bool {
        bytes.len() >= 4 && &bytes[..4] == MAGIC
    }
}

pub(super) fn write_symbol(w: &mut Writer, sym: &Symbol) {
    w.str(&sym.name);
    w.u8(sym.binding.code());
    w.u8(u8::from(sym.frozen));
    match sym.def {
        SymbolDef::Defined { section, offset } => {
            w.u8(0);
            w.u32(section as u32);
            w.u64(offset);
        }
        SymbolDef::Common { size } => {
            w.u8(1);
            w.u64(size);
        }
        SymbolDef::Undefined => w.u8(2),
        SymbolDef::Absolute { value } => {
            w.u8(3);
            w.u64(value);
        }
    }
}

pub(super) fn read_symbol(r: &mut Reader<'_>) -> Result<Symbol> {
    let name = r.str()?;
    let binding = SymbolBinding::from_code(r.u8()?)
        .ok_or_else(|| ObjError::Malformed("bad symbol binding".into()))?;
    let frozen = r.u8()? != 0;
    let def = match r.u8()? {
        0 => SymbolDef::Defined {
            section: r.u32()? as usize,
            offset: r.u64()?,
        },
        1 => SymbolDef::Common { size: r.u64()? },
        2 => SymbolDef::Undefined,
        3 => SymbolDef::Absolute { value: r.u64()? },
        k => return Err(ObjError::Malformed(format!("bad symbol def kind {k}"))),
    };
    Ok(Symbol {
        name,
        binding,
        def,
        frozen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniff_needs_full_magic() {
        assert!(!AoutBackend.sniff(b"XAO"));
        assert!(AoutBackend.sniff(b"XAO1extra"));
        assert!(!AoutBackend.sniff(b"XSM1"));
    }

    #[test]
    fn empty_object_roundtrips() {
        let obj = ObjectFile::new("empty.o");
        let bytes = AoutBackend.write(&obj);
        assert_eq!(AoutBackend.read(&bytes).unwrap(), obj);
    }

    #[test]
    fn decoded_tables_are_sized_exactly() {
        let obj = super::super::tests::sample();
        let back = AoutBackend.read(&AoutBackend.write(&obj)).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.sections.capacity(), back.sections.len());
        assert_eq!(back.relocs.capacity(), back.relocs.len());
    }

    #[test]
    fn inflated_counts_are_rejected_without_reserving_them() {
        let mut bytes = AoutBackend.write(&ObjectFile::new("t.o"));
        // nsect, nsym and nreloc follow magic(4) + name(4 + 3).
        bytes[11..23].fill(0xff);
        assert!(AoutBackend.read(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let obj = ObjectFile::new("t.o");
        let mut bytes = AoutBackend.write(&obj);
        bytes.push(0);
        assert!(AoutBackend.read(&bytes).is_err());
    }

    #[test]
    fn bad_section_kind_rejected() {
        let obj = super::super::tests::sample();
        let bytes = AoutBackend.write(&obj);
        let mut corrupt = bytes.clone();
        // Find the first section-kind byte: after magic(4) + name + counts.
        // Name "sample.o" = 4 + 8 bytes; counts = 12; section name ".text" = 4+5.
        let kind_off = 4 + (4 + 8) + 12 + (4 + 5);
        corrupt[kind_off] = 0x7f;
        assert!(AoutBackend.read(&corrupt).is_err());
    }
}
