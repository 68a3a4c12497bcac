//! The merge engine: an n-way `merge` that copies each operand once.
//!
//! `merge` and `override` are the two Jigsaw operators that materialize.
//! An n-way merge is defined as the left fold of the binary operator,
//! `merge(a, b, c) = merge(merge(a, b), c)`, and its output — section
//! order, symbol-table order, local-symbol names, the combined object
//! name, the first error — is what that fold produces. Computing the fold
//! literally re-copies and re-uniquifies the whole accumulator at every
//! step, O(n × accumulated size). [`MergeBuilder`] produces the same
//! object in one pass, O(total operand size): each operand is
//! materialized and appended once, and only the accumulator's *local
//! names* are touched again per step.
//!
//! # The local-naming contract
//!
//! Each fold step numbers candidate names from a counter starting at 0:
//! first every local symbol of the left operand (the accumulator), in
//! symbol-table order, then every local of the right operand. A local
//! named `x` takes the first candidate `x$u<counter>` (the counter
//! advances on every candidate) that names no symbol in
//!
//! * the accumulator before this step, for the accumulator's locals;
//! * the accumulator after renaming, or the right operand, for the right
//!   operand's locals.
//!
//! So a local of operand `i` of an n-way merge carries `n - i` suffixes
//! (operand 0: `n - 1`), and relocations follow their symbol through
//! every rename. The contract is frozen: merged names feed
//! [`omos_obj::ContentHash`], hence cache and image keys and the golden
//! resolution manifests.

use omos_obj::{ObjError, ObjectFile, Result, SymbolBinding, SymbolDef};

use crate::{MergeMode, Module};

/// Builds an n-way merge one operand at a time.
///
/// The result of pushing `m0, m1, …, mk` and calling
/// [`MergeBuilder::finish`] equals `m0.merge_with(m1)?…merge_with(mk)?`
/// in every detail, and each push fails exactly where that fold's step
/// would. After a push returns an error the builder holds a partial
/// result; drop it.
///
/// ```
/// use omos_isa::assemble;
/// use omos_module::{MergeBuilder, Module};
///
/// let a = Module::from_object(assemble("a.o", ".text\n.global _a\n_a: call _b\n ret\n")?);
/// let b = Module::from_object(assemble("b.o", ".text\n.global _b\n_b: ret\n")?);
/// let mut merged = MergeBuilder::new();
/// merged.push(&a)?;
/// merged.push(&b)?;
/// let m = merged.finish()?;
/// assert!(m.free_references()?.is_empty());
/// assert_eq!(m.materialize()?.name, "a.o+b.o");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct MergeBuilder {
    stage: Stage,
}

#[derive(Debug, Default)]
enum Stage {
    #[default]
    Empty,
    /// One operand, kept as a view: a one-operand merge is the operand.
    First(Module),
    Merging(Box<Acc>),
}

impl MergeBuilder {
    /// An empty merge.
    #[must_use]
    pub fn new() -> MergeBuilder {
        MergeBuilder::default()
    }

    /// True until the first operand is pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        matches!(self.stage, Stage::Empty)
    }

    /// Appends an operand under `merge` rules: a duplicate definition is
    /// an error.
    pub fn push(&mut self, m: &Module) -> Result<()> {
        self.push_as(m, MergeMode::Strict)
    }

    /// Appends an operand under `override` rules: a definition conflict
    /// resolves in favor of `m`, and the name joins
    /// [`MergeBuilder::replaced`].
    pub fn push_override(&mut self, m: &Module) -> Result<()> {
        self.push_as(m, MergeMode::Override)
    }

    /// Names whose definitions an `override` push replaced, in the order
    /// the conflicts were decided: the merge's interpositions. A local
    /// never conflicts (every operand's locals are renamed first), so
    /// only global def-def conflicts appear here.
    #[must_use]
    pub fn replaced(&self) -> &[String] {
        match &self.stage {
            Stage::Merging(acc) => &acc.replaced,
            Stage::Empty | Stage::First(_) => &[],
        }
    }

    fn push_as(&mut self, m: &Module, mode: MergeMode) -> Result<()> {
        match &mut self.stage {
            Stage::Empty => self.stage = Stage::First(m.clone()),
            Stage::First(first) => {
                // The fold's first step materializes its left operand
                // before its right one; keep that error order.
                let mut acc = Acc::new(first.materialize()?);
                acc.append(m.materialize()?, mode)?;
                self.stage = Stage::Merging(Box::new(acc));
            }
            Stage::Merging(acc) => acc.append(m.materialize()?, mode)?,
        }
        Ok(())
    }

    /// The merged module. A one-operand merge returns the operand itself,
    /// unmaterialized; a zero-operand merge is an error.
    pub fn finish(self) -> Result<Module> {
        match self.stage {
            Stage::Empty => Err(ObjError::Invalid("merge of zero modules".into())),
            Stage::First(m) => Ok(m),
            Stage::Merging(acc) => Ok(Module::from_object(acc.finish())),
        }
    }
}

/// The accumulator of a merge of at least one materialized operand.
///
/// Symbol names in `out` are always current. A relocation that names a
/// local entry is bound to that entry's position instead and gets its
/// final name in [`Acc::finish`], so a rename touches one table entry, not
/// every relocation.
#[derive(Debug)]
pub(crate) struct Acc {
    out: ObjectFile,
    /// Positions of entries that were local when added, ascending. An
    /// entry can stop being local (an upgrade replaces it) but never
    /// become local: every appended local gets a fresh name.
    locals: Vec<usize>,
    /// `(relocation, entry)`: relocations naming a local entry, which
    /// follow its renames.
    local_refs: Vec<(usize, usize)>,
    /// Relocations naming no entry yet.
    dangling: Vec<usize>,
    /// Entries changed since the last validation.
    touched: Vec<usize>,
    /// Relocations before this index are validated.
    relocs_checked: usize,
    /// Names whose definitions an override conflict replaced.
    replaced: Vec<String>,
}

impl Acc {
    /// Starts from the first operand. Nothing is validated until the
    /// second operand is appended, as in the fold.
    pub(crate) fn new(out: ObjectFile) -> Acc {
        let locals = (0..out.symbols.len())
            .filter(|&e| out.symbols[e].binding == SymbolBinding::Local)
            .collect();
        let mut acc = Acc {
            locals,
            local_refs: Vec::new(),
            dangling: (0..out.relocs.len()).collect(),
            touched: (0..out.symbols.len()).collect(),
            relocs_checked: 0,
            replaced: Vec::new(),
            out,
        };
        acc.bind_dangling();
        acc
    }

    /// One fold step: renames the accumulator's locals, then appends
    /// `src` under `mode`.
    pub(crate) fn append(&mut self, src: ObjectFile, mode: MergeMode) -> Result<()> {
        let mut uniq = 0usize;

        // The accumulator's locals, checked against its names before
        // this step. Candidates carry distinct counter values, so they
        // cannot collide with each other.
        let table = &self.out.symbols;
        self.locals
            .retain(|&e| table[e].binding == SymbolBinding::Local);
        let renames: Vec<String> = self
            .locals
            .iter()
            .map(|&e| fresh_local(&table[e].name, &mut uniq, |c| table.position(c).is_none()))
            .collect();
        for (&e, name) in self.locals.iter().zip(renames) {
            self.out.symbols.rename_at(e, name)?;
        }

        // The operand's locals, checked against the renamed accumulator
        // and the operand.
        let table = &self.out.symbols;
        let fresh: Vec<Option<String>> = src
            .symbols
            .iter()
            .map(|s| {
                (s.binding == SymbolBinding::Local).then(|| {
                    fresh_local(&s.name, &mut uniq, |c| {
                        table.position(c).is_none() && src.symbols.position(c).is_none()
                    })
                })
            })
            .collect();

        let ObjectFile {
            name,
            sections,
            symbols,
            mut relocs,
        } = src;
        let base = self.out.sections.len();
        for r in &mut relocs {
            if let Some(Some(new)) = symbols.position(&r.symbol).map(|j| &fresh[j]) {
                r.symbol.clone_from(new);
            }
            r.section += base;
        }
        self.out.name.push('+');
        self.out.name.push_str(&name);
        self.out.sections.extend(sections);

        for (mut s, new) in symbols.into_iter().zip(fresh) {
            if let Some(new) = new {
                s.name = new;
            }
            if let SymbolDef::Defined { section, .. } = &mut s.def {
                *section += base;
            }
            let at = self.out.symbols.position(&s.name);
            let local = s.binding == SymbolBinding::Local;
            // Paper: override "merges two operands, resolving conflicting
            // bindings (multiple definitions) in favor of the second
            // operand." Only a genuine def-def conflict overrides;
            // ordinary upgrades (undef→def etc.) keep merge rules.
            let conflict = mode == MergeMode::Override
                && s.def.is_definition()
                && at.is_some_and(|e| self.out.symbols[e].def.is_definition());
            if conflict {
                self.replaced.push(s.name.clone());
                self.out.symbols.insert_override(s);
            } else {
                self.out.symbols.insert(s)?;
            }
            let e = at.unwrap_or(self.out.symbols.len() - 1);
            if local {
                self.locals.push(e);
            }
            self.touched.push(e);
        }

        let first = self.out.relocs.len();
        self.out.relocs.extend(relocs);
        self.dangling.extend(first..self.out.relocs.len());
        self.bind_dangling();
        self.validate_pending()
    }

    /// Binds every relocation whose name is now an entry's. A binding
    /// never changes afterwards: only local entries are renamed, and a
    /// relocation bound to one follows it.
    fn bind_dangling(&mut self) {
        let table = &self.out.symbols;
        let relocs = &self.out.relocs;
        let local_refs = &mut self.local_refs;
        self.dangling
            .retain(|&r| match table.position(&relocs[r].symbol) {
                Some(e) => {
                    if table[e].binding == SymbolBinding::Local {
                        local_refs.push((r, e));
                    }
                    false
                }
                None => true,
            });
    }

    /// Validates what changed since the last validation. Earlier sections
    /// never change, so the first error is the one `ObjectFile::validate`
    /// on the whole object would report.
    fn validate_pending(&mut self) -> Result<()> {
        self.touched.sort_unstable();
        self.touched.dedup();
        for &e in &self.touched {
            self.out.validate_symbol(&self.out.symbols[e])?;
        }
        for r in &self.out.relocs[self.relocs_checked..] {
            self.out.validate_reloc(r)?;
        }
        self.touched.clear();
        self.relocs_checked = self.out.relocs.len();
        Ok(())
    }

    /// The merged object, with every relocation naming its final symbol.
    /// It is shared immutably from here on (cached for the server's
    /// lifetime), so the largest tables drop their growth slack.
    pub(crate) fn finish(mut self) -> ObjectFile {
        for (r, e) in self.local_refs {
            self.out.relocs[r]
                .symbol
                .clone_from(&self.out.symbols[e].name);
        }
        self.out.sections.shrink_to_fit();
        self.out.relocs.shrink_to_fit();
        self.out
    }
}

/// The next `name$u<uniq>` candidate that `free` accepts, advancing
/// `uniq` past every candidate tried: the naming step of the
/// local-naming contract (see the module docs), shared with the static
/// analyzer's skeleton merges.
pub fn fresh_local(name: &str, uniq: &mut usize, free: impl Fn(&str) -> bool) -> String {
    loop {
        let candidate = format!("{name}$u{uniq}");
        *uniq += 1;
        if free(&candidate) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;

    fn with_local(name: &str, tag: &str) -> Module {
        Module::from_object(
            assemble(
                name,
                &format!(
                    ".text\n.global _f{tag}\n_f{tag}: li r2, _msg\n ret\n.rodata\n_msg: .ascii \"{tag}\"\n"
                ),
            )
            .expect("assembles"),
        )
    }

    fn locals_and_targets(m: &Module) -> (Vec<String>, Vec<String>) {
        let obj = m.materialize().unwrap();
        let locals = obj
            .symbols
            .iter()
            .filter(|s| s.binding == SymbolBinding::Local)
            .map(|s| s.name.clone())
            .collect();
        let targets = obj.relocs.iter().map(|r| r.symbol.clone()).collect();
        (locals, targets)
    }

    #[test]
    fn locals_take_one_suffix_per_later_step() {
        let ms = [
            with_local("a.o", "A"),
            with_local("b.o", "B"),
            with_local("c.o", "C"),
        ];
        let m = Module::merge_all(&ms).unwrap();
        let (locals, targets) = locals_and_targets(&m);
        assert_eq!(locals, ["_msg$u0$u0", "_msg$u1$u1", "_msg$u2"]);
        // Each relocation follows its own operand's local.
        assert_eq!(targets, locals);
        assert_eq!(m.materialize().unwrap().name, "a.o+b.o+c.o");
    }

    #[test]
    fn candidates_skip_existing_names() {
        // `_msg$u0` is already a global name, so a.o's local skips to
        // `$u1`. In the next step, c.o's local takes `$u1` again: a.o's
        // has been renamed away from it.
        let bait = Module::from_object(
            assemble("bait.o", ".text\n.global _msg$u0\n_msg$u0: ret\n").expect("assembles"),
        );
        let m = Module::merge_all(&[bait, with_local("a.o", "A"), with_local("c.o", "C")]).unwrap();
        let (locals, targets) = locals_and_targets(&m);
        assert_eq!(locals, ["_msg$u1$u0", "_msg$u1"]);
        assert_eq!(targets, locals);
    }

    #[test]
    fn one_operand_stays_a_view() {
        let m = with_local("a.o", "A").hide("^_fA$").unwrap();
        let mut merged = MergeBuilder::new();
        assert!(merged.is_empty());
        merged.push(&m).unwrap();
        assert!(!merged.is_empty());
        let out = merged.finish().unwrap();
        assert_eq!(out.view().op_count(), 1);
        assert_eq!(out.content_hash(), m.content_hash());
    }

    #[test]
    fn override_reports_only_global_conflicts() {
        // a.o's `helper` is local: it is renamed before b.o's global
        // `helper` is appended, so nothing is replaced.
        let a = Module::from_object(
            assemble(
                "a.o",
                ".text\n.global _start, _draw\n_start: call helper\n sys 0\n_draw: ret\nhelper: ret\n",
            )
            .expect("assembles"),
        );
        let b = Module::from_object(
            assemble(
                "b.o",
                ".text\n.global helper, _draw\nhelper: ret\n_draw: ret\n",
            )
            .expect("assembles"),
        );
        let (m, replaced) = a.override_replacing(&b).unwrap();
        assert_eq!(replaced, ["_draw"]);
        let mut merged = MergeBuilder::new();
        merged.push(&a).unwrap();
        assert!(merged.replaced().is_empty());
        merged.push_override(&b).unwrap();
        assert_eq!(merged.replaced(), replaced);
        assert_eq!(merged.finish().unwrap().content_hash(), m.content_hash());
        assert!(a.merge_with(&b).is_err(), "`_draw` is a strict conflict");
    }

    #[test]
    fn zero_operands_is_an_error() {
        assert!(MergeBuilder::new().finish().is_err());
    }

    #[test]
    fn a_failed_push_reports_the_fold_error() {
        let a = with_local("a.o", "A");
        let b = with_local("b.o", "B");
        let mut merged = MergeBuilder::new();
        merged.push(&a).unwrap();
        merged.push(&b).unwrap();
        let err = merged.push(&a).unwrap_err();
        assert_eq!(err, ObjError::DuplicateSymbol("_fA".into()));
        assert_eq!(a.merge_with(&b).unwrap().merge_with(&a).unwrap_err(), err);
    }
}
