//! Algebraic laws of the Jigsaw module operators, property-tested over
//! generated modules. Bracha & Lindstrom's operators have equational
//! structure; these pin the parts our implementation relies on.

use proptest::prelude::*;
use proptest::strategy::from_fn;
use proptest::test_runner::TestRng;

use omos::isa::assemble;
use omos::module::Module;
use omos::obj::view::RenameTarget;
use omos::obj::{ObjectFile, RelocKind, Relocation, Section, SectionKind, Symbol};

/// A generated module: distinct exported functions, some calling a free
/// reference.
fn arb_module(tag: &'static str) -> impl Strategy<Value = Module> {
    (1usize..6, proptest::collection::vec(any::<bool>(), 1..6)).prop_map(move |(n, call_flags)| {
        let mut src = String::from(".text\n");
        for i in 0..n {
            let calls = call_flags.get(i).copied().unwrap_or(false);
            src.push_str(&format!(".global _{tag}{i}\n_{tag}{i}:\n"));
            if calls {
                src.push_str(&format!("    call _free_ref_{tag}\n"));
            }
            src.push_str(&format!("    li r1, {i}\n    ret\n"));
        }
        Module::from_object(assemble(&format!("{tag}.o"), &src).expect("assembles"))
    })
}

/// Local names, some shaped like the `$u<k>` names merge gives locals, so
/// uniquification candidates collide with existing names.
const LOCALS: [&str; 6] = ["_l", "_l$u0", "_l$u1", "_l$u0$u1", "_m", "_m$u2"];

/// One merge operand, built directly so it can carry what the assembler
/// does not emit: locals in every section kind (BSS included), commons,
/// weak definitions, undefined references to other operands' globals and
/// to `$u<k>`-shaped names, and (sometimes) a `hide` view, which turns a
/// global into a frozen local.
fn gen_operand(rng: &mut TestRng, i: usize) -> Module {
    let mut o = ObjectFile::new(&format!("m{i}.o"));
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
    let bss = (rng.below(2) == 0).then(|| o.add_section(Section::bss(".bss", 16, 8)));
    let mut names = Vec::new();
    for _ in 0..rng.below(4) {
        let name = LOCALS[rng.below(LOCALS.len() as u64) as usize];
        let sec = match (rng.below(3), bss) {
            (0, _) => text,
            (1, Some(b)) => b,
            _ => data,
        };
        if o.define(Symbol::defined(name, sec, rng.below(4) * 4).local())
            .is_ok()
        {
            names.push(name.to_string());
        }
    }
    for j in 0..1 + rng.below(3) {
        let name = format!("_g{i}_{j}");
        o.define(Symbol::defined(&name, text, j * 8))
            .expect("fresh name");
        names.push(name);
    }
    if rng.below(2) == 0 {
        o.define(Symbol::common("_common", 4 + rng.below(4) * 4))
            .expect("commons merge");
    }
    if rng.below(3) == 0 {
        o.define(Symbol::defined("_weak", data, 0).weak())
            .expect("fresh name");
    }
    for _ in 0..rng.below(3) {
        let target = match rng.below(3) {
            0 => format!("_g{}_0", rng.below(12)),
            1 => LOCALS[rng.below(LOCALS.len() as u64) as usize].to_string(),
            _ => "_ext".to_string(),
        };
        if o.symbols.get(&target).is_none() {
            names.push(target);
        }
    }
    for k in 0..rng.below(6) {
        let name = &names[rng.below(names.len() as u64) as usize];
        o.relocate(Relocation::new(text, k * 4, RelocKind::Abs32, name));
    }
    let m = Module::from_object(o);
    if rng.below(4) == 0 {
        m.hide(&format!("^_g{i}_[12]$")).expect("valid pattern")
    } else {
        m
    }
}

/// 1–12 operands with no duplicate strong definitions.
fn arb_operands() -> impl Strategy<Value = Vec<Module>> {
    from_fn(|rng: &mut TestRng| {
        let n = 1 + rng.below(12) as usize;
        (0..n).map(|i| gen_operand(rng, i)).collect()
    })
}

/// The n-ary merge by definition: the left fold of the binary operator.
fn fold(ms: &[Module]) -> Result<Module, omos::obj::ObjError> {
    let mut acc = ms[0].clone();
    for m in &ms[1..] {
        acc = acc.merge_with(m)?;
    }
    Ok(acc)
}

fn exports_sorted(m: &Module) -> Vec<String> {
    let mut e = m.exports().expect("exports");
    e.sort();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-pass n-ary merge is the left fold of `merge_with`, down to
    /// the combined name, local names, and section, symbol and
    /// relocation order.
    #[test]
    fn merge_all_is_the_left_fold(ms in arb_operands()) {
        let all = Module::merge_all(&ms).expect("no duplicate definitions");
        let folded = fold(&ms).expect("no duplicate definitions");
        prop_assert_eq!(all.materialize().expect("ok"), folded.materialize().expect("ok"));
        prop_assert_eq!(all.content_hash(), folded.content_hash());
    }

    /// A bad operand anywhere fails the merge with the fold's error: a
    /// duplicate definition, or definitions past their section's end —
    /// one new, one upgrading an earlier operand's reference in place, so
    /// the error names whichever comes first in the merged table.
    #[test]
    fn merge_all_fails_like_the_fold(
        ms in arb_operands(),
        at in any::<u8>(),
        of in any::<u8>(),
        duplicate in any::<bool>(),
    ) {
        let mut ms = ms;
        // Operand `p` (not the first) is the bad one.
        let p = 1 + at as usize % ms.len();
        let bad = if duplicate {
            // Redefines a global of an earlier operand.
            let dup = format!("_g{}_0", of as usize % p);
            assemble(&format!("dup{p}.o"), &format!(".text\n.global {dup}\n{dup}: ret\n"))
                .expect("assembles")
        } else {
            let mut o = ObjectFile::new(&format!("bad{p}.o"));
            let text = o.add_section(Section::with_bytes(".text", SectionKind::Text, vec![0; 8], 8));
            o.define(Symbol::defined(&format!("_bad{p}"), text, 64)).expect("fresh name");
            o.define(Symbol::defined("_ext", text, 64)).expect("fresh name");
            o
        };
        ms.insert(p, Module::from_object(bad));
        let all = Module::merge_all(&ms);
        let folded = fold(&ms);
        prop_assert!(all.is_err(), "bad operand {} accepted", p);
        prop_assert_eq!(all.unwrap_err(), folded.unwrap_err());
    }

    /// merge is commutative up to the exported interface.
    #[test]
    fn merge_commutes_on_exports(a in arb_module("a"), b in arb_module("b")) {
        let ab = a.merge_with(&b).expect("disjoint");
        let ba = b.merge_with(&a).expect("disjoint");
        prop_assert_eq!(exports_sorted(&ab), exports_sorted(&ba));
    }

    /// merge is associative up to the exported interface.
    #[test]
    fn merge_associates_on_exports(
        a in arb_module("a"),
        b in arb_module("b"),
        c in arb_module("c"),
    ) {
        let left = a.merge_with(&b).expect("ok").merge_with(&c).expect("ok");
        let right = a.merge_with(&b.merge_with(&c).expect("ok")).expect("ok");
        prop_assert_eq!(exports_sorted(&left), exports_sorted(&right));
    }

    /// hide and show with the same pattern partition the exports.
    #[test]
    fn hide_show_partition(m in arb_module("a"), pick in any::<u8>()) {
        let all = exports_sorted(&m);
        let target = &all[pick as usize % all.len()];
        let pattern = format!("^{}$", target.replace('$', "\\$"));
        let hidden = exports_sorted(&m.hide(&pattern).expect("ok"));
        let shown = exports_sorted(&m.show(&pattern).expect("ok"));
        // hidden ∪ shown = all, hidden ∩ shown = ∅.
        let mut union: Vec<String> = hidden.iter().chain(shown.iter()).cloned().collect();
        union.sort();
        prop_assert_eq!(union, all);
        prop_assert!(hidden.iter().all(|h| !shown.contains(h)));
    }

    /// restrict is idempotent.
    #[test]
    fn restrict_is_idempotent(m in arb_module("a")) {
        let once = m.restrict("^_a[0-9]+$").expect("ok");
        let twice = once.restrict("^_a[0-9]+$").expect("ok");
        prop_assert_eq!(
            once.materialize().expect("ok").content_hash(),
            twice.materialize().expect("ok").content_hash()
        );
    }

    /// override with self is a no-op on the interface.
    #[test]
    fn override_after_restrict_rebinds(m in arb_module("a")) {
        // restrict everything, then merge the original back: the result
        // exports exactly what the original did.
        let restricted = m.restrict("^_a[0-9]+$").expect("ok");
        let rebound = restricted
            .rename("^_a", "_b", RenameTarget::Refs)
            .expect("ok"); // just to exercise the pipeline further
        let _ = rebound;
        let remerged = restricted.merge_with(&m).expect("restricted defs are gone");
        prop_assert_eq!(exports_sorted(&remerged), exports_sorted(&m));
    }

    /// rename with an identity replacement is a no-op.
    #[test]
    fn identity_rename_is_noop(m in arb_module("a")) {
        // `^_a` -> `_a` replaces the matched span with itself.
        let renamed = m.rename("^_a", "_a", RenameTarget::Both).expect("ok");
        prop_assert_eq!(
            m.materialize().expect("ok").content_hash(),
            renamed.materialize().expect("ok").content_hash()
        );
    }

    /// copy-as then restrict of the original leaves exactly the copies
    /// (the interposition preparation step).
    #[test]
    fn copy_then_restrict_leaves_copies(m in arb_module("a")) {
        let prepared = m
            .copy_as("^_a", "_SAVED_a")
            .expect("ok")
            .restrict("^_a[0-9]+$")
            .expect("ok");
        let exports = exports_sorted(&prepared);
        for e in &exports {
            prop_assert!(e.starts_with("_SAVED_a"), "unexpected survivor {e}");
        }
        prop_assert_eq!(exports.len(), exports_sorted(&m).len());
    }

    /// freeze really is permanent across arbitrary later pipelines.
    #[test]
    fn freeze_is_permanent(m in arb_module("a"), later in 0u8..3) {
        let frozen = m.freeze("^_a0$").expect("ok");
        let attacked = match later {
            0 => frozen.restrict("^_a0$").expect("ok"),
            1 => frozen.hide("^_a0$").expect("ok"),
            _ => frozen.rename("^_a0$", "_gone", RenameTarget::Both).expect("ok"),
        };
        prop_assert!(exports_sorted(&attacked).contains(&"_a0".to_string()));
    }
}
