//! The server's hierarchical namespace.
//!
//! "OMOS maintains and exports a hierarchical namespace, whose names
//! represent meta-objects, executable code fragments, or directories of
//! other objects." Binding a name invalidates downstream caches; the
//! namespace supports that with *epochs*: a global generation that bumps
//! on every mutation, plus a per-path record of the generation at which
//! each name was last touched. Cache layers snapshot the generation when
//! they derive something and later ask [`Namespace::any_touched_since`]
//! whether any of the paths they depended on changed — so defining an
//! unrelated name never invalidates them. The question costs O(1) while
//! nothing at all has been bound since the snapshot, and never allocates
//! for canonically spelled paths.
//!
//! Each meta-object's reply-cache key ([`Blueprint::hash`]) is computed
//! once, when it is bound, and kept beside the entry: a warm
//! instantiation looks up the blueprint and its key together instead of
//! re-hashing the m-graph on every request.
//!
//! The namespace is internally synchronized: every method takes `&self`,
//! so many server threads can resolve concurrently while binds
//! serialize briefly on the write lock.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use omos_blueprint::Blueprint;
use omos_obj::{ContentHash, ObjectFile};

use crate::error::OmosError;

/// What a namespace path names.
#[derive(Debug, Clone)]
pub enum Entry {
    /// A relocatable code/data fragment.
    Object(Arc<ObjectFile>),
    /// A meta-object: a blueprint describing how to build instances.
    Meta(Arc<Blueprint>),
}

/// A bound entry plus, for a meta-object, its reply-cache key
/// ([`Blueprint::hash`], computed at bind time). Rebinding replaces the
/// key, binding an object over the path drops it, unbinding removes it.
#[derive(Debug)]
struct Bound {
    entry: Entry,
    reply_key: Option<ContentHash>,
}

/// Entries plus the per-path touch epochs, guarded together so a bind
/// updates both atomically with respect to readers.
#[derive(Debug, Default)]
struct Tables {
    entries: BTreeMap<String, Bound>,
    /// Generation at which each path was last bound or unbound. Paths
    /// never touched are absent (epoch 0, before any snapshot).
    touched: BTreeMap<String, u64>,
}

/// The namespace: a path-keyed map with directory listing.
///
/// Directories are implicit (every path component). Paths are
/// `/`-separated and normalized.
#[derive(Debug, Default)]
pub struct Namespace {
    tables: RwLock<Tables>,
    generation: AtomicU64,
}

/// The canonical spelling of `path`, borrowed when `path` already is
/// canonical (leading `/`, no empty components, no trailing `/`), so the
/// common lookup allocates nothing.
fn canonical(path: &str) -> Cow<'_, str> {
    let is_canonical =
        path.starts_with('/') && (path.len() == 1 || !path.ends_with('/')) && !path.contains("//");
    if is_canonical {
        Cow::Borrowed(path)
    } else {
        Cow::Owned(normalize(path))
    }
}

pub(crate) fn normalize(path: &str) -> String {
    let mut out = String::from("/");
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        if !out.ends_with('/') {
            out.push('/');
        }
        out.push_str(comp);
    }
    out
}

impl Namespace {
    /// An empty namespace.
    #[must_use]
    pub fn new() -> Namespace {
        Namespace::default()
    }

    /// Monotonic generation, bumped on every mutation. Cache layers
    /// snapshot it to date their dependency records.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn read(&self) -> RwLockReadGuard<'_, Tables> {
        self.tables
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a mutation of `path` under the write lock and returns the
    /// new generation.
    fn touch(&self, tables: &mut Tables, path: String) -> u64 {
        let g = self.generation.load(Ordering::Relaxed) + 1;
        tables.touched.insert(path, g);
        self.generation.store(g, Ordering::Release);
        g
    }

    /// Installs `bound` at `path` and touches it.
    fn bind(&self, path: &str, bound: Bound) {
        let p = normalize(path);
        let mut t = self
            .tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        t.entries.insert(p.clone(), bound);
        self.touch(&mut t, p);
    }

    /// Binds an object fragment at `path` (replacing any existing entry).
    pub fn bind_object(&self, path: &str, obj: ObjectFile) {
        self.bind(
            path,
            Bound {
                entry: Entry::Object(Arc::new(obj)),
                reply_key: None,
            },
        );
    }

    /// Binds a meta-object at `path`, computing its reply-cache key
    /// before taking the write lock.
    pub fn bind_meta(&self, path: &str, bp: Blueprint) {
        let reply_key = Some(bp.hash());
        self.bind(
            path,
            Bound {
                entry: Entry::Meta(Arc::new(bp)),
                reply_key,
            },
        );
    }

    /// Parses and binds blueprint text at `path`.
    pub fn bind_blueprint(&self, path: &str, src: &str) -> Result<(), OmosError> {
        let bp = Blueprint::parse(src)
            .map_err(|e| OmosError::Client(format!("blueprint at {path}: {e}")))?;
        self.bind_meta(path, bp);
        Ok(())
    }

    /// Removes a binding. Returns true if something was removed.
    pub fn unbind(&self, path: &str) -> bool {
        let p = normalize(path);
        let mut t = self
            .tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let removed = t.entries.remove(&p).is_some();
        if removed {
            self.touch(&mut t, p);
        }
        removed
    }

    /// Looks a path up.
    #[must_use]
    pub fn lookup(&self, path: &str) -> Option<Entry> {
        self.lookup_keyed(path).map(|(entry, _)| entry)
    }

    /// Looks a path up together with its reply-cache key: the
    /// [`Blueprint::hash`] memoized when a meta-object was bound, `None`
    /// for an object fragment.
    #[must_use]
    pub fn lookup_keyed(&self, path: &str) -> Option<(Entry, Option<ContentHash>)> {
        self.read()
            .entries
            .get(canonical(path).as_ref())
            .map(|b| (b.entry.clone(), b.reply_key))
    }

    /// True if `path` was bound or unbound after generation `gen`.
    #[must_use]
    pub fn touched_since(&self, path: &str, gen: u64) -> bool {
        self.any_touched_since([path], gen)
    }

    /// True if *any* of `paths` was bound or unbound after generation
    /// `gen` — the cache-validity query. O(1) when nothing was bound
    /// since `gen` (no touch epoch exceeds the generation); otherwise
    /// one lock acquisition for the whole dependency set, allocating
    /// only for a path that is not canonically spelled.
    #[must_use]
    pub fn any_touched_since<I>(&self, paths: I, gen: u64) -> bool
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        // `touch` publishes a new epoch with a Release store of the
        // generation after recording it, and `generation` loads with
        // Acquire. A load that still reads `<= gen` can only miss a
        // bind that has not returned yet, so the query orders before
        // that bind, as it would had it taken the read lock first.
        if self.generation() <= gen {
            return false;
        }
        let t = self.read();
        paths.into_iter().any(|p| {
            t.touched
                .get(canonical(p.as_ref()).as_ref())
                .is_some_and(|&g| g > gen)
        })
    }

    /// Lists the immediate children of a directory path, with a marker
    /// for entry kind (`obj`, `meta`, `dir`).
    #[must_use]
    pub fn list(&self, path: &str) -> Vec<(String, &'static str)> {
        let p = normalize(path);
        let prefix = if p == "/" {
            "/".to_string()
        } else {
            format!("{p}/")
        };
        let t = self.read();
        let mut out: Vec<(String, &'static str)> = Vec::new();
        for (k, v) in t.entries.range(prefix.clone()..) {
            if !k.starts_with(&prefix) {
                break;
            }
            let rest = &k[prefix.len()..];
            if rest.is_empty() {
                continue;
            }
            match rest.find('/') {
                Some(i) => {
                    let dir = rest[..i].to_string();
                    if out.last().map(|(n, _)| n.as_str()) != Some(dir.as_str()) {
                        out.push((dir, "dir"));
                    }
                }
                None => {
                    let kind = match v.entry {
                        Entry::Object(_) => "obj",
                        Entry::Meta(_) => "meta",
                    };
                    out.push((rest.to_string(), kind));
                }
            }
        }
        out
    }

    /// Snapshot of every binding, in sorted path order (one lock
    /// acquisition — the checkpoint writer must not interleave with a
    /// bind). Entries share the namespace's `Arc`s; this copies no
    /// object or blueprint bodies.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, Entry)> {
        self.read()
            .entries
            .iter()
            .map(|(k, v)| (k.clone(), v.entry.clone()))
            .collect()
    }

    /// Number of bound names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read().entries.len()
    }

    /// True if nothing is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read().entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_isa::assemble;

    #[test]
    fn bind_lookup_unbind() {
        let ns = Namespace::new();
        ns.bind_object("/obj/ls.o", assemble("ls.o", ".text\nnop\n").unwrap());
        ns.bind_blueprint("/bin/ls", "(merge /obj/ls.o)").unwrap();
        assert!(matches!(ns.lookup("/obj/ls.o"), Some(Entry::Object(_))));
        assert!(matches!(ns.lookup("/bin/ls"), Some(Entry::Meta(_))));
        assert!(ns.lookup("/bin/missing").is_none());
        assert!(ns.unbind("/bin/ls"));
        assert!(!ns.unbind("/bin/ls"));
        assert!(ns.lookup("/bin/ls").is_none());
    }

    #[test]
    fn generation_bumps_on_mutation() {
        let ns = Namespace::new();
        let g0 = ns.generation();
        ns.bind_object("/a", assemble("a", ".text\nnop\n").unwrap());
        assert!(ns.generation() > g0);
        let g1 = ns.generation();
        ns.unbind("/a");
        assert!(ns.generation() > g1);
    }

    #[test]
    fn touch_epochs_are_per_path() {
        let ns = Namespace::new();
        ns.bind_object("/a", assemble("a", ".text\nnop\n").unwrap());
        let snap = ns.generation();
        assert!(!ns.touched_since("/a", snap));
        ns.bind_object("/b", assemble("b", ".text\nnop\n").unwrap());
        assert!(!ns.touched_since("/a", snap), "binding /b leaves /a alone");
        assert!(ns.touched_since("/b", snap));
        let deps = vec!["/a".to_string(), "/b".to_string()];
        assert!(ns.any_touched_since(&deps, snap));
        assert!(!ns.any_touched_since(&deps[..1], snap));
        // Unbinding touches too (a dependent derivation is now stale).
        let snap2 = ns.generation();
        ns.unbind("/a");
        assert!(ns.touched_since("/a", snap2));
    }

    #[test]
    fn touch_epochs_normalize_paths() {
        let ns = Namespace::new();
        let snap = ns.generation();
        ns.bind_object("/lib//x.o", assemble("x", ".text\nnop\n").unwrap());
        assert!(ns.touched_since("/lib/x.o", snap));
        assert!(ns.touched_since("lib/x.o", snap));
    }

    #[test]
    fn reply_key_is_memoized_at_bind_time() {
        let ns = Namespace::new();
        let key = |p: &str| ns.lookup_keyed(p).and_then(|(_, k)| k);
        let first = Blueprint::parse("(merge /obj/a.o)").unwrap();
        ns.bind_meta("/bin/x", first.clone());
        assert_eq!(key("/bin/x"), Some(first.hash()));
        // A rebind replaces the key with the new blueprint's.
        let second = Blueprint::parse("(merge /obj/a.o /obj/b.o)").unwrap();
        ns.bind_meta("bin//x", second.clone());
        assert_ne!(first.hash(), second.hash());
        assert_eq!(key("/bin/x"), Some(second.hash()));
        // An unbind removes it; a fresh bind brings it back.
        assert!(ns.unbind("/bin/x"));
        assert_eq!(key("/bin/x"), None);
        ns.bind_meta("/bin/x", first.clone());
        assert_eq!(key("/bin/x"), Some(first.hash()));
        // An object bound over the meta path has no reply key.
        ns.bind_object("/bin/x", assemble("x", ".text\nnop\n").unwrap());
        assert!(matches!(
            ns.lookup_keyed("/bin/x"),
            Some((Entry::Object(_), None))
        ));
    }

    #[test]
    fn revalidation_normalizes_on_both_sides_of_the_fast_path() {
        let ns = Namespace::new();
        ns.bind_object("/lib/x.o", assemble("x", ".text\nnop\n").unwrap());
        ns.bind_object("/x", assemble("x", ".text\nnop\n").unwrap());
        let deps = ["lib//x.o", "x/", "lib/x.o"];
        // Nothing bound since the snapshot: the O(1) path answers.
        let snap = ns.generation();
        for d in deps {
            assert!(!ns.any_touched_since([d], snap), "{d}");
        }
        // An unrelated bind moves the generation: the per-path check
        // runs and still finds nothing.
        ns.bind_object("/other.o", assemble("o", ".text\nnop\n").unwrap());
        for d in deps {
            assert!(!ns.any_touched_since([d], snap), "{d}");
        }
        // Rebinding the dependencies is seen through every spelling.
        ns.bind_object("/lib/x.o", assemble("x", ".text\nnop\n").unwrap());
        ns.bind_object("/x", assemble("x", ".text\nnop\n").unwrap());
        for d in deps {
            assert!(ns.any_touched_since([d], snap), "{d}");
        }
        // A bind through a non-canonical spelling is seen canonically.
        let snap = ns.generation();
        ns.bind_object("lib//x.o/", assemble("x", ".text\nnop\n").unwrap());
        assert!(ns.any_touched_since(["/lib/x.o"], snap));
        assert!(!ns.any_touched_since(["x/"], snap));
    }

    #[test]
    fn bad_blueprint_rejected() {
        let ns = Namespace::new();
        assert!(ns.bind_blueprint("/bin/x", "(merge").is_err());
    }

    #[test]
    fn listing_shows_dirs_and_kinds() {
        let ns = Namespace::new();
        ns.bind_object("/lib/crt0.o", assemble("crt0", ".text\nnop\n").unwrap());
        ns.bind_blueprint("/lib/libc", "(merge /libc/gen)").unwrap();
        ns.bind_object("/libc/gen", assemble("gen", ".text\nnop\n").unwrap());
        let root = ns.list("/");
        assert_eq!(
            root,
            vec![("lib".to_string(), "dir"), ("libc".to_string(), "dir")]
        );
        let lib = ns.list("/lib");
        assert_eq!(
            lib,
            vec![("crt0.o".to_string(), "obj"), ("libc".to_string(), "meta")]
        );
    }

    #[test]
    fn paths_normalize() {
        let ns = Namespace::new();
        ns.bind_object("lib//x.o", assemble("x", ".text\nnop\n").unwrap());
        assert!(ns.lookup("/lib/x.o").is_some());
    }
}
