//! The metadata catalog.
//!
//! TelegraphCQ reuses PostgreSQL's catalog; here we provide the same
//! contract in-process: a thread-safe registry mapping stream/table names to
//! schemas, source kinds, and stable numeric ids. The front-end's semantic
//! analyzer resolves FROM-clause names against it, and ingress wrappers
//! register the streams they produce.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::sync::RwLock;

use crate::error::{Result, TcqError};
use crate::schema::SchemaRef;

/// A name compared and hashed ASCII-case-insensitively. A map keyed by
/// `Box<Caseless>` is probed with a name as a query wrote it, without
/// lowercasing it into a new string first.
#[repr(transparent)]
pub struct Caseless(str);

impl Caseless {
    /// View `name` as a case-insensitive key.
    pub fn new(name: &str) -> &Caseless {
        // SAFETY: `Caseless` is a `repr(transparent)` wrapper around `str`,
        // so the two references have the same layout and validity.
        unsafe { &*(name as *const str as *const Caseless) }
    }

    /// The name as written.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Caseless {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(&other.0)
    }
}

impl Eq for Caseless {}

impl Hash for Caseless {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut buf = [0u8; 32];
        for chunk in self.0.as_bytes().chunks(buf.len()) {
            let lower = &mut buf[..chunk.len()];
            lower.copy_from_slice(chunk);
            lower.make_ascii_lowercase();
            state.write(lower);
        }
        state.write_u8(0xff);
    }
}

impl From<String> for Box<Caseless> {
    /// An owned case-insensitive key, as a map keyed by names stores it.
    fn from(name: String) -> Self {
        let name: Box<str> = name.into_boxed_str();
        // SAFETY: `Caseless` is a `repr(transparent)` wrapper around `str`,
        // so the box's layout and allocation carry over unchanged.
        unsafe { Box::from_raw(Box::into_raw(name) as *mut Caseless) }
    }
}

/// How tuples for a registered source arrive (TelegraphCQ §4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Unbounded stream fed by a push wrapper (the source connects to us or
    /// we subscribe to it); tuples arrive asynchronously.
    PushStream,
    /// Unbounded stream we poll via a pull wrapper.
    PullStream,
    /// A finite, static table (an input without a WindowIs clause "is
    /// assumed to be a static table by default", §4.1.1).
    Table,
}

impl SourceKind {
    /// True for both stream kinds.
    pub fn is_stream(self) -> bool {
        !matches!(self, SourceKind::Table)
    }
}

/// Catalog entry for one stream or table.
#[derive(Debug, Clone)]
pub struct StreamDef {
    /// Stable id assigned at registration; used in query footprints.
    pub id: u32,
    /// Registered name (case-preserving).
    pub name: String,
    /// Tuple shape.
    pub schema: SchemaRef,
    /// `schema` with every column qualified by `name`: the shape a query
    /// that names the source as registered sees, built once here.
    pub qualified: SchemaRef,
    /// Push/pull/table.
    pub kind: SourceKind,
}

/// Thread-safe registry of streams and tables.
///
/// Cloning a `Catalog` yields a handle onto the same shared registry,
/// mirroring how every PostgreSQL backend sees one system catalog.
#[derive(Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<CatalogInner>>,
}

#[derive(Default)]
struct CatalogInner {
    /// Keyed by the lowercased name; probed case-insensitively.
    by_name: HashMap<Box<Caseless>, Arc<StreamDef>>,
    next_id: u32,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a stream or table; errors if the name is taken.
    pub fn register(
        &self,
        name: impl Into<String>,
        schema: SchemaRef,
        kind: SourceKind,
    ) -> Result<StreamDef> {
        let name = name.into();
        let mut inner = self.inner.write();
        if inner.by_name.contains_key(Caseless::new(&name)) {
            return Err(TcqError::DuplicateStream(name));
        }
        let def = StreamDef {
            id: inner.next_id,
            qualified: schema.with_qualifier(&name).into_ref(),
            name,
            schema,
            kind,
        };
        inner.next_id += 1;
        let key = def.name.to_ascii_lowercase().into();
        inner.by_name.insert(key, Arc::new(def.clone()));
        Ok(def)
    }

    /// Look a source up by name (case-insensitive). The definition is
    /// shared, not copied.
    pub fn lookup(&self, name: &str) -> Result<Arc<StreamDef>> {
        self.inner
            .read()
            .by_name
            .get(Caseless::new(name))
            .cloned()
            .ok_or_else(|| TcqError::UnknownStream(name.to_string()))
    }

    /// Remove a source; errors if absent.
    pub fn drop_source(&self, name: &str) -> Result<StreamDef> {
        self.inner
            .write()
            .by_name
            .remove(Caseless::new(name))
            .map(Arc::unwrap_or_clone)
            .ok_or_else(|| TcqError::UnknownStream(name.to_string()))
    }

    /// All registered definitions, ordered by id.
    pub fn list(&self) -> Vec<StreamDef> {
        let inner = self.inner.read();
        let mut v: Vec<StreamDef> = inner.by_name.values().map(|d| (**d).clone()).collect();
        v.sort_by_key(|d| d.id);
        v
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.inner.read().by_name.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("x", DataType::Int)]).into_ref()
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let c = Catalog::new();
        c.register("ClosingStockPrices", schema(), SourceKind::PushStream)
            .unwrap();
        let def = c.lookup("closingstockprices").unwrap();
        assert_eq!(def.name, "ClosingStockPrices");
        assert!(def.kind.is_stream());
    }

    #[test]
    fn caseless_keys_hash_and_compare_without_case() {
        use std::collections::HashSet;
        let mut names = HashSet::new();
        let key = |name: &str| -> Box<Caseless> { name.to_string().into() };
        names.insert(key("closingstockprices"));
        assert!(names.contains(Caseless::new("ClosingStockPrices")));
        assert!(names.contains(Caseless::new("CLOSINGSTOCKPRICES")));
        assert!(!names.contains(Caseless::new("ClosingStockPrice")));
        // Names longer than one hashing chunk hash as one string.
        let long = "a_name_much_longer_than_thirty_two_bytes_in_all";
        names.insert(key(long));
        assert!(names.contains(Caseless::new(&long.to_ascii_uppercase())));
        assert_eq!(Caseless::new("Ab").as_str(), "Ab");
    }

    #[test]
    fn the_qualified_schema_names_the_source_as_registered() {
        let c = Catalog::new();
        c.register("Ticks", schema(), SourceKind::PushStream)
            .unwrap();
        let def = c.lookup("ticks").unwrap();
        assert_eq!(def.qualified.to_string(), "(Ticks.x INT)");
        assert_eq!(def.schema.to_string(), "(x INT)");
    }

    #[test]
    fn duplicate_rejected() {
        let c = Catalog::new();
        c.register("s", schema(), SourceKind::Table).unwrap();
        assert!(matches!(
            c.register("S", schema(), SourceKind::Table),
            Err(TcqError::DuplicateStream(_))
        ));
    }

    #[test]
    fn ids_are_stable_and_increasing() {
        let c = Catalog::new();
        let a = c.register("a", schema(), SourceKind::Table).unwrap();
        let b = c.register("b", schema(), SourceKind::PullStream).unwrap();
        assert!(a.id < b.id);
        // dropping doesn't recycle ids
        c.drop_source("a").unwrap();
        let d = c.register("d", schema(), SourceKind::Table).unwrap();
        assert!(d.id > b.id);
    }

    #[test]
    fn clones_share_state() {
        let c = Catalog::new();
        let c2 = c.clone();
        c.register("s", schema(), SourceKind::PushStream).unwrap();
        assert!(c2.lookup("s").is_ok());
    }

    #[test]
    fn list_ordered_by_id() {
        let c = Catalog::new();
        for name in ["z", "m", "a"] {
            c.register(name, schema(), SourceKind::Table).unwrap();
        }
        let names: Vec<_> = c.list().into_iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["z", "m", "a"]);
    }
}
