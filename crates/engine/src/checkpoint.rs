//! What lets a live type be its own checkpoint: [`SortedMap`], a hash
//! map written in key order, and [`checkpoint_via_mirror!`], which
//! gives a struct-of-arrays type `Serialize`, `Deserialize` and
//! `PartialEq` through one mirror struct, so the structs holding it
//! still derive. [`check_slots`] bounds what such a mirror's config
//! may ask its decode to allocate.

use crate::fxhash::FxHashMap;
use serde::{Deserialize, Error, JsonReader, Serialize, Sink};
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// The most slots (TLB entries, cache lines, FBT entries) one decoded
/// structure may hold. A struct-of-arrays type is allocated at the
/// size its config, read from the file, asks for, so the config is
/// checked against this first. Every preset is far below it; the
/// largest structure holds 16 Ki slots.
pub const MAX_SLOTS: usize = 1 << 24;

/// Errors naming `what` if `slots` exceeds [`MAX_SLOTS`].
pub fn check_slots(what: &str, slots: usize) -> Result<(), Error> {
    if slots > MAX_SLOTS {
        return Err(Error::msg(format!(
            "{what} asks for {slots} slots, over the cap of {MAX_SLOTS}"
        )));
    }
    Ok(())
}

/// How a [`SortedMap`] key is written: as the leading elements of its
/// entry, which ends with the value. A key is one element; a tuple key
/// is spliced in, one element a field.
pub trait EntryKey: Serialize + Deserialize {
    /// How many elements the key takes.
    const ELEMENTS: usize = 1;

    /// Streams the key's elements, each preceded by `sink.element()`.
    fn serialize_elements<S: Sink>(&self, sink: &mut S) {
        sink.element();
        self.serialize(sink);
    }

    /// Reads the key's elements from the open entry, the twin of
    /// [`Self::serialize_elements`].
    fn deserialize_elements(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.element(0)
    }
}

impl<A: Serialize + Deserialize, B: Serialize + Deserialize> EntryKey for (A, B) {
    const ELEMENTS: usize = 2;

    fn serialize_elements<S: Sink>(&self, sink: &mut S) {
        sink.element();
        self.0.serialize(sink);
        sink.element();
        self.1.serialize(sink);
    }

    fn deserialize_elements(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        Ok((r.element(0)?, r.element(1)?))
    }
}

/// A hash map that checkpoints in key order.
///
/// It derefs to an [`FxHashMap<K, V>`], so lookups cost what they
/// always did. It is written as a list sorted by `K`, each entry the
/// key's elements then the value (see [`EntryKey`]). A packed key names
/// its written form `W` (default `K`), converted with `From`/`TryFrom`.
/// Decoding rejects a repeated key.
///
/// ```
/// use gvc_engine::SortedMap;
/// use serde::Serialize;
///
/// let mut m: SortedMap<(u16, u64), u32> = SortedMap::default();
/// m.insert((2, 7), 1);
/// m.insert((1, 9), 3);
/// let mut w = serde::JsonWriter::compact();
/// m.serialize(&mut w);
/// assert_eq!(w.into_string(), "[[1,9,3],[2,7,1]]");
/// ```
#[derive(Debug)]
pub struct SortedMap<K, V, W = K>(FxHashMap<K, V>, PhantomData<fn(W) -> W>);

impl<K, V, W> Default for SortedMap<K, V, W> {
    fn default() -> Self {
        SortedMap(FxHashMap::default(), PhantomData)
    }
}

/// A clone is sized to the entries, not to the source's buckets: an
/// MSHR file that once passed its 4,096-entry cap keeps a table twice
/// what it holds, and a soak copies every map into each checkpoint.
impl<K: Clone + Eq + Hash, V: Clone, W> Clone for SortedMap<K, V, W> {
    fn clone(&self) -> Self {
        let entries = self.0.iter().map(|(k, v)| (k.clone(), v.clone()));
        SortedMap(entries.collect(), PhantomData)
    }
}

impl<K: Eq + Hash, V: PartialEq, W> PartialEq for SortedMap<K, V, W> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K: Eq + Hash, V: Eq, W> Eq for SortedMap<K, V, W> {}

impl<K, V, W> Deref for SortedMap<K, V, W> {
    type Target = FxHashMap<K, V>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<K, V, W> DerefMut for SortedMap<K, V, W> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<K, V, W> Serialize for SortedMap<K, V, W>
where
    K: Ord + Copy,
    V: Serialize,
    W: EntryKey + From<K>,
{
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        sink.open_seq();
        for (&k, v) in entries {
            sink.element();
            sink.open_seq();
            W::from(k).serialize_elements(sink);
            sink.element();
            v.serialize(sink);
            sink.close_seq();
        }
        sink.close_seq();
    }
}

impl<K, V, W> Deserialize for SortedMap<K, V, W>
where
    K: Eq + Hash + TryFrom<W>,
    K::Error: std::fmt::Display,
    V: Deserialize,
    W: EntryKey,
{
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        let mut out = SortedMap::default();
        r.seq(|r| {
            r.open_seq()?;
            let key = W::deserialize_elements(r)?;
            let key = K::try_from(key).map_err(|e| Error::msg(e.to_string()))?;
            let value = r.element(W::ELEMENTS)?;
            r.close_seq()?;
            match out.insert(key, value) {
                None => Ok(()),
                Some(_) => Err(Error::msg("sorted-map entry repeats an earlier key")),
            }
        })?;
        Ok(out)
    }
}

/// Gives a live type `Serialize`, `Deserialize` and `PartialEq` through
/// its mirror, from `snapshot(&self) -> $mirror` and
/// `from_snapshot(&$mirror) -> Result<Self, serde::Error>`. What the
/// mirror leaves out (an MRU hint, slots past occupancy) is not compared.
/// Given a message, it also adds `restore`, which checks that the
/// `config` fields match before copying.
#[macro_export]
macro_rules! checkpoint_via_mirror {
    ($live:ty, $mirror:ty, $mismatch:literal) => {
        $crate::checkpoint_via_mirror!($live, $mirror);

        impl $live {
            /// Restores `snap`, which must have been built with the
            /// same configuration.
            ///
            /// # Panics
            ///
            /// Panics if the configurations differ.
            pub fn restore(&mut self, snap: &Self) {
                assert_eq!(self.config, snap.config, $mismatch);
                self.clone_from(snap);
            }
        }
    };
    ($live:ty, $mirror:ty) => {
        impl ::serde::Serialize for $live {
            fn serialize<S: ::serde::Sink>(&self, sink: &mut S) {
                ::serde::Serialize::serialize(&self.snapshot(), sink)
            }
        }

        impl ::serde::Deserialize for $live {
            fn deserialize(
                r: &mut ::serde::JsonReader<'_>,
            ) -> ::std::result::Result<Self, ::serde::Error> {
                Self::from_snapshot(&<$mirror as ::serde::Deserialize>::deserialize(r)?)
            }
        }

        impl ::std::cmp::PartialEq for $live {
            fn eq(&self, other: &Self) -> bool {
                self.snapshot() == other.snapshot()
            }
        }
    };
}
