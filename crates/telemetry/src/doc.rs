//! One document model for every `presto.*.v1` JSON document.
//!
//! A document struct lists its members exactly once, in
//! [`Record::fields`]: wire name, Rust field and kind, in wire order.
//! The one generic writer ([`write`]) and the one generic reader
//! ([`read`]) both walk that list, so what is written is what is read
//! back, and validating a document is reading it and dropping the
//! result. Unknown members are ignored; a member is tolerated absent
//! only where its field list says so.
//!
//! Layout (the one rule every document shares): the top-level object
//! puts each member on its own line, an array that is a top-level
//! member puts each element on its own line, and everything deeper is
//! written inline.

use crate::export::{json_escape, parse_json, JsonValue};
use std::fmt::Write as _;

/// Largest magnitude an integer member may have: past 2^53 an
/// f64-carried JSON number no longer holds every integer exactly.
const EXACT: f64 = 9_007_199_254_740_992.0;

/// A leaf value: one JSON number, boolean or string.
pub trait Scalar: Sized + Default {
    /// What the reader accepts, for "must be …" errors.
    const KIND: &'static str;
    /// Append the JSON form.
    fn write(&self, out: &mut String);
    /// The value, if `value` is of this kind.
    fn read(value: &JsonValue) -> Option<Self>;
    /// True for a value with no JSON form of its own: written as
    /// `null` where the member is required, left out where optional.
    fn is_null(&self) -> bool {
        false
    }
}

macro_rules! int_scalar {
    ($($t:ty: $kind:literal),*) => {$(
        impl Scalar for $t {
            const KIND: &'static str = $kind;
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(value: &JsonValue) -> Option<Self> {
                let n = value.as_f64()?;
                // `as` saturates (and maps NaN to 0), so the cast only
                // survives the way back for an integral in-range value.
                (n.abs() <= EXACT && (n as $t) as f64 == n).then_some(n as $t)
            }
        }
    )*};
}
int_scalar!(
    u64: "an integer in 0..=2^53",
    usize: "an integer in 0..=2^53",
    u32: "an integer in 0..=2^32-1",
    i64: "an integer in -2^53..=2^53"
);

impl Scalar for f64 {
    const KIND: &'static str = "a finite number";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(value: &JsonValue) -> Option<Self> {
        value.as_f64().filter(|n| n.is_finite())
    }
}

impl Scalar for bool {
    const KIND: &'static str = "a boolean";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(value: &JsonValue) -> Option<Self> {
        match value {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Scalar for String {
    const KIND: &'static str = "a string";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", json_escape(self));
    }
    fn read(value: &JsonValue) -> Option<Self> {
        value.as_str().map(str::to_string)
    }
}

impl<T: Scalar> Scalar for Option<T> {
    const KIND: &'static str = T::KIND;
    fn write(&self, out: &mut String) {
        match self {
            Some(x) => x.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(value: &JsonValue) -> Option<Self> {
        match value {
            JsonValue::Null => Some(None),
            value => T::read(value).map(Some),
        }
    }
    fn is_null(&self) -> bool {
        self.is_none()
    }
}

/// A struct whose members are described once, for writer and reader
/// alike. `fields` visits every member in wire order. The reader
/// starts from `Default`, which only what is read back needs.
pub trait Record {
    /// Visit each member: name, field, kind.
    fn fields<V: Visitor>(&mut self, v: &mut V);
}

/// A top-level, schema-tagged document.
pub trait Document: Record {
    /// The `"schema"` tag, written first and required on read.
    const SCHEMA: &'static str;
    /// Rules over the decoded document that no single member's kind
    /// can state. [`read`] applies them after decoding.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// What a field list is written against. The writer reads through the
/// `&mut` it is handed, the reader assigns through it.
pub trait Visitor: Sized {
    /// A scalar member; `optional` tolerates its absence on read
    /// (the field keeps its default).
    fn scalar<T: Scalar>(&mut self, name: &'static str, x: &mut T, optional: bool);
    /// A required float printed with `digits` decimals.
    fn fixed(&mut self, name: &'static str, x: &mut f64, digits: usize);
    /// A write-only member derived from the others: printed with
    /// `digits` decimals, required to be a number on read, discarded.
    fn derived(&mut self, name: &'static str, value: f64, digits: usize);
    /// A nested object whose members `f` visits; `optional` tolerates
    /// its absence on read.
    fn object(&mut self, name: &'static str, optional: bool, f: impl FnOnce(&mut Self));
    /// An array of objects.
    fn records<R: Record + Default>(&mut self, name: &'static str, items: &mut Vec<R>);
    /// An array of positional rows: each record is an array of its
    /// member values in field order, without names.
    fn rows<R: Record + Default>(&mut self, name: &'static str, items: &mut Vec<R>);
    /// An array of scalars.
    fn list<T: Scalar>(&mut self, name: &'static str, items: &mut Vec<T>);

    /// A required scalar member.
    fn req<T: Scalar>(&mut self, name: &'static str, x: &mut T) {
        self.scalar(name, x, false);
    }
    /// A scalar member tolerated absent.
    fn opt<T: Scalar>(&mut self, name: &'static str, x: &mut T) {
        self.scalar(name, x, true);
    }
    /// A required nested record.
    fn record<R: Record>(&mut self, name: &'static str, r: &mut R) {
        self.object(name, false, |v| r.fields(v));
    }
}

/// Render `doc` as its schema-tagged JSON document.
pub fn write<D: Document>(mut doc: D) -> String {
    let mut w = Writer {
        out: format!("{{\n  \"schema\": \"{}\"", D::SCHEMA),
        depth: 1,
        first: false,
        positional: false,
    };
    doc.fields(&mut w);
    w.out.push_str("\n}\n");
    w.out
}

/// Decode a document of schema `D`, naming the offending member when
/// the input is not one.
pub fn read<D: Document + Default>(input: &str) -> Result<D, String> {
    let json = parse_json(input)?;
    match json.require("schema")?.as_str() {
        Some(schema) if schema == D::SCHEMA => {}
        Some(other) => return Err(format!("wrong schema '{other}', expected '{}'", D::SCHEMA)),
        None => return Err("'schema' must be a string".into()),
    }
    let mut doc = D::default();
    let mut reader = Reader {
        at: &json,
        next: None,
        path: String::new(),
        err: None,
    };
    doc.fields(&mut reader);
    match reader.err {
        Some(err) => Err(err),
        None => doc.check().map(|()| doc),
    }
}

struct Writer {
    out: String,
    /// Open containers; 1 is the top-level object.
    depth: usize,
    first: bool,
    positional: bool,
}

impl Writer {
    fn key(&mut self, name: &str) {
        let top = self.depth == 1;
        if !self.first {
            self.out.push_str(if top { ",\n" } else { ", " });
        }
        self.first = false;
        if top {
            self.out.push_str("  ");
        }
        if !self.positional {
            let _ = write!(self.out, "\"{name}\": ");
        }
    }

    fn nest(&mut self, brackets: [char; 2], positional: bool, f: impl FnOnce(&mut Self)) {
        let saved = (self.first, self.positional);
        self.out.push(brackets[0]);
        self.depth += 1;
        (self.first, self.positional) = (true, positional);
        f(self);
        self.depth -= 1;
        (self.first, self.positional) = saved;
        self.out.push(brackets[1]);
    }

    fn array<T>(&mut self, name: &str, items: &mut [T], mut each: impl FnMut(&mut Self, &mut T)) {
        self.key(name);
        let lines = self.depth == 1;
        self.out.push('[');
        for (i, item) in items.iter_mut().enumerate() {
            if i > 0 {
                self.out.push_str(if lines { "," } else { ", " });
            }
            if lines {
                self.out.push_str("\n    ");
            }
            each(self, item);
        }
        if lines {
            self.out.push_str("\n  ");
        }
        self.out.push(']');
    }
}

impl Visitor for Writer {
    fn scalar<T: Scalar>(&mut self, name: &'static str, x: &mut T, optional: bool) {
        if !(optional && x.is_null()) {
            self.key(name);
            x.write(&mut self.out);
        }
    }

    fn fixed(&mut self, name: &'static str, x: &mut f64, digits: usize) {
        self.derived(name, *x, digits);
    }

    fn derived(&mut self, name: &'static str, value: f64, digits: usize) {
        self.key(name);
        let _ = write!(self.out, "{value:.digits$}");
    }

    fn object(&mut self, name: &'static str, _optional: bool, f: impl FnOnce(&mut Self)) {
        self.key(name);
        self.nest(['{', '}'], false, f);
    }

    fn records<R: Record + Default>(&mut self, name: &'static str, items: &mut Vec<R>) {
        self.array(name, items, |w, r| {
            w.nest(['{', '}'], false, |w| r.fields(w))
        });
    }

    fn rows<R: Record + Default>(&mut self, name: &'static str, items: &mut Vec<R>) {
        self.array(name, items, |w, r| {
            w.nest(['[', ']'], true, |w| r.fields(w))
        });
    }

    fn list<T: Scalar>(&mut self, name: &'static str, items: &mut Vec<T>) {
        self.array(name, items, |w, x| x.write(&mut w.out));
    }
}

struct Reader<'a> {
    /// The object whose members are being visited, or the row.
    at: &'a JsonValue,
    /// Inside a row: the next position.
    next: Option<usize>,
    /// Path of `at` for errors, e.g. `workers[2].`.
    path: String,
    /// The first error; once set, every later visit is a no-op.
    err: Option<String>,
}

impl<'a> Reader<'a> {
    fn fail(&mut self, name: &str, what: impl std::fmt::Display) {
        if self.err.is_none() {
            self.err = Some(format!("'{}{name}' {what}", self.path));
        }
    }

    fn member(&mut self, name: &str, optional: bool) -> Option<&'a JsonValue> {
        if self.err.is_some() {
            return None;
        }
        let found = match &mut self.next {
            Some(i) => {
                *i += 1;
                self.at.as_array().and_then(|row| row.get(*i - 1))
            }
            None => self.at.get(name),
        };
        if found.is_none() && !optional {
            self.err = Some(format!("missing required field '{}{name}'", self.path));
        }
        found
    }

    /// Run `f` with `segment` appended to the error path.
    fn at_path(&mut self, segment: std::fmt::Arguments, f: impl FnOnce(&mut Self)) {
        let base = self.path.len();
        let _ = self.path.write_fmt(segment);
        f(self);
        self.path.truncate(base);
    }

    /// Visit the members of `value`: an object, or a row of exactly as
    /// many values as `f` visits.
    fn enter(&mut self, value: &'a JsonValue, row: bool, f: impl FnOnce(&mut Self)) {
        let width = match value {
            JsonValue::Object(_) if !row => None,
            JsonValue::Array(items) if row => Some(items.len()),
            _ if row => return self.fail("", "must be an array"),
            _ => return self.fail("", "must be an object"),
        };
        let saved = (self.at, self.next);
        (self.at, self.next) = (value, width.map(|_| 0));
        self.at_path(format_args!("."), f);
        if let (Some(width), Some(visited)) = (width, self.next) {
            if width != visited {
                self.fail("", format_args!("must hold {visited} values, not {width}"));
            }
        }
        (self.at, self.next) = saved;
    }

    fn array<T: Default>(
        &mut self,
        name: &'static str,
        items: &mut Vec<T>,
        mut each: impl FnMut(&mut Self, &'a JsonValue, &mut T),
    ) {
        let Some(value) = self.member(name, false) else {
            return;
        };
        let Some(elements) = value.as_array() else {
            return self.fail(name, "must be an array");
        };
        items.clear();
        for (i, element) in elements.iter().enumerate() {
            let mut item = T::default();
            self.at_path(format_args!("{name}[{i}]"), |r| each(r, element, &mut item));
            if self.err.is_some() {
                return;
            }
            items.push(item);
        }
    }
}

impl Visitor for Reader<'_> {
    fn scalar<T: Scalar>(&mut self, name: &'static str, x: &mut T, optional: bool) {
        if let Some(value) = self.member(name, optional) {
            match T::read(value) {
                Some(read) => *x = read,
                None => self.fail(name, format_args!("must be {}", T::KIND)),
            }
        }
    }

    fn fixed(&mut self, name: &'static str, x: &mut f64, _digits: usize) {
        self.scalar(name, x, false);
    }

    fn derived(&mut self, name: &'static str, _value: f64, _digits: usize) {
        self.scalar(name, &mut 0.0, false);
    }

    fn object(&mut self, name: &'static str, optional: bool, f: impl FnOnce(&mut Self)) {
        if let Some(value) = self.member(name, optional) {
            self.at_path(format_args!("{name}"), |r| r.enter(value, false, f));
        }
    }

    fn records<R: Record + Default>(&mut self, name: &'static str, items: &mut Vec<R>) {
        self.array(name, items, |r, value, item: &mut R| {
            r.enter(value, false, |r| item.fields(r));
        });
    }

    fn rows<R: Record + Default>(&mut self, name: &'static str, items: &mut Vec<R>) {
        self.array(name, items, |r, value, item: &mut R| {
            r.enter(value, true, |r| item.fields(r));
        });
    }

    fn list<T: Scalar>(&mut self, name: &'static str, items: &mut Vec<T>) {
        self.array(name, items, |r, value, item: &mut T| match T::read(value) {
            Some(read) => *item = read,
            None => r.fail("", format_args!("must be {}", T::KIND)),
        });
    }
}
