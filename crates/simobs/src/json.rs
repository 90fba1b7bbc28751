//! The one JSON writer for every report line the binaries print and for
//! the Chrome-trace export. [`object`] appends an object to a `String`
//! the caller owns and a [`Writer`] writes its members; a nested object
//! or array ([`Obj`], [`Arr`], [`Seq`]) closes when its closure or
//! iterator ends, so no bracket is left open. Every key and string is
//! escaped ([`escape`]); integers and booleans are written as `Display`
//! writes them, floats at the decimals the caller names ([`Fixed`]),
//! digests as hex ([`Hex`]).

use std::fmt::Write as _;

/// Something a [`Writer`] can write as a JSON value.
pub trait Value {
    /// Appends the value's JSON text to `out`.
    fn write_to(self, out: &mut String);
}

impl<T: AsRef<str> + ?Sized> Value for &T {
    fn write_to(self, out: &mut String) {
        out.push('"');
        escape_into(out, self.as_ref());
        out.push('"');
    }
}

macro_rules! display_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_to(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_value!(bool, u64, usize, i64);

/// A float with a fixed number of decimals: `Fixed(x, 6)` writes `{x:.6}`.
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write_to(self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// A 64-bit digest or bit pattern, as a string of 16 lowercase hex digits.
pub struct Hex(pub u64);

impl Value for Hex {
    fn write_to(self, out: &mut String) {
        let _ = write!(out, "\"{:016x}\"", self.0);
    }
}

/// A nested object whose members the closure writes.
pub struct Obj<F: FnOnce(&mut Writer)>(pub F);

impl<F: FnOnce(&mut Writer)> Value for Obj<F> {
    fn write_to(self, out: &mut String) {
        out.push('{');
        self.0(&mut Writer { out, empty: true });
        out.push('}');
    }
}

/// A nested array whose elements the closure writes.
pub struct Arr<F: FnOnce(&mut Writer)>(pub F);

impl<F: FnOnce(&mut Writer)> Value for Arr<F> {
    fn write_to(self, out: &mut String) {
        out.push('[');
        self.0(&mut Writer { out, empty: true });
        out.push(']');
    }
}

/// An array of the values an iterator yields.
pub struct Seq<I>(pub I);

impl<I: IntoIterator<Item: Value>> Value for Seq<I> {
    fn write_to(self, out: &mut String) {
        Arr(|a| {
            for v in self.0 {
                a.item(v);
            }
        })
        .write_to(out);
    }
}

/// Appends one JSON object, whose members `f` writes, to `out`.
pub fn object(out: &mut String, f: impl FnOnce(&mut Writer)) {
    Obj(f).write_to(out);
}

/// The members of one JSON object, or the elements of one array.
pub struct Writer<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Writer<'_> {
    /// Writes the object member `key: value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        self.item(key);
        self.out.push(':');
        value.write_to(self.out);
        self
    }

    /// Writes the array element `value`.
    pub fn item(&mut self, value: impl Value) -> &mut Self {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        value.write_to(self.out);
        self
    }
}

/// Escapes `s` for a JSON string literal: `"` and `\` get a backslash,
/// newline, carriage return and tab their short escapes, other control
/// characters `\u00XX`; everything else is copied as is.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_objects_and_arrays() {
        let mut s = String::new();
        object(&mut s, |o| {
            o.field("name", "a\"b").field("n", 3usize).field("ok", true);
            o.field("x", Fixed(0.5, 3)).field("d", Hex(0xab));
            o.field(
                "rows",
                Arr(|rows| {
                    rows.item(Arr(|row| {
                        row.item("r").item(-1i64);
                    }));
                }),
            );
            o.field("empty", Obj(|_| {}));
        });
        assert_eq!(
            s,
            r#"{"name":"a\"b","n":3,"ok":true,"x":0.500,"d":"00000000000000ab","rows":[["r",-1]],"empty":{}}"#
        );
    }

    #[test]
    fn escapes_keys_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\n\"b\\"), "a\\n\\\"b\\\\");
        assert_eq!(escape("\u{1}\t\r\u{7f}é"), "\\u0001\\t\\r\u{7f}é");
        let mut s = String::new();
        object(&mut s, |o| {
            o.field("k\"", 1u64);
        });
        assert_eq!(s, r#"{"k\"":1}"#);
    }
}
