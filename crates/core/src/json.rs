//! Reading the stored formats (the checkpoint and the workload file) out
//! of a [`Value`] tree by hand. Every reader says what it expected and
//! what it found, and [`field`] and [`array_of`] prefix where: a load
//! error reads `model.cfg.lambda: expected number, found null` or
//! `encoder: stats.freq[2]: …`.

use serde_json::Value;

/// `error` placed under `at`: `at[i]…` for an index, `at: …` otherwise.
fn under(at: &str, error: &str) -> String {
    if error.starts_with('[') {
        format!("{at}{error}")
    } else {
        format!("{at}: {error}")
    }
}

/// The value at the dotted `path` of `v` (`"model.cfg"`).
pub(crate) fn value_at<'a>(v: &'a Value, path: &str) -> Result<&'a Value, String> {
    path.split('.').try_fold(v, |node, key| {
        node.get(key)
            .ok_or_else(|| format!("missing field `{path}`"))
    })
}

/// The value at the dotted `path` of `v`, read by `read`; an error names
/// the path.
pub(crate) fn field<'a, T>(
    v: &'a Value,
    path: &str,
    read: impl FnOnce(&'a Value) -> Result<T, String>,
) -> Result<T, String> {
    read(value_at(v, path)?).map_err(|e| under(path, &e))
}

/// [`field`] for a key that may be missing: `None` then.
pub(crate) fn optional_field<'a, T>(
    v: &'a Value,
    path: &str,
    read: impl FnOnce(&'a Value) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match value_at(v, path) {
        Ok(x) => read(x).map(Some).map_err(|e| under(path, &e)),
        Err(_) => Ok(None),
    }
}

/// The items of array `v`.
pub(crate) fn items_of(v: &Value) -> Result<&[Value], String> {
    v.as_array().ok_or_else(|| expected("array", v))
}

/// Each item of array `v`, read by `read`; an error names the index.
pub(crate) fn array_of<'a, T>(
    v: &'a Value,
    mut read: impl FnMut(&'a Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    items_of(v)?
        .iter()
        .enumerate()
        .map(|(i, x)| read(x).map_err(|e| under(&format!("[{i}]"), &e)))
        .collect()
}

/// `expected <what>, found <v's kind>`.
fn expected(what: &str, v: &Value) -> String {
    format!("expected {what}, found {}", v.kind())
}

/// A non-negative integer that fits `T` (an integral float such as `2.0`
/// counts).
pub(crate) fn uint_of<T: TryFrom<u64>>(v: &Value) -> Result<T, String> {
    let n = v.as_u64().ok_or_else(|| expected("unsigned integer", v))?;
    T::try_from(n).map_err(|_| {
        format!(
            "integer {n} out of range for {}",
            std::any::type_name::<T>()
        )
    })
}

/// A number, narrowed to `f32`: one past `f32`'s range reads as an
/// infinity, which the caller rejects where it matters, naming the value.
pub(crate) fn f32_of(v: &Value) -> Result<f32, String> {
    let x = v.as_f64().ok_or_else(|| expected("number", v))?;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a stored f32 is printed widened to f64; narrowing gives its bits back"
    )]
    let narrowed = x as f32;
    Ok(narrowed)
}

/// A number that is finite as an `f32`.
pub(crate) fn finite_f32_of(v: &Value) -> Result<f32, String> {
    let x = f32_of(v)?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!(
            "{:e} is not a finite f32",
            v.as_f64().unwrap_or(f64::NAN)
        ))
    }
}

/// A string.
pub(crate) fn str_of(v: &Value) -> Result<&str, String> {
    v.as_str().ok_or_else(|| expected("string", v))
}

/// The one of `all` whose `name` is the string `v`.
pub(crate) fn variant_of<T: Copy>(
    v: &Value,
    all: &[T],
    name: fn(T) -> &'static str,
) -> Result<T, String> {
    let s = str_of(v)?;
    all.iter()
        .copied()
        .find(|&x| name(x) == s)
        .ok_or_else(|| format!("unknown variant `{s}`"))
}

/// An unsigned integer as a JSON value.
pub(crate) fn uint(n: usize) -> Value {
    Value::UInt(n as u64)
}

/// An `f32` as a JSON value: widened to `f64`, whose shortest round-trip
/// text narrows back to the same bits.
pub(crate) fn float(x: f32) -> Value {
    Value::Float(f64::from(x))
}

/// A JSON object of `pairs`, in order.
pub(crate) fn object<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn errors_name_the_path_and_the_index() {
        let v = json(r#"{"a":{"b":[1,2,"x"]},"n":null}"#);
        let read = |path| field(&v, path, |x| array_of(x, uint_of::<u32>));
        assert_eq!(
            read("a.b").unwrap_err(),
            "a.b[2]: expected unsigned integer, found string"
        );
        assert_eq!(read("a.c").unwrap_err(), "missing field `a.c`");
        assert_eq!(read("n").unwrap_err(), "n: expected array, found null");
        assert_eq!(optional_field(&v, "a.c", uint_of::<u32>), Ok(None));
    }

    #[test]
    fn numbers_are_checked_for_their_type() {
        assert_eq!(uint_of::<u32>(&json("7.0")), Ok(7));
        assert_eq!(
            uint_of::<u32>(&json("4294967296")).unwrap_err(),
            "integer 4294967296 out of range for u32"
        );
        assert!(uint_of::<u64>(&json("-1")).is_err());
        assert_eq!(f32_of(&json("1e39")), Ok(f32::INFINITY));
        assert_eq!(
            finite_f32_of(&json("1e39")).unwrap_err(),
            "1e39 is not a finite f32"
        );
        assert_eq!(
            finite_f32_of(&json("null")).unwrap_err(),
            "expected number, found null"
        );
    }
}
