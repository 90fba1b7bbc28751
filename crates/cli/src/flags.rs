//! The `--key value` pair reader every front end shares: `pckpt`'s
//! options, `pckpt logs`' flags and `pckptd`'s flags, with the check
//! that a command reads every option it was given.

/// `--key value` pairs, in the order given.
pub type Pairs<'a> = Vec<(&'a str, &'a str)>;

/// Reads `--key value` pairs, in order. A key not in `known`, a key
/// without a value and a key given twice are each an error naming the
/// key, so no flag is dropped and none has two values to choose
/// between.
pub fn pairs<'a>(
    args: impl IntoIterator<Item = &'a String>,
    known: &[&str],
) -> Result<Pairs<'a>, String> {
    let mut args = args.into_iter();
    let mut pairs = Pairs::new();
    while let Some(key) = args.next() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown option {key:?}"));
        }
        let value = args
            .next()
            .ok_or_else(|| format!("option {key} requires a value"))?;
        if pairs.iter().any(|&(k, _)| k == key) {
            return Err(format!("option {key} given twice"));
        }
        pairs.push((key, value));
    }
    Ok(pairs)
}

/// Rejects the first given option that is not in `used`, the options
/// the command reads, so none is silently ignored.
pub fn reject_unused(given: &[(&str, &str)], used: &[&str]) -> Result<(), String> {
    match given.iter().find(|(k, _)| !used.contains(k)) {
        Some((k, _)) => Err(format!("unexpected option {k}")),
        None => Ok(()),
    }
}

/// The value given for `key`, parsed; `None` when `key` was not given.
pub fn value<T: std::str::FromStr>(pairs: &[(&str, &str)], key: &str) -> Result<Option<T>, String> {
    let Some(&(_, v)) = pairs.iter().find(|&&(k, _)| k == key) else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|_| format!("{key}: cannot parse {v:?}"))
}
