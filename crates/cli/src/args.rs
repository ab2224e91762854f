//! Table-driven `--flag [value]` parsing (no external dependencies).
//! Every command declares its flags once, as [`Flag`] tables; parsing,
//! unknown-flag rejection and usage text all read those tables.

use std::collections::HashMap;

/// One declared flag: its name, the placeholder of the value it takes
/// (`None` for a switch) and one help line.
#[derive(Debug)]
pub struct Flag {
    /// The name after `--`.
    pub name: &'static str,
    /// Placeholder shown in usage (`N`, `ADDR`, …); `None` for a switch.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

/// A switch: present or absent, never takes a value.
pub const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        help,
    }
}

/// A flag taking one value, shown as `placeholder` in usage.
pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: Some(placeholder),
        help,
    }
}

impl Flag {
    /// `--name` or `--name PLACEHOLDER`, as usage prints it.
    pub fn synopsis(&self) -> String {
        match self.value {
            Some(placeholder) => format!("--{} {placeholder}", self.name),
            None => format!("--{}", self.name),
        }
    }
}

/// The flag named `name` in `groups`, if declared.
pub fn find(groups: &[&'static [Flag]], name: &str) -> Option<&'static Flag> {
    groups
        .iter()
        .flat_map(|g| g.iter())
        .find(|f| f.name == name)
}

/// Parsed positional arguments and declared flags.
#[derive(Debug)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    options: HashMap<&'static str, String>,
    declared: &'static [&'static [Flag]],
}

/// Parse `argv` against the `declared` flag groups. A switch never
/// swallows the next word; a value flag always takes it, and refuses
/// a missing value or one that is itself a `--flag`. Undeclared and
/// repeated flags are errors.
pub fn parse(argv: &[String], declared: &'static [&'static [Flag]]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        options: HashMap::new(),
        declared,
    };
    let mut words = argv.iter().peekable();
    while let Some(word) = words.next() {
        let Some(name) = word.strip_prefix("--") else {
            args.positional.push(word.clone());
            continue;
        };
        if name.is_empty() {
            return Err("empty option name '--'".into());
        }
        let flag = find(declared, name).ok_or_else(|| format!("unknown option --{name}"))?;
        let value = match flag.value {
            None => "true".to_string(),
            Some(placeholder) => match words.next_if(|next| !next.starts_with("--")) {
                Some(value) => value.clone(),
                None => return Err(format!("--{name} needs a value ({placeholder})")),
            },
        };
        if args.options.insert(flag.name, value).is_some() {
            return Err(format!("duplicate option --{name}"));
        }
    }
    Ok(args)
}

impl Args {
    /// An option as a string, if present. Reading a flag the command
    /// never declared is a table bug: the user could not have passed it.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        debug_assert!(
            find(self.declared, key).is_some(),
            "--{key} read but not declared"
        );
        self.options.get(key).map(String::as_str)
    }

    /// An option parsed as `T`, or `default` when absent.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// An option parsed as `T`, or `None` when absent.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get_str(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("invalid value for --{key}: '{raw}'"))
            })
            .transpose()
    }

    /// True when the switch (or option) `key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.get_str(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        value("epochs", "N", "epochs"),
        switch("ssd", "an SSD"),
        switch("a", "a switch"),
        value("b", "X", "a value"),
        value("x", "X", "a value"),
    ];
    const TABLE: &[&[Flag]] = &[FLAGS];

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn positionals_and_options() {
        let args = parse(&argv(&["profile", "CV", "--epochs", "2", "--ssd"]), TABLE).unwrap();
        assert_eq!(args.positional, vec!["profile", "CV"]);
        assert_eq!(args.get_or("epochs", 1usize).unwrap(), 2);
        assert!(args.has("ssd"));
        // A switch never swallows the positional after it.
        let args = parse(&argv(&["recommend", "--ssd", "CV", "--epochs", "2"]), TABLE).unwrap();
        assert_eq!(args.positional, vec!["recommend", "CV"]);
        assert!(args.has("ssd"));
    }

    #[test]
    fn flag_before_flag_is_boolean() {
        let args = parse(&argv(&["--a", "--b", "x"]), TABLE).unwrap();
        assert!(args.has("a"));
        assert_eq!(args.get_str("b"), Some("x"));
        // A value flag refuses a missing value instead of becoming one.
        assert!(parse(&argv(&["--b", "--a"]), TABLE).is_err());
        assert!(parse(&argv(&["--b"]), TABLE).is_err());
    }

    #[test]
    fn duplicate_and_empty_rejected() {
        assert!(parse(&argv(&["--x", "1", "--x", "2"]), TABLE).is_err());
        assert!(parse(&argv(&["--"]), TABLE).is_err());
    }

    #[test]
    fn bad_numeric_value_reports_key() {
        let args = parse(&argv(&["--epochs", "lots"]), TABLE).unwrap();
        let err = args.get_or("epochs", 1usize).unwrap_err();
        assert!(err.contains("epochs"));
        assert_eq!(args.get_opt::<u64>("x").unwrap(), None);
    }

    #[test]
    fn unknown_option_detection() {
        let err = parse(&argv(&["--epohcs", "3"]), TABLE).unwrap_err();
        assert!(err.contains("--epohcs"), "{err}");
        assert!(parse(&argv(&["--epochs", "3"]), TABLE).is_ok());
    }
}
