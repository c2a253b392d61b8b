//! Component registries: one table of rows per scenario axis.
//!
//! A scenario composes its capability classes, workload, adversary family and
//! exporter by name. Each axis is a [`ComponentRegistry`]: a fixed array of
//! [`Component`] rows, each a name, the declared parameters and the
//! constructor. Adding a component is adding a row.
//!
//! * [`ParamValue`] / [`ParamMap`] — an ordered, typed key→value bag used to
//!   parameterize component construction.
//! * [`ParamSpec`] — one declared parameter: its key and its default, whose
//!   variant is the parameter's type. A row's list of specs is its schema,
//!   checked before the constructor runs.
//! * [`ComponentError`] — every unknown name, unknown key, ill-typed or
//!   out-of-range value is a structured error naming the offender, never a
//!   panic.

use std::fmt;

/// A typed parameter value accepted by component factories.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer (counts, node indices, stream ids).
    Int(i64),
    /// Floating-point value (fractions, rates, durations in seconds).
    Float(f64),
}

impl ParamValue {
    /// The human-readable name of this value's type, used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ParamValue::Bool(_) => "bool",
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
        }
    }
}

/// An ordered key→value map of component parameters.
///
/// Insertion order is preserved so that rendered compositions (`--list`,
/// manifests) are stable across runs; lookups are linear, which is fine for
/// the handful of parameters a component takes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamMap {
    entries: Vec<(String, ParamValue)>,
}

impl ParamMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ParamMap::default()
    }

    /// Inserts (or replaces) a parameter, builder-style.
    pub fn with(mut self, key: &str, value: ParamValue) -> Self {
        self.set(key, value);
        self
    }

    /// Inserts (or replaces) a parameter.
    pub fn set(&mut self, key: &str, value: ParamValue) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
    }

    /// Looks up a parameter by key.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders `key=value,key=value` for compositions and manifests.
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The float parameter `key` (an `Int` is widened). For use inside a
    /// [`Component`]'s `build`, where the row's specs have already supplied
    /// and typed every declared key.
    ///
    /// # Panics
    ///
    /// Panics if the map was not validated against specs declaring `key` as
    /// a float.
    pub fn float(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(ParamValue::Float(x)) => *x,
            Some(ParamValue::Int(x)) => *x as f64,
            _ => unreachable!("schema-validated float param `{key}`"),
        }
    }

    /// The integer parameter `key`; same contract as [`ParamMap::float`].
    pub fn int(&self, key: &str) -> i64 {
        match self.get(key) {
            Some(ParamValue::Int(x)) => *x,
            _ => unreachable!("schema-validated int param `{key}`"),
        }
    }

    /// The boolean parameter `key`; same contract as [`ParamMap::float`].
    pub fn bool(&self, key: &str) -> bool {
        match self.get(key) {
            Some(ParamValue::Bool(b)) => *b,
            _ => unreachable!("schema-validated bool param `{key}`"),
        }
    }

    /// The float parameter `key` if it satisfies `ok`, otherwise an
    /// [`ComponentError::InvalidParam`] reading `"<value> <complaint>"`. NaN
    /// fails any comparison, so range predicates reject it for free.
    pub fn float_where(
        &self,
        component: &str,
        key: &str,
        ok: impl Fn(f64) -> bool,
        complaint: &str,
    ) -> Result<f64, ComponentError> {
        checked(self.float(key), component, key, ok, complaint)
    }

    /// The integer counterpart of [`ParamMap::float_where`].
    pub fn int_where(
        &self,
        component: &str,
        key: &str,
        ok: impl Fn(i64) -> bool,
        complaint: &str,
    ) -> Result<i64, ComponentError> {
        checked(self.int(key), component, key, ok, complaint)
    }

    /// The float parameter `key`, required to lie in `[0, 1]`.
    pub fn fraction(&self, component: &str, key: &str) -> Result<f64, ComponentError> {
        self.float_where(
            component,
            key,
            |x| (0.0..=1.0).contains(&x),
            "is not in [0, 1]",
        )
    }

    /// The integer parameter `key`, required to be at least 1.
    pub fn positive_int(&self, component: &str, key: &str) -> Result<i64, ComponentError> {
        self.int_where(component, key, |x| x >= 1, "must be at least 1")
    }
}

fn checked<T: Copy + fmt::Display>(
    x: T,
    component: &str,
    key: &str,
    ok: impl Fn(T) -> bool,
    complaint: &str,
) -> Result<T, ComponentError> {
    if ok(x) {
        Ok(x)
    } else {
        Err(ComponentError::invalid(
            component,
            key,
            format!("{x} {complaint}"),
        ))
    }
}

/// One declared parameter of a component: its key and the default used when
/// it is omitted. The default's variant is the parameter's type (a float
/// parameter also accepts an `Int`, widened).
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter key as it appears in a [`ParamMap`].
    pub key: &'static str,
    /// Default value, and thereby type.
    pub default: ParamValue,
}

impl ParamSpec {
    /// A float parameter.
    pub const fn float(key: &'static str, default: f64) -> Self {
        ParamSpec {
            key,
            default: ParamValue::Float(default),
        }
    }

    /// An integer parameter.
    pub const fn int(key: &'static str, default: i64) -> Self {
        ParamSpec {
            key,
            default: ParamValue::Int(default),
        }
    }

    /// A boolean parameter, off by default.
    pub const fn flag(key: &'static str) -> Self {
        ParamSpec {
            key,
            default: ParamValue::Bool(false),
        }
    }

    fn accepts(&self, value: &ParamValue) -> bool {
        matches!(
            (&self.default, value),
            (ParamValue::Bool(_), ParamValue::Bool(_))
                | (ParamValue::Int(_), ParamValue::Int(_))
                | (
                    ParamValue::Float(_),
                    ParamValue::Float(_) | ParamValue::Int(_)
                )
        )
    }
}

/// Validates `params` against the `specs` of component `component`: every
/// present key declared and of the declared type. Returns the effective map,
/// every spec's key in order, defaults filled in.
fn validate(
    component: &str,
    specs: &[ParamSpec],
    params: &ParamMap,
) -> Result<ParamMap, ComponentError> {
    for (key, value) in params.iter() {
        match specs.iter().find(|spec| spec.key == key) {
            None => {
                return Err(ComponentError::UnknownParam {
                    component: component.to_string(),
                    key: key.to_string(),
                    known: specs.iter().map(|s| s.key.to_string()).collect(),
                })
            }
            Some(spec) if !spec.accepts(value) => {
                return Err(ComponentError::BadParamType {
                    component: component.to_string(),
                    key: key.to_string(),
                    expected: spec.default.kind_name(),
                    got: value.kind_name(),
                })
            }
            Some(_) => {}
        }
    }
    let mut effective = ParamMap::new();
    for spec in specs {
        let value = params.get(spec.key).unwrap_or(&spec.default);
        effective.set(spec.key, value.clone());
    }
    Ok(effective)
}

/// Structured errors from component lookup, validation and construction.
///
/// Every variant names the offending component and (where applicable) the
/// offending parameter key, so callers can surface actionable messages
/// without string-parsing. Nothing in the registry path panics.
#[derive(Debug, Clone, PartialEq)]
pub enum ComponentError {
    /// No component with that name is registered under the kind.
    UnknownComponent {
        /// Registry kind (e.g. `"workload"`).
        kind: String,
        /// The name that failed to resolve.
        name: String,
        /// All registered names, for the error message.
        known: Vec<String>,
    },
    /// A supplied parameter has the wrong type.
    BadParamType {
        /// Component name.
        component: String,
        /// The offending key.
        key: String,
        /// Declared type.
        expected: &'static str,
        /// Supplied type.
        got: &'static str,
    },
    /// A supplied parameter is not declared by the component.
    UnknownParam {
        /// Component name.
        component: String,
        /// The offending key.
        key: String,
        /// Declared keys, for the error message.
        known: Vec<String>,
    },
    /// A parameter passed type validation but is semantically invalid
    /// (out of range, inconsistent with another parameter, …).
    InvalidParam {
        /// Component name.
        component: String,
        /// The offending key.
        key: String,
        /// Why the value was rejected.
        reason: String,
    },
}

impl ComponentError {
    /// An [`ComponentError::InvalidParam`] for `key` of `component`.
    pub fn invalid(component: &str, key: &str, reason: impl Into<String>) -> Self {
        ComponentError::InvalidParam {
            component: component.to_string(),
            key: key.to_string(),
            reason: reason.into(),
        }
    }

    /// `Ok` if `ok`, otherwise [`invalid`](Self::invalid)`(component, key,
    /// reason)`: the one-line range check every `validate` method is made of.
    pub fn require(
        ok: bool,
        component: &str,
        key: &str,
        reason: impl Into<String>,
    ) -> Result<(), Self> {
        if ok {
            Ok(())
        } else {
            Err(ComponentError::invalid(component, key, reason))
        }
    }
}

impl fmt::Display for ComponentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentError::UnknownComponent { kind, name, known } => write!(
                f,
                "unknown {kind} component `{name}` (known: {})",
                known.join(", ")
            ),
            ComponentError::BadParamType {
                component,
                key,
                expected,
                got,
            } => write!(
                f,
                "component `{component}`: param `{key}` expects {expected}, got {got}"
            ),
            ComponentError::UnknownParam {
                component,
                key,
                known,
            } => write!(
                f,
                "component `{component}`: unknown param `{key}` (declared: {})",
                known.join(", ")
            ),
            ComponentError::InvalidParam {
                component,
                key,
                reason,
            } => write!(
                f,
                "component `{component}`: invalid param `{key}`: {reason}"
            ),
        }
    }
}

impl std::error::Error for ComponentError {}

/// The seed argument of [`ComponentRegistry::build`].
///
/// It carries nothing: no component draws randomness when it is built
/// (workload generators take the scenario seed at `expand`). The argument
/// stays until the single run entry point of ROADMAP item 1(c) replaces the
/// callers that pass one.
#[derive(Debug, Clone)]
pub struct SeedSplitter;

impl SeedSplitter {
    /// A splitter for the scenario's master seed (unused, see the type).
    pub fn new(_master: u64) -> Self {
        SeedSplitter
    }
}

/// One row of a registry: a named component of kind `P`.
///
/// `P` is what the embedding crate wants out of this registry kind: a boxed
/// capability assigner, a boxed `WorkloadGenerator`, an adversary spawner, an
/// exporter.
#[derive(Debug)]
pub struct Component<P> {
    /// Registry-unique component name (e.g. `"diurnal"`).
    pub name: &'static str,
    /// Declared parameters, in display order; checked before `build` runs.
    pub params: &'static [ParamSpec],
    /// Constructs the provider from validated parameters, given the row's
    /// name. Every declared key is present (defaults filled in) and typed;
    /// a semantically invalid value is an [`ComponentError::InvalidParam`],
    /// not a panic.
    pub build: fn(&'static str, &ParamMap) -> Result<P, ComponentError>,
}

/// A typed registry of [`Component`] rows of one kind.
#[derive(Debug)]
pub struct ComponentRegistry<P: 'static> {
    kind: &'static str,
    rows: &'static [Component<P>],
}

impl<P: 'static> ComponentRegistry<P> {
    /// The registry of `kind` (e.g. `"workload"`) holding `rows`, in order.
    /// Row names are unique within a registry.
    pub const fn new(kind: &'static str, rows: &'static [Component<P>]) -> Self {
        ComponentRegistry { kind, rows }
    }

    /// The registry's kind label.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Validates `params` against the named component's specs and builds
    /// the provider. `_seeds` is unused (see [`SeedSplitter`]).
    pub fn build(
        &self,
        name: &str,
        params: &ParamMap,
        _seeds: &mut SeedSplitter,
    ) -> Result<P, ComponentError> {
        let row = self
            .rows
            .iter()
            .find(|row| row.name == name)
            .ok_or_else(|| ComponentError::UnknownComponent {
                kind: self.kind.to_string(),
                name: name.to_string(),
                known: self.names().map(str::to_string).collect(),
            })?;
        (row.build)(row.name, &validate(row.name, row.params, params)?)
    }

    /// Registered component names in row order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        self.rows.iter().map(|row| row.name)
    }

    /// The registry's rows, in order.
    pub fn rows(&self) -> &'static [Component<P>] {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static MATH: ComponentRegistry<i64> = ComponentRegistry::new(
        "math",
        &[Component {
            name: "doubler",
            params: &[ParamSpec::int("x", 5), ParamSpec::int("bias", 0)],
            build: |_, params| Ok(2 * params.int("x") + params.int("bias")),
        }],
    );

    #[test]
    fn builds_with_defaults_filled_in() {
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new().with("x", ParamValue::Int(21));
        assert_eq!(MATH.build("doubler", &params, &mut seeds), Ok(42));
        assert_eq!(MATH.build("doubler", &ParamMap::new(), &mut seeds), Ok(10));
    }

    #[test]
    fn unknown_component_is_structured_err() {
        let mut seeds = SeedSplitter::new(1);
        let err = MATH
            .build("tripler", &ParamMap::new(), &mut seeds)
            .unwrap_err();
        match &err {
            ComponentError::UnknownComponent { kind, name, known } => {
                assert_eq!(kind, "math");
                assert_eq!(name, "tripler");
                assert_eq!(known, &vec!["doubler".to_string()]);
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("tripler"));
    }

    #[test]
    fn ill_typed_param_names_the_key_and_types() {
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new().with("x", ParamValue::Bool(true));
        let err = MATH.build("doubler", &params, &mut seeds).unwrap_err();
        match &err {
            ComponentError::BadParamType {
                key, expected, got, ..
            } => {
                assert_eq!(key, "x");
                assert_eq!(*expected, "int");
                assert_eq!(*got, "bool");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn unknown_param_is_rejected() {
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new()
            .with("x", ParamValue::Int(1))
            .with("zmod", ParamValue::Int(9));
        let err = MATH.build("doubler", &params, &mut seeds).unwrap_err();
        assert!(matches!(&err, ComponentError::UnknownParam { key, .. } if key == "zmod"));
    }

    #[test]
    fn float_param_accepts_int_widening() {
        static SCALE: ComponentRegistry<f64> = ComponentRegistry::new(
            "scale",
            &[Component {
                name: "scaler",
                params: &[ParamSpec::float("f", 1.0)],
                build: |_, params| Ok(params.float("f")),
            }],
        );
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new().with("f", ParamValue::Int(3));
        assert_eq!(SCALE.build("scaler", &params, &mut seeds), Ok(3.0));
    }
}
