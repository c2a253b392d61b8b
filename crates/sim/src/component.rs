//! Generic component/provider registry.
//!
//! Scenarios in the reproduction used to be built by hand-enumerated
//! constructors: every new axis (capability class, workload shape,
//! adversary, exporter) multiplied the scenario list. This module
//! provides the uniform machinery that turns that O(product) enumeration
//! into O(sum) composition: each axis registers *components* — named,
//! self-describing factories — in a [`ComponentRegistry`], and a scenario is
//! just a composition of component names plus parameter maps.
//!
//! The framework is deliberately small and embedding-agnostic:
//!
//! * [`ParamValue`] / [`ParamMap`] — an ordered, typed key→value bag used to
//!   parameterize component construction.
//! * [`ParamsSchema`] — a component's declared parameters (name, type,
//!   default), used both for documentation (`--list`) and for validation
//!   before `build` runs.
//! * [`Component`] — the factory trait: `name()`, `description()`,
//!   `params_schema()` and `build(&ParamMap, &mut SeedSplitter)`.
//! * [`ComponentRegistry`] — typed lookup by name with structured
//!   [`ComponentError`]s (never panics) on unknown names, duplicate
//!   registration, missing/ill-typed/unknown parameters.
//! * [`SeedSplitter`] — hands components decorrelated seeds off the
//!   scenario's master seed without letting construction order perturb the
//!   streams other components see.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed parameter value accepted by component factories.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer (counts, node indices, stream ids).
    Int(i64),
    /// Floating-point value (fractions, rates, durations in seconds).
    Float(f64),
    /// Free-form text (sub-component names, labels).
    Text(String),
}

impl ParamValue {
    /// The human-readable name of this value's type, used in error messages
    /// and schema listings.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ParamValue::Bool(_) => "bool",
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
            ParamValue::Text(_) => "text",
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
            ParamValue::Text(s) => write!(f, "{s}"),
        }
    }
}

/// An ordered key→value map of component parameters.
///
/// Insertion order is preserved so that rendered compositions (`--list`,
/// manifests) are stable across runs; lookups are linear, which is fine for
/// the handful of parameters a component takes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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

    /// The float parameter `key` (an `Int` is widened). For use inside
    /// [`Component::build`], where the schema has already supplied and typed
    /// every declared key.
    ///
    /// # Panics
    ///
    /// Panics if the map was not validated against a schema declaring `key`
    /// as a float.
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

/// The declared type of a schema parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Expects [`ParamValue::Bool`].
    Bool,
    /// Expects [`ParamValue::Int`].
    Int,
    /// Expects [`ParamValue::Float`] (an `Int` is accepted and widened).
    Float,
    /// Expects [`ParamValue::Text`].
    Text,
}

impl ParamKind {
    /// Human-readable type name.
    pub fn name(self) -> &'static str {
        match self {
            ParamKind::Bool => "bool",
            ParamKind::Int => "int",
            ParamKind::Float => "float",
            ParamKind::Text => "text",
        }
    }

    fn accepts(self, value: &ParamValue) -> bool {
        matches!(
            (self, value),
            (ParamKind::Bool, ParamValue::Bool(_))
                | (ParamKind::Int, ParamValue::Int(_))
                | (ParamKind::Float, ParamValue::Float(_))
                | (ParamKind::Float, ParamValue::Int(_))
                | (ParamKind::Text, ParamValue::Text(_))
        )
    }
}

/// One declared parameter of a component.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter key as it appears in a [`ParamMap`].
    pub key: &'static str,
    /// Expected value type.
    pub kind: ParamKind,
    /// Default used when the parameter is omitted; `None` marks it required.
    pub default: Option<ParamValue>,
    /// One-line description for `--list` output.
    pub doc: &'static str,
}

impl ParamSpec {
    /// A required parameter.
    pub fn required(key: &'static str, kind: ParamKind, doc: &'static str) -> Self {
        ParamSpec {
            key,
            kind,
            default: None,
            doc,
        }
    }

    /// An optional parameter with a default.
    pub fn optional(
        key: &'static str,
        kind: ParamKind,
        default: ParamValue,
        doc: &'static str,
    ) -> Self {
        ParamSpec {
            key,
            kind,
            default: Some(default),
            doc,
        }
    }
}

/// The full declared parameter set of a component.
#[derive(Debug, Clone, Default)]
pub struct ParamsSchema {
    /// Declared parameters, in display order.
    pub params: Vec<ParamSpec>,
}

impl ParamsSchema {
    /// A schema with no parameters.
    pub fn empty() -> Self {
        ParamsSchema::default()
    }

    /// A schema from a list of specs.
    pub fn of(params: Vec<ParamSpec>) -> Self {
        ParamsSchema { params }
    }

    /// Validates `params` against this schema for component `component`:
    /// every required key present, every present key declared and of the
    /// declared type. Returns the effective map with defaults filled in.
    pub fn validate(&self, component: &str, params: &ParamMap) -> Result<ParamMap, ComponentError> {
        for (key, value) in params.iter() {
            match self.params.iter().find(|spec| spec.key == key) {
                None => {
                    return Err(ComponentError::UnknownParam {
                        component: component.to_string(),
                        key: key.to_string(),
                        known: self.params.iter().map(|s| s.key.to_string()).collect(),
                    })
                }
                Some(spec) if !spec.kind.accepts(value) => {
                    return Err(ComponentError::BadParamType {
                        component: component.to_string(),
                        key: key.to_string(),
                        expected: spec.kind.name(),
                        got: value.kind_name(),
                    })
                }
                Some(_) => {}
            }
        }
        let mut effective = ParamMap::new();
        for spec in &self.params {
            match params.get(spec.key) {
                Some(value) => effective.set(spec.key, value.clone()),
                None => match &spec.default {
                    Some(default) => effective.set(spec.key, default.clone()),
                    None => {
                        return Err(ComponentError::MissingParam {
                            component: component.to_string(),
                            key: spec.key.to_string(),
                        })
                    }
                },
            }
        }
        Ok(effective)
    }
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
    /// A component with that name is already registered under the kind.
    DuplicateComponent {
        /// Registry kind.
        kind: String,
        /// The name registered twice.
        name: String,
    },
    /// A required parameter was not supplied.
    MissingParam {
        /// Component name.
        component: String,
        /// The missing key.
        key: String,
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
    /// A supplied parameter is not declared by the component's schema.
    UnknownParam {
        /// Component name.
        component: String,
        /// The offending key.
        key: String,
        /// Declared keys, for the error message.
        known: Vec<String>,
    },
    /// A parameter passed schema validation but is semantically invalid
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
            ComponentError::DuplicateComponent { kind, name } => {
                write!(f, "duplicate {kind} component `{name}`")
            }
            ComponentError::MissingParam { component, key } => {
                write!(f, "component `{component}`: missing required param `{key}`")
            }
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

/// Hands components decorrelated RNG streams off a scenario's master seed.
///
/// Components must not share streams with each other or with the world's
/// fixed streams, and construction order must not change which stream a
/// given component sees — so the splitter only exposes *named* streams
/// (fixed `u64` labels), mixed through the same splitmix64 expansion as the
/// rest of the reproduction.
#[derive(Debug, Clone)]
pub struct SeedSplitter {
    master: u64,
}

impl SeedSplitter {
    /// A splitter rooted at the scenario's master seed.
    pub fn new(master: u64) -> Self {
        SeedSplitter { master }
    }

    /// The master seed this splitter was rooted at.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// A decorrelated seed for the fixed stream label.
    pub fn seed(&self, stream: u64) -> u64 {
        crate::rng::split_seed(self.master, stream)
    }
}

/// A named, self-describing factory for providers of type `P`.
///
/// `P` is the provider the embedding crate wants out of this registry kind:
/// a `TransportPolicy`, a boxed `WorkloadGenerator`, a boxed adversary
/// factory, an exporter — the framework does not care.
pub trait Component<P>: Send + Sync {
    /// Registry-unique component name (e.g. `"diurnal"`).
    fn name(&self) -> &'static str;
    /// One-line description for `--list` output.
    fn description(&self) -> &'static str {
        ""
    }
    /// Declared parameters; validated before [`Component::build`] runs.
    fn params_schema(&self) -> ParamsSchema {
        ParamsSchema::empty()
    }
    /// Constructs the provider from validated parameters.
    ///
    /// `params` has already passed [`ParamsSchema::validate`] — every
    /// declared key is present (defaults filled in) and correctly typed.
    /// Implementations should still return [`ComponentError::InvalidParam`]
    /// for semantically invalid values rather than panic.
    fn build(&self, params: &ParamMap, seeds: &mut SeedSplitter) -> Result<P, ComponentError>;
}

/// A typed registry of [`Component`]s of one kind.
pub struct ComponentRegistry<P> {
    kind: &'static str,
    entries: Vec<Box<dyn Component<P>>>,
}

impl<P> ComponentRegistry<P> {
    /// An empty registry for components of the given kind
    /// (e.g. `"transport"`, `"workload"`).
    pub fn new(kind: &'static str) -> Self {
        ComponentRegistry {
            kind,
            entries: Vec::new(),
        }
    }

    /// The registry's kind label.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Registers a component; duplicate names are a structured error, not a
    /// silent replacement or a panic.
    pub fn register(&mut self, component: Box<dyn Component<P>>) -> Result<(), ComponentError> {
        if self.entries.iter().any(|c| c.name() == component.name()) {
            return Err(ComponentError::DuplicateComponent {
                kind: self.kind.to_string(),
                name: component.name().to_string(),
            });
        }
        self.entries.push(component);
        Ok(())
    }

    /// Looks up a component by name.
    pub fn get(&self, name: &str) -> Result<&dyn Component<P>, ComponentError> {
        self.entries
            .iter()
            .find(|c| c.name() == name)
            .map(|c| c.as_ref())
            .ok_or_else(|| ComponentError::UnknownComponent {
                kind: self.kind.to_string(),
                name: name.to_string(),
                known: self.names().map(str::to_string).collect(),
            })
    }

    /// Validates `params` against the named component's schema and builds
    /// the provider.
    pub fn build(
        &self,
        name: &str,
        params: &ParamMap,
        seeds: &mut SeedSplitter,
    ) -> Result<P, ComponentError> {
        let component = self.get(name)?;
        let effective = component.params_schema().validate(name, params)?;
        component.build(&effective, seeds)
    }

    /// Registered component names in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|c| c.name())
    }

    /// Registered components in registration order.
    pub fn components(&self) -> impl Iterator<Item = &dyn Component<P>> {
        self.entries.iter().map(|c| c.as_ref())
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<P> fmt::Debug for ComponentRegistry<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentRegistry")
            .field("kind", &self.kind)
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;

    impl Component<i64> for Doubler {
        fn name(&self) -> &'static str {
            "doubler"
        }
        fn params_schema(&self) -> ParamsSchema {
            ParamsSchema::of(vec![
                ParamSpec::required("x", ParamKind::Int, "input"),
                ParamSpec::optional("bias", ParamKind::Int, ParamValue::Int(0), "added after"),
            ])
        }
        fn build(
            &self,
            params: &ParamMap,
            _seeds: &mut SeedSplitter,
        ) -> Result<i64, ComponentError> {
            let x = match params.get("x") {
                Some(ParamValue::Int(x)) => *x,
                _ => unreachable!("schema-validated"),
            };
            let bias = match params.get("bias") {
                Some(ParamValue::Int(b)) => *b,
                _ => unreachable!("schema-validated"),
            };
            Ok(2 * x + bias)
        }
    }

    fn registry() -> ComponentRegistry<i64> {
        let mut reg = ComponentRegistry::new("math");
        reg.register(Box::new(Doubler)).unwrap();
        reg
    }

    #[test]
    fn builds_with_defaults_filled_in() {
        let reg = registry();
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new().with("x", ParamValue::Int(21));
        assert_eq!(reg.build("doubler", &params, &mut seeds), Ok(42));
    }

    #[test]
    fn unknown_component_is_structured_err() {
        let reg = registry();
        let mut seeds = SeedSplitter::new(1);
        let err = reg
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
    fn missing_required_param_names_the_key() {
        let reg = registry();
        let mut seeds = SeedSplitter::new(1);
        let err = reg
            .build("doubler", &ParamMap::new(), &mut seeds)
            .unwrap_err();
        assert!(matches!(&err, ComponentError::MissingParam { key, .. } if key == "x"));
        assert!(err.to_string().contains("`x`"));
    }

    #[test]
    fn ill_typed_param_names_the_key_and_types() {
        let reg = registry();
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new().with("x", ParamValue::Text("nope".into()));
        let err = reg.build("doubler", &params, &mut seeds).unwrap_err();
        match &err {
            ComponentError::BadParamType {
                key, expected, got, ..
            } => {
                assert_eq!(key, "x");
                assert_eq!(*expected, "int");
                assert_eq!(*got, "text");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn unknown_param_is_rejected() {
        let reg = registry();
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new()
            .with("x", ParamValue::Int(1))
            .with("zmod", ParamValue::Int(9));
        let err = reg.build("doubler", &params, &mut seeds).unwrap_err();
        assert!(matches!(&err, ComponentError::UnknownParam { key, .. } if key == "zmod"));
    }

    #[test]
    fn duplicate_registration_is_err_not_panic() {
        let mut reg = registry();
        let err = reg.register(Box::new(Doubler)).unwrap_err();
        assert_eq!(
            err,
            ComponentError::DuplicateComponent {
                kind: "math".to_string(),
                name: "doubler".to_string(),
            }
        );
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn float_param_accepts_int_widening() {
        struct Scaler;
        impl Component<f64> for Scaler {
            fn name(&self) -> &'static str {
                "scaler"
            }
            fn params_schema(&self) -> ParamsSchema {
                ParamsSchema::of(vec![ParamSpec::required("f", ParamKind::Float, "factor")])
            }
            fn build(
                &self,
                params: &ParamMap,
                _s: &mut SeedSplitter,
            ) -> Result<f64, ComponentError> {
                Ok(match params.get("f") {
                    Some(ParamValue::Float(x)) => *x,
                    Some(ParamValue::Int(x)) => *x as f64,
                    _ => unreachable!(),
                })
            }
        }
        let mut reg = ComponentRegistry::new("scale");
        reg.register(Box::new(Scaler)).unwrap();
        let mut seeds = SeedSplitter::new(1);
        let params = ParamMap::new().with("f", ParamValue::Int(3));
        assert_eq!(reg.build("scaler", &params, &mut seeds), Ok(3.0));
    }

    #[test]
    fn seed_splitter_streams_are_stable_and_decorrelated() {
        let a = SeedSplitter::new(42).seed(10);
        let b = SeedSplitter::new(42).seed(10);
        let c = SeedSplitter::new(42).seed(11);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
