//! Configuration errors and the one name-keyed registry: outcome exporters.
//!
//! A scenario's capability classes, workload and adversary family are typed
//! values of its config, each checked by a `validate` method made of
//! [`ComponentError::require`] lines. Only a name that arrives from outside
//! the program (`run_scenario --exporter NAME`) is looked up in a
//! [`ComponentRegistry`]: a fixed array of [`Component`] rows, each a name
//! and a constructor.
//!
//! * [`ComponentError`] — an unknown name or an out-of-range value is a
//!   structured error naming the offender, never a panic.

use std::fmt;

use crate::SimDuration;

/// The parameter argument of [`ComponentRegistry::build`]. It carries
/// nothing: no registered component takes parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParamMap;

impl ParamMap {
    /// The empty parameter set.
    pub fn new() -> Self {
        ParamMap
    }
}

/// Structured configuration errors.
///
/// Every variant names the offending component and (where applicable) the
/// offending parameter key, so callers can surface actionable messages
/// without string-parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum ComponentError {
    /// No component with that name is registered under the kind.
    UnknownComponent {
        /// Registry kind (e.g. `"exporter"`).
        kind: String,
        /// The name that failed to resolve.
        name: String,
        /// All registered names, for the error message.
        known: Vec<String>,
    },
    /// A parameter is out of range or inconsistent with another one.
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

    /// [`require`](Self::require) that `x` lies in `[0, 1]`. NaN fails.
    pub fn require_fraction(component: &str, key: &str, x: f64) -> Result<(), Self> {
        let ok = (0.0..=1.0).contains(&x);
        Self::require(ok, component, key, format!("{x} is not in [0, 1]"))
    }

    /// [`require`](Self::require) that the count `x` is at least 1.
    pub fn require_at_least_one(component: &str, key: &str, x: u64) -> Result<(), Self> {
        Self::require(x >= 1, component, key, format!("{x} must be at least 1"))
    }

    /// [`require`](Self::require) that `x` is not negative. NaN fails.
    pub fn require_non_negative(component: &str, key: &str, x: f64) -> Result<(), Self> {
        Self::require(x >= 0.0, component, key, format!("{x} is negative"))
    }

    /// [`require`](Self::require) that the duration `d` (keyed in seconds)
    /// is positive.
    pub fn require_positive_secs(component: &str, key: &str, d: SimDuration) -> Result<(), Self> {
        let reason = format!("{} seconds is not positive", d.as_secs_f64());
        Self::require(!d.is_zero(), component, key, reason)
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
/// It carries nothing: no component draws randomness when it is built. The
/// argument stays until the single run entry point of ROADMAP item 1(c)
/// replaces the callers that pass one.
#[derive(Debug, Clone)]
pub struct SeedSplitter;

impl SeedSplitter {
    /// A splitter for the scenario's master seed (unused, see the type).
    pub fn new(_master: u64) -> Self {
        SeedSplitter
    }
}

/// One row of a registry: a named component of kind `P`.
#[derive(Debug)]
pub struct Component<P> {
    /// Registry-unique component name (e.g. `"digest"`).
    pub name: &'static str,
    /// Constructs the provider.
    pub build: fn() -> P,
}

/// A typed registry of [`Component`] rows of one kind.
#[derive(Debug)]
pub struct ComponentRegistry<P: 'static> {
    kind: &'static str,
    rows: &'static [Component<P>],
}

impl<P: 'static> ComponentRegistry<P> {
    /// The registry of `kind` (e.g. `"exporter"`) holding `rows`, in order.
    /// Row names are unique within a registry.
    pub const fn new(kind: &'static str, rows: &'static [Component<P>]) -> Self {
        ComponentRegistry { kind, rows }
    }

    /// Builds the named component. The parameter and seed arguments are
    /// unused (see [`ParamMap`] and [`SeedSplitter`]).
    pub fn build(
        &self,
        name: &str,
        _params: &ParamMap,
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
        Ok((row.build)())
    }

    /// Registered component names in row order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        self.rows.iter().map(|row| row.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static MATH: ComponentRegistry<i64> = ComponentRegistry::new(
        "math",
        &[Component {
            name: "doubler",
            build: || 42,
        }],
    );

    #[test]
    fn unknown_component_is_structured_err() {
        let mut seeds = SeedSplitter::new(1);
        assert_eq!(MATH.build("doubler", &ParamMap::new(), &mut seeds), Ok(42));
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
}
