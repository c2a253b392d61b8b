//! The `--list` face of the scenario registry (`run_scenario --list`):
//! scenarios grouped by family with each one's component composition.

use std::fmt::Write;

use lifting_runtime::{component_summary, Scale, ScenarioRegistry};

/// Every registered scenario grouped by family, each with its description
/// and the component composition the registry resolves it to
/// (`loss=bernoulli{pl=0.04} capability=... workload=static adversary=none`),
/// one line per item. `tests/scenario_listing.txt` pins it.
pub fn registry_listing() -> String {
    let registry = ScenarioRegistry::builtin();
    let mut text = String::new();
    for (family, members) in registry.families() {
        let _ = writeln!(text, "{family}/");
        for name in members {
            let config = registry.build(name, Scale::Quick, 0);
            let composition: Vec<String> = component_summary(&config)
                .into_iter()
                .map(|(axis, value)| format!("{axis}={value}"))
                .collect();
            let _ = writeln!(text, "  {name}");
            if let Some(description) = registry.description(name) {
                let _ = writeln!(text, "      {description}");
            }
            let _ = writeln!(text, "      [{}]", composition.join(" "));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use lifting_net::capability_components;
    use lifting_runtime::{adversary_components, exporter_components, workload_components};
    use lifting_sim::{ComponentRegistry, ParamMap, SeedSplitter};

    /// Builds every component of one registry with default parameters,
    /// panicking with the component's own error message on a failure, and
    /// returns how many it built.
    fn validate<P>(registry: &ComponentRegistry<P>) -> usize {
        let kind = registry.kind();
        for row in registry.rows() {
            let name = row.name;
            if let Err(e) = registry.build(name, &ParamMap::new(), &mut SeedSplitter::new(0)) {
                panic!("{kind}/{name} failed to build: {e}");
            }
        }
        registry.rows().len()
    }

    #[test]
    fn every_component_of_every_kind_builds_with_defaults() {
        // 3 capability assigners + 5 workload generators (diurnal,
        // regional-failure, zap, churn, partition-waves) + 7 adversaries + 3
        // exporters, over 4 registries.
        let counts = [
            validate(capability_components()),
            validate(workload_components()),
            validate(adversary_components()),
            validate(exporter_components()),
        ];
        assert_eq!(counts, [3, 5, 7, 3]);
    }
}
