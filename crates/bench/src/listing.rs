//! The `--list` face of the scenario registry (`run_scenario --list`):
//! scenarios grouped by family with each one's component composition, plus
//! the registry-validation pass the CI gate runs.

use lifting_net::capability_components;
use lifting_runtime::{
    adversary_components, component_summary, exporter_components, workload_components, Scale,
    ScenarioRegistry,
};
use lifting_sim::{ComponentRegistry, ParamMap, SeedSplitter};

/// Prints every registered scenario grouped by family, each with its
/// description and the component composition the registry resolves it to
/// (`loss=bernoulli{pl=0.04} capability=... workload=static adversary=none`).
pub fn print_registry_listing() {
    let registry = ScenarioRegistry::builtin();
    for (family, members) in registry.families() {
        println!("{family}/");
        for name in members {
            let config = registry.build(name, Scale::Quick, 0);
            let composition: Vec<String> = component_summary(&config)
                .into_iter()
                .map(|(axis, value)| format!("{axis}={value}"))
                .collect();
            println!("  {name}");
            if let Some(description) = registry.description(name) {
                println!("      {description}");
            }
            println!("      [{}]", composition.join(" "));
        }
    }
}

/// Prints the bare scenario names, one per line — the machine-readable
/// format the CI manifest gate diffs against `tests/scenario_manifest.txt`.
pub fn print_registry_names() {
    for name in ScenarioRegistry::builtin().names() {
        println!("{name}");
    }
}

/// Instantiates every registered component of every kind with default
/// parameters, panicking (with the component's own error message) on any
/// failure — the CI registry-validation gate. Returns the number of
/// components validated and the number of registries they span.
pub fn validate_component_registries() -> (usize, usize) {
    let counts = [
        validate(capability_components()),
        validate(workload_components()),
        validate(adversary_components()),
        validate(exporter_components()),
    ];
    (counts.iter().sum(), counts.len())
}

/// Builds every component of one registry with default parameters.
fn validate<P>(registry: &ComponentRegistry<P>) -> usize {
    let kind = registry.kind();
    for row in registry.rows() {
        let name = row.name;
        if let Err(e) = registry.build(name, &ParamMap::new(), &mut SeedSplitter::new(0)) {
            panic!("{kind}/{name} failed to build: {e}");
        }
        eprintln!("  {kind}/{name} ok");
    }
    registry.rows().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_component_of_every_kind_builds_with_defaults() {
        // 3 capability assigners + 5 workload generators (diurnal,
        // regional-failure, zap, churn, partition-waves) + 7 adversaries + 3
        // exporters, over 4 registries.
        assert_eq!(validate_component_registries(), (18, 4));
    }
}
