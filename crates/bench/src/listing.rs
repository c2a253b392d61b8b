//! The `--list` face of the scenario registry (`run_scenario --list`):
//! scenarios grouped by family with each one's component composition.

use std::fmt::Write;

use lifting_runtime::{component_summary, Scale, ScenarioRegistry};

/// Every registered scenario grouped by family, each with its description
/// and its composition, every axis with every parameter
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
    use lifting_runtime::exporter_components;
    use lifting_sim::{ParamMap, SeedSplitter};

    #[test]
    fn every_component_of_every_kind_builds_with_defaults() {
        // The exporter is the one axis chosen by name; the capability,
        // workload and adversary axes are typed values of the config.
        let registry = exporter_components();
        for name in registry.names() {
            if let Err(e) = registry.build(name, &ParamMap::new(), &mut SeedSplitter::new(0)) {
                panic!("exporter/{name} failed to build: {e}");
            }
        }
        assert_eq!(registry.names().count(), 3);
    }
}
