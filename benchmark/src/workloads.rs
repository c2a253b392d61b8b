//! The four workloads and the correctness checks behind `failed`.
//!
//! Checks assert properties a legitimate behaviour change keeps (traffic
//! classes present or absent, score ordering, membership dynamics), never a
//! pinned digest: digests are printed so two commits can be diffed by eye.

use crate::driver::{Facts, JobSpec};

pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub scenario: &'static str,
    /// Jobs per repetition; job `j` runs at seed `--seed + j`.
    pub jobs: u64,
    /// Population of the scenario at Paper scale.
    nodes: u64,
    check: fn(&Facts, &mut Vec<String>),
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "headline",
        why: "LiFTinG verification and blame handlers do most of the work (300 nodes, 30 s): \
              the workload a verifier or blame-path change must move",
        scenario: "headline/planetlab",
        jobs: 5,
        nodes: 300,
        check: check_headline,
    },
    Workload {
        name: "gossip-only",
        why: "LiFTinG off, so lifting and reputation are bypassed: only engine, network, gossip \
              and sampling work; a verifier change must not move it, an engine change moves it most",
        scenario: "fig01/freeriders-no-lifting",
        jobs: 25,
        nodes: 300,
        check: check_gossip_only,
    },
    Workload {
        name: "churn-audit",
        why: "40 % of nodes cycle and audits run every 4 s: stacks rebuilt at run time, filtered \
              period ends, aborted cross-checks; a static-path gain that costs the dynamic path shows here",
        scenario: "churn/steady-fast",
        jobs: 3,
        nodes: 300,
        check: check_churn_audit,
    },
    Workload {
        name: "scale-10k",
        why: "Same protocol at 10 000 nodes: working set far beyond cache, the only workload where \
              set-up, readout, drop and memory are large enough to gate",
        scenario: "scale/10k",
        jobs: 1,
        nodes: 10_000,
        check: check_scale_10k,
    },
];

impl Workload {
    pub fn job_specs(&self, seed: u64) -> Vec<JobSpec> {
        (0..self.jobs)
            .map(|j| JobSpec {
                scenario: self.scenario,
                seed: seed + j,
            })
            .collect()
    }

    /// Every check `facts` fails, as readable sentences. `quick` is the
    /// smoke mode's reduced scale, where the population check does not apply.
    pub fn failures(&self, facts: &Facts, quick: bool) -> Vec<String> {
        let mut failures = Vec::new();
        require(
            facts.delivered_within_sent,
            "a traffic category delivered more messages than it sent",
            &mut failures,
        );
        require(
            quick || facts.nodes == self.nodes,
            &format!("the population is not {} nodes", self.nodes),
            &mut failures,
        );
        (self.check)(facts, &mut failures);
        failures
    }
}

fn require(ok: bool, what: &str, failures: &mut Vec<String>) {
    if !ok {
        failures.push(what.to_string());
    }
}

fn check_headline(f: &Facts, out: &mut Vec<String>) {
    require(
        f.count("net.verification.messages_sent") > 0,
        "no Verification traffic with LiFTinG on",
        out,
    );
    require(
        f.count("net.reputation.messages_sent") > 0,
        "no Blame traffic with freeriders present",
        out,
    );
    // `<` is false against NaN, so an empty class fails the check too.
    require(
        f.mean_freerider_score < f.mean_honest_score,
        "mean freerider score is not below mean honest score",
        out,
    );
}

fn check_gossip_only(f: &Facts, out: &mut Vec<String>) {
    for layer in ["verification", "reputation", "audit"] {
        require(
            f.count(&format!("net.{layer}.messages_sent")) == 0,
            &format!("{layer} messages were sent with LiFTinG off"),
            out,
        );
    }
    require(f.expelled == 0, "a node was expelled with LiFTinG off", out);
}

fn check_churn_audit(f: &Facts, out: &mut Vec<String>) {
    require(
        f.count("membership.departures") > 0,
        "no departures under churn",
        out,
    );
    require(
        f.count("membership.rejoins") > 0,
        "no rejoins under churn",
        out,
    );
    require(
        f.count("net.audit.messages_sent") > 0,
        "no Audit traffic with audits on",
        out,
    );
}

fn check_scale_10k(f: &Facts, out: &mut Vec<String>) {
    require(
        f.node_outcomes + 1 == f.nodes,
        "not every node but the source has an outcome",
        out,
    );
    require(
        f.memory_per_node_bytes > 0.0 && f.memory_per_node_bytes < 1_048_576.0,
        "memory_per_node_bytes is outside (0, 1 MiB)",
        out,
    );
}
