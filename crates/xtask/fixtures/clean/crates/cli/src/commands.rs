//! Lint fixture: places where a production crate may name the
//! `reference` oracles without tripping `reference-in-production`.
//! Doc comments may cite [`upskill_core::reference::build_scalar`].

use upskill_core::parallel::assign_all_parallel;

fn assign(model: &SkillModel, dataset: &Dataset) -> Result<(SkillAssignments, f64)> {
    // Comments may say reference::assign_all_direct is the oracle.
    let label = "reference::assign_all_direct";
    let _ = label;
    let _ = cross_reference::lookup(model);
    assign_all_parallel(model, dataset, &ParallelConfig::sequential())
}

#[cfg(test)]
mod tests {
    use upskill_core::reference::assign_all_direct;

    #[test]
    fn matches_oracle() {
        let _ = upskill_core::reference::assign_all_direct(&model(), &dataset());
    }
}
