//! Lint fixture: a production command that calls a `reference` oracle.
//! This file is NOT part of any crate.

fn assign(model: &SkillModel, dataset: &Dataset) -> Result<(SkillAssignments, f64)> {
    upskill_core::reference::assign_all_direct(model, dataset) // reference-in-production
}
