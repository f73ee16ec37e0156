"""Test-support utilities: fault injection for the robustness suite
(:mod:`~repro.testing.faults`) and random databases and SQL templates
for the property tests (:mod:`~repro.testing.gen`)."""
