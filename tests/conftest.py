"""Test-suite settings: property tests draw the same examples on every run."""
from hypothesis import settings

# derandomize seeds each property test from its own source, so a run is
# repeatable and a failure shows up again on the next run (it also turns off
# the example database, which would otherwise replay earlier failures)
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
