"""Shared test settings: property tests draw a fixed, derandomized example set."""

try:
    from hypothesis import settings
except ImportError:  # tests/test_properties.py skips itself without it
    pass
else:
    settings.register_profile(
        "deterministic", derandomize=True, database=None, deadline=None
    )
    settings.load_profile("deterministic")
