"""Test-suite settings shared by every module.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run on every machine tries the same examples and a
failure reproduces from the test name alone.  To explore new examples,
run pytest with --hypothesis-profile=default.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
