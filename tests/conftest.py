"""Hypothesis runs derandomized and without deadlines, so that the suite
gives the same verdict on every run regardless of machine load."""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("deterministic")
