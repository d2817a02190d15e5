"""Hypothesis profiles for the test suite.

`ci` tries ten times the default number of examples, with no deadline:
CI runs `pytest --hypothesis-profile=ci`, and a local run keeps the default.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=10 * settings.default.max_examples, deadline=None)
