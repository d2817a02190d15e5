"""Names that code outside the package looks up on its modules."""

import importlib

import pytest

# perfbench/tracer.py wraps these functions on the module where their callers
# look them up, and perfbench/run.py reads the resulting spans' total or self
# time without a default: a lookup site that goes away fails every traced
# benchmark run with a KeyError, long after the Tier-1 suite passed.
TRACED_LOOKUP_SITES = [
    ("cli", "parse_config"),
    ("cli", "emit"),
    ("cli", "conditions_report"),
    ("cli", "evaluate_pattern"),
    ("cli", "dn_corr_gate"),
    ("cli", "dn_corr_mz"),
    ("cli", "estimate_dn_corr"),
    ("cli", "estimate_truth_table"),
    ("cli", "compare_patterns"),
    ("analytic", "g1_pair"),
    ("montecarlo", "envelope_power"),
    ("montecarlo", "sample_realization"),
]


@pytest.mark.parametrize(
    "module, name", TRACED_LOOKUP_SITES, ids=[f"{m}.{n}" for m, n in TRACED_LOOKUP_SITES]
)
def test_traced_lookup_site_is_callable(module, name):
    assert callable(getattr(importlib.import_module(f"ghostfringe.{module}"), name, None))
