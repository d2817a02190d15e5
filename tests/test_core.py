"""Numeric building blocks: the speed of light, sinc and the slit envelope; package exports."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ghostfringe
from ghostfringe.core import C_LIGHT, sinc, tophat_ft


def test_c_light_exact_si():
    assert C_LIGHT == 299792458.0


# ---------------------------------------------------------------------------
# sinc and tophat_ft
# ---------------------------------------------------------------------------


def test_sinc_at_zero_and_pi():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)


def test_sinc_series_matches_quotient_at_crossover():
    # both branches agree where the implementation switches over
    for x in (0.99e-4, 1.01e-4):
        assert sinc(x) == pytest.approx(math.sin(x) / x, abs=1e-15)


def test_sinc_vectorized():
    xs = np.array([0.0, math.pi / 2.0, math.pi])
    got = sinc(xs)
    assert got == pytest.approx([1.0, 2.0 / math.pi, 0.0], abs=1e-15)


def _two_branch_sinc(x):
    """Both branches evaluated over the whole array and picked with np.where."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    x_safe = np.where(small, 1.0, x)
    with np.errstate(over="ignore", invalid="ignore"):  # the series of large x, never picked
        x2 = x * x
        return np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(x_safe) / x_safe)


@pytest.mark.parametrize("x", [
    0.0, -0.0, 1e-5, -1e-4, 0.5, -3.0, 1e200,
    np.array(0.0), np.array(-1e-5), np.array(7.5),
    np.array([0.0, -0.0, 1e-5, -1e-5, 1e-4, -1e-4, 9.99e-5, 1.01e-4, 3.0, -1e3, 1e300]),
    np.linspace(-2e-4, 2e-4, 41).reshape(41, 1) * np.array([1.0, 1e4]),
])
def test_sinc_matches_two_branch_formula_bit_for_bit(x):
    got, want = sinc(x), _two_branch_sinc(x)
    if np.ndim(x) == 0:
        assert type(got) is float
    else:
        assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
    assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))


def test_tophat_peak():
    assert tophat_ft(1e-3, 0.0, 5e-4) == 2e-3


def test_tophat_zero_at_l_coh():
    assert tophat_ft(1e-3, 5e-4, 5e-4) == pytest.approx(0.0, abs=1e-18)


def test_tophat_half_coherence_length():
    assert tophat_ft(1e-3, 2.5e-4, 5e-4) == pytest.approx(2e-3 * 2.0 / math.pi, rel=1e-12)


def test_tophat_rejects_bad_geometry():
    with pytest.raises(ValueError, match="half-width"):
        tophat_ft(0.0, 1e-4, 5e-4)
    with pytest.raises(ValueError, match="coherence length"):
        tophat_ft(1e-3, 1e-4, -5e-4)


@given(
    st.floats(min_value=1e-6, max_value=1e-1),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=1e-6, max_value=1e-1),
)
def test_tophat_even_and_bounded(a, dx, l_coh):
    value = tophat_ft(a, dx, l_coh)
    assert value == pytest.approx(tophat_ft(a, -dx, l_coh), rel=1e-14, abs=1e-300)
    assert abs(value) <= 2.0 * a * (1.0 + 1e-12)
    if dx != 0.0:
        assert abs(value) <= 2.0 * a * l_coh / (math.pi * abs(dx)) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Package exports
# ---------------------------------------------------------------------------


def _package_imports():
    """(module, name) of every name ghostfringe/__init__.py imports from a submodule."""
    tree = ast.parse(Path(ghostfringe.__file__).read_text())
    return [
        (f"ghostfringe.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


# Every submodule that declares __all__, found rather than listed, so a new
# module's stale entry cannot slip past.
_EXPORTING_MODULES = [
    info.name for info in pkgutil.iter_modules(ghostfringe.__path__)
    if hasattr(importlib.import_module(f"ghostfringe.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", _EXPORTING_MODULES + ["__init__"])
def test_every_export_resolves(module):
    if module == "__init__":
        for source, name in _package_imports():
            assert getattr(ghostfringe, name) is getattr(importlib.import_module(source), name)
        return
    mod = importlib.import_module(f"ghostfringe.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
